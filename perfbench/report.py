#!/usr/bin/env python3
"""Print every metric of every workload by name, with its unit and sample count.

    python3 perfbench/report.py                  # end-to-end metrics
    python3 perfbench/report.py --trace 1        # per-layer metrics

Each workload runs in its own process through run.py, for the
run_seconds that BENCHMARK.json sets, so the figures are those the
benchmark records and peak RSS is the workload's own.  Exits nonzero
when any workload fails or answers wrongly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from queries import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(RUN_SECONDS),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<17} {name:<34} {metric['value']:>14.6g} "
                  f"{metric['unit']:<10} n={summary['samples'][name]}")
        print(f"{workload:<17} {'error_rate':<34} {summary['error_rate']:>14.6g} "
              f"{'ratio':<10} n={result['attempted']}")
        probe = summary["host_probe"]
        print(f"{workload:<17} host probe {probe['min_ms']:.3f} ms min, "
              f"{probe['median_ms']:.3f} ms median, n={probe['n']} (not in the metrics)")
        if "tail_percentile" in summary:
            print(f"{workload:<17} latency_tail_ms is p{summary['tail_percentile']:.2f}; "
                  f"a query's latency is the {summary['latency_of_sends']} of its sends")
        if "dominant" in summary:
            verdict = "met" if summary["prediction_met"] else "NOT met"
            print(f"{workload:<17} dominant {summary['dominant']}; predicted "
                  f"{' + '.join(summary['predicted_dominant'])}: {verdict}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
