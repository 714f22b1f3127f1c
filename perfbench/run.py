#!/usr/bin/env python3
"""Closed-loop benchmark of the wordfourier CLI.

One client in one thread sends ``wordfourier.cli.main(argv)`` queries
in-process and sends each only after the previous one returns, as a CLI
user waiting for each answer does.  Queries come from the seed alone (see
queries.py); the program receives only the generated argv.

    python3 perfbench/run.py --workload oracle-enum --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  A
query's latency is its fastest or its median send over the passes, as
the workload sets (query_latencies); the metrics are the median and tail
of those latencies over the query list, and the query count over their
sum.
``--trace 1`` runs the same passes untraced and then traced, and reports
the per-layer metrics per pass (spans.py).  The number of passes follows
from the workload and ``--seconds`` alone (queries.pass_count), never from
how fast the program runs, so two versions of the program are compared
over the same number of sends.  Either way every distinct
answer is checked after the timed region (reference.py), and every query
that exits nonzero, raises, prints different output on a later pass or
gives a wrong answer counts as failed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds sample counts,
the tail percentile, error_rate, a fixed-work host probe and the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
HOST_PROBE_REPEATS = 3  # host probes between passes
TAIL_BEYOND = 10  # queries the tail percentile leaves above it
SETUP_TIMEOUT_S = 120
PREDICTED_DOMINANT = {
    "oracle-enum": ("kernels.counts_s",),
    "formula-residual": ("kernels.split_sum_s",),
    "symbolic-mix": ("reduction.self_s", "cli.self_s", "fourier.annotate_s"),
}
SELF_TIME_METRICS = (
    "cli.self_s", "words.self_s", "reduction.self_s", "groups.load_s",
    "groups.classes_s", "chartable.load_s", "chartable.fs_s",
    "fourier.distribution_s", "fourier.project_s", "fourier.formula_s",
    "fourier.annotate_s", "kernels.counts_s", "kernels.split_sum_s",
)

SETUP_PROGRAM = (
    "import sys\n"
    "from wordfourier.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def load_program():
    """Import wordfourier from this checkout's src/, and nowhere else."""
    package = SRC / "wordfourier"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"no wordfourier package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import wordfourier

    if Path(wordfourier.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"wordfourier imported from {wordfourier.__file__}, not {package}\n")
        sys.exit(2)
    return wordfourier


@dataclass
class Loop:
    """Outcome of whole passes over the query list."""

    passes: int = 0
    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # first pass, per query
    failures: dict[int, str] = field(default_factory=dict)  # query index -> first reason
    failed: Counter = field(default_factory=Counter)  # query index -> failed sends


@dataclass
class Measured:
    """What one run reports: metrics as {name: (value, unit)} and the rest."""

    metrics: dict
    samples: dict
    attempted: int
    failed: int
    notes: dict  # query index or "setup" -> why it failed
    summary: dict  # extra fields of the summary line
    correct: bool = True


def send(cli, argv) -> tuple[float, object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed query, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if code != 0:
        code = f"exit {code}: {err.getvalue().strip()[:200]}"
    return elapsed, code, out.getvalue()


def one_pass(cli, queries, loop: Loop, reference_outputs=None):
    start = time.perf_counter()
    for i, query in enumerate(queries):
        elapsed, code, out = send(cli, query.argv)
        loop.latencies.append(elapsed)
        if loop.passes == 0:
            loop.outputs.append(out)
        expected = loop.outputs[i] if reference_outputs is None else reference_outputs[i]
        problem = str(code) if code != 0 else None
        if problem is None and out != expected:
            problem = "output differs from the first pass"
        if problem:
            loop.failures.setdefault(i, problem)
            loop.failed[i] += 1
    loop.wall += time.perf_counter() - start
    loop.passes += 1


def run_passes(cli, queries, passes: int, reference_outputs=None, between_passes=None) -> Loop:
    """``passes`` whole passes over the query list.

    Outputs must match ``reference_outputs``, or else the first pass.
    ``between_passes(loop, passes)`` runs after each pass, outside the timing.
    """
    loop = Loop()
    while loop.passes < passes:
        one_pass(cli, queries, loop, reference_outputs)
        if between_passes is not None:
            between_passes(loop, passes)
    return loop


def check_answers(queries, loop: Loop, *others: Loop) -> None:
    """Check each distinct answer of ``loop`` once.

    A wrong answer fails every send of that query, in ``loop`` and in the
    ``others``, whose outputs were compared with ``loop``'s.
    """
    from reference import Checker

    checker = Checker()
    for i, query in enumerate(queries):
        if i in loop.failures:
            continue
        try:
            problem = checker.check(query, loop.outputs[i])
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed answer: {type(exc).__name__}: {exc}"
        if problem:
            for each in (loop, *others):
                each.failures[i] = problem
                each.failed[i] = each.passes


class SetupProbe:
    """Fresh processes: interpreter start, cold import and the first query.

    The probes run between passes, spread over the run, so that one burst
    of contention on the host cannot move them all.
    """

    def __init__(self, query):
        self.argv = query.argv
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + os.pathsep + self.env.get("PYTHONPATH", "")
        self.times: list[float] = []
        self.problems: list[str] = []

    def between_passes(self, loop: Loop, passes: int) -> None:
        due = math.ceil(SETUP_REPEATS * loop.passes / passes)
        while len(self.times) < due:
            self.probe(loop.outputs[0])

    def probe(self, expected: str) -> None:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM, *self.argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            self.problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        elif proc.stdout != expected:
            self.problems.append("fresh-process output differs from the in-process one")


class HostProbe:
    """A fixed piece of work timed between passes, to tell host drift apart
    from changes in the program.  It is reported beside the metrics and
    never used to scale them."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.index = rng.integers(0, 24, size=1 << 14)
        self.table = rng.integers(0, 24, size=(24, 24))
        self.times: list[float] = []

    def work(self) -> int:
        acc = self.index
        for _ in range(20):
            acc = self.table[acc, self.index]
        total = 0
        for i in range(20_000):
            total += i * i
        return total + int(acc[0])

    def between_passes(self, loop: Loop, passes: int) -> None:
        for _ in range(HOST_PROBE_REPEATS):
            start = time.perf_counter()
            self.work()
            self.times.append(time.perf_counter() - start)

    def summary(self) -> dict:
        return {
            "min_ms": 1000.0 * min(self.times),
            "median_ms": 1000.0 * statistics.median(self.times),
            "n": len(self.times),
        }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(wordfourier, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": wordfourier.active_backend(),
        "commit": git_commit(),
        "seed": seed,
    }


def query_latencies(loop: Loop, nqueries: int, workload: str) -> list[float]:
    """Each query's latency: its sends over the passes, reduced by the
    workload's LATENCY_OF_SENDS (fastest or median send).

    The pass count is fixed per workload, so a parent and a change reduce
    the same number of sends.
    """
    from queries import LATENCY_OF_SENDS

    reduce = LATENCY_OF_SENDS[workload]
    return [reduce(loop.latencies[i::nqueries]) for i in range(nqueries)]


def end_to_end(cli, queries, seconds, workload) -> Measured:
    from queries import LATENCY_OF_SENDS, pass_count

    setup, host = SetupProbe(queries[0]), HostProbe()

    def between_passes(loop, passes):
        host.between_passes(loop, passes)
        setup.between_passes(loop, passes)

    loop = run_passes(cli, queries, pass_count(workload, seconds), None, between_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times, setup_problems = setup.times, setup.problems
    check_answers(queries, loop)
    latencies = query_latencies(loop, len(queries), workload)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * tail_value, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    sends = f"{len(queries)}x{loop.passes}"
    samples = {
        "setup_s": len(times),
        "queries_per_s": sends,
        "latency_p50_ms": sends,
        "latency_tail_ms": sends,
        "peak_rss_mb": 1,
    }
    attempted = len(loop.latencies) + len(times)
    failed = sum(loop.failed.values()) + len(setup_problems)
    notes = dict(loop.failures)
    if setup_problems:
        notes["setup"] = setup_problems[0]
    summary = {
        "tail_percentile": tail_pct,
        "passes": loop.passes,
        "latency_of_sends": LATENCY_OF_SENDS[workload].__name__,
        "timed_s": loop.wall,
        # the same figures over every send, spells and all
        "all_sends": {
            "queries_per_s": len(loop.latencies) / loop.wall,
            "latency_p50_ms": 1000.0 * statistics.median(loop.latencies),
            "latency_tail_ms": 1000.0 * tail(loop.latencies)[0],
        },
        "host_probe": host.summary(),
    }
    return Measured(metrics, samples, attempted, failed, notes, summary)


def per_layer(cli, queries, seconds, workload) -> Measured:
    from queries import pass_count
    from spans import ACCOUNTING_BOUND, Tracer, layer_metrics

    host = HostProbe()
    passes = pass_count(workload, seconds / 2)
    untraced = run_passes(cli, queries, passes, None, host.between_passes)
    tracer = Tracer()
    with tracer.installed():
        traced = run_passes(cli, queries, passes, untraced.outputs)
    check_answers(queries, untraced, traced)
    metrics = layer_metrics(
        tracer, traced.passes, traced.wall,
        sum(query_latencies(traced, len(queries), workload))
        / sum(query_latencies(untraced, len(queries), workload)),
    )
    samples = {name: traced.passes for name in metrics}
    attempted = len(untraced.latencies) + len(traced.latencies)
    notes = {**untraced.failures, **{f"traced {i}": r for i, r in traced.failures.items()}}
    failed = sum(untraced.failed.values()) + sum(traced.failed.values())
    accounted = metrics["trace.unaccounted_frac"][0] <= ACCOUNTING_BOUND
    wall = metrics["trace.wall_s"][0]
    shares = {m: metrics[m][0] / wall for m in SELF_TIME_METRICS}
    predicted = PREDICTED_DOMINANT[workload]
    summary = {
        "passes": traced.passes,
        "host_probe": host.summary(),
        "accounting_bound": ACCOUNTING_BOUND,
        "dominant": max(shares, key=shares.get),
        "shares": {m: round(v, 4) for m, v in sorted(shares.items(), key=lambda kv: -kv[1])},
        "predicted_dominant": list(predicted),
        # met when the predicted layers take more than half the traced time
        "prediction_met": sum(shares[m] for m in predicted) > 0.5,
    }
    return Measured(metrics, samples, attempted, failed, notes, summary, accounted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    wordfourier = load_program()
    from wordfourier import cli

    from queries import WORKLOADS, build

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    queries = build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    measured = measure(cli, queries, args.seconds, args.workload)

    for name, (value, unit) in measured.metrics.items():
        print(f"{args.workload:<17} {name:<34} {value:>16.6g} {unit:<10} n={measured.samples[name]}")
    for key, reason in measured.notes.items():
        print(f"failed query {key}: {reason}")
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "error_rate": measured.failed / measured.attempted,
        "samples": measured.samples,
        **measured.summary,
        "env": environment(wordfourier, args.seed),
    }
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": measured.failed == 0 and measured.correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in measured.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
