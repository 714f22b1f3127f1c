#!/usr/bin/env python3
"""Opt-in stress case: the paper's worked example over S4, unshrunk.

``expand --verify`` on the intro word, whose oracle enumerates all 24^6
(about 1.9e8) assignments.  It takes about 45 s on a 2-vCPU host, so it
is kept out of the named workloads.  The formula's fiber counts must
equal the oracle's exactly.

    python3 perfbench/stress.py
"""

from __future__ import annotations

import json
import sys

import numpy as np

from queries import INTRO
from run import load_program, send

ASSIGNMENTS = 24**6


def main() -> int:
    load_program()
    from wordfourier import cli

    from reference import REL_TOL, Checker

    argv = ("expand", INTRO, "--group", "S4", "--verify", "--format", "json",
            "--budget", str(ASSIGNMENTS))
    elapsed, code, out = send(cli, argv)
    if code != 0:
        print(f"failed: {code}")
        return 1
    table = Checker().table("S4")
    rows = json.loads(out)["rows"]
    counts = {
        column: np.array([complex(*row[column]) for row in rows]) @ table.values
        for column in ("coefficient", "oracle")
    }
    exact = np.rint(counts["oracle"].real)
    worst = float(np.max(np.abs(counts["coefficient"] - exact)))
    tol = REL_TOL * ASSIGNMENTS
    correct = worst <= tol and float(np.max(np.abs(counts["oracle"] - exact))) <= tol
    print(json.dumps({
        "correct": correct,
        "seconds": elapsed,
        "massign_per_s": ASSIGNMENTS / elapsed / 1e6,
        "max_count_delta": worst,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
