#!/usr/bin/env python3
"""Time the two kernels of two source trees against each other, round by round.

    python3 tools/kernel_ab.py OLD_SRC NEW_SRC --seed 1 --rounds 40

OLD_SRC and NEW_SRC are directories holding a ``wordfourier`` package,
such as the ``src/`` of two checkouts.  Each tree runs in its own child
process.  A child sends the oracle-enum and formula-residual queries of
``perfbench/queries.py`` at the seed, and the walk-bound cases, through
``cli.main`` once, keeping the arguments of every
``_kernels.element_counts`` and ``_kernels.split_character_sum`` call
they make.  The walk-bound cases are the same at every seed, each with a
``--budget`` of |G|^rank:

* ``expand --verify`` on ``two_occurrence_word(random.Random(s), n)`` for
  s = 1-3, over D5, A4 and Q8 at n = 8, S4 at n = 7 and S3 at n = 10;
* ``expand --verify`` on the intro word over S4;
* ``expand`` on ``residual_word(random.Random(1), 3, rank)`` over S4 at
  rank 6, and A4 and D5 at rank 7.

Their oracle walks, 16,344 to 392,256 rows, are where the walk's plan
(``_plan``) pays, and no workload walks that many; the formula walks of
the intro and residual words, 43 to 681 rows, stay below the plan's
threshold.  Then each round times
every kept call once in each child, one child after the other, with the
child that goes first alternating from round to round.  Per workload,
kernel, group and rank the report gives the calls, each tree's median
over the rounds of its time per call, their ratio (old over new, so
above 1 is a gain) and the rounds the new tree won.  The children's
results must be equal, call by call, or the exit status is 1.

A whole benchmark run measures only a few passes of oracle-enum, and the
host's speed moves from one run to the next by more than most changes
do; interleaved rounds of the same calls in two warm processes see both
trees under the same host.  The last line of stdout is one JSON object
holding the table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

QUERIES = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("oracle-enum", "formula-residual", "walk")

# one child per tree: argv is the tree's src, the seed and the directory of
# queries.py; after setup it prints the call keys as one JSON line, then
# answers every "round" line on stdin with the seconds per key
CHILD = r"""
import contextlib, gc, hashlib, io, json, random, sys, time
from pathlib import Path
src, seed, queries_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
package = Path(src, "wordfourier").resolve()
sys.path.insert(0, src)
import wordfourier
if Path(wordfourier.__file__).resolve().parent != package:
    sys.exit(f"wordfourier imported from {wordfourier.__file__}, not {package}")
sys.path.insert(0, queries_dir)
import queries
from wordfourier import _kernels, builtin_group
from wordfourier.cli import main


def walk_cases():
    # (letters or text, group, rank, extra argv)
    surfaces = (("D5", 8), ("A4", 8), ("Q8", 8), ("S4", 7), ("S3", 10))
    cases = [(queries.two_occurrence_word(random.Random(s), n), group, n, ["--verify"])
             for s in (1, 2, 3) for group, n in surfaces]
    cases.append((queries.INTRO, "S4", 6, ["--verify"]))
    cases += [(queries.residual_word(random.Random(1), 3, rank), group, rank, [])
              for group, rank in (("S4", 6), ("A4", 7), ("D5", 7))]
    for word, group, rank, extra in cases:
        text = word if isinstance(word, str) else queries.word_text(word)
        budget = builtin_group(group).order ** rank
        yield ["expand", text, "--group", group, "--budget", str(budget), *extra]


calls = []  # (key, kernel, args)
current = {}
kernels = {}
for name in ("element_counts", "split_character_sum"):
    kernel = kernels[name] = getattr(_kernels, name)

    def kept(*args, _name=name, _kernel=kernel):
        group, rank = args[0], args[2]
        key = "/".join((current["workload"], _name, group.name, str(rank)))
        calls.append((key, _kernel, args))
        return _kernel(*args)

    setattr(_kernels, name, kept)
for workload in json.loads(sys.argv[4]):
    current["workload"] = workload
    if workload == "walk":
        argvs = list(walk_cases())
    else:
        argvs = [list(query.argv) for query in queries.build(workload, seed)]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            sys.exit(f"{argv} exited {code}")
for name, kernel in kernels.items():
    setattr(_kernels, name, kernel)
digest = hashlib.sha256()
for key, kernel, args in calls:
    digest.update(repr((key, kernel(*args).tolist())).encode())
keys = list(dict.fromkeys(key for key, _, _ in calls))
print(json.dumps({"keys": keys, "calls": [key for key, _, _ in calls],
                  "digest": digest.hexdigest()}), flush=True)
clock = time.perf_counter
for line in sys.stdin:
    seconds = dict.fromkeys(keys, 0.0)
    gc.collect()
    for key, kernel, args in calls:
        start = clock()
        kernel(*args)
        seconds[key] += clock() - start
    print(json.dumps(seconds), flush=True)
"""


def start(src: str, seed: int):
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, src, str(seed), str(QUERIES), json.dumps(WORKLOADS)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    setup = child.stdout.readline()
    if not setup:
        child.wait()
        sys.exit(f"the child for {src} exited {child.returncode} during setup")
    return child, json.loads(setup)


def one_round(child) -> dict:
    child.stdin.write("round\n")
    child.stdin.flush()
    return json.loads(child.stdout.readline())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    old, old_setup = start(args.old_src, args.seed)
    new, new_setup = start(args.new_src, args.seed)
    try:
        if old_setup["calls"] != new_setup["calls"]:
            print("the trees make different kernel calls on the same queries")
            return 1
        samples = {"old": [], "new": []}
        for r in range(args.rounds):
            order = (("new", new), ("old", old)) if r % 2 else (("old", old), ("new", new))
            for side, child in order:
                samples[side].append(one_round(child))
    finally:
        for child in (old, new):
            child.stdin.close()
            child.wait()
    calls = {key: old_setup["calls"].count(key) for key in old_setup["keys"]}
    rows = []
    for key, count in calls.items():
        workload, kernel, group, rank = key.split("/")
        per_call = {
            side: [s[key] / count * 1e6 for s in samples[side]] for side in samples
        }
        old_us, new_us = (statistics.median(per_call[s]) for s in ("old", "new"))
        wins = sum(n < o for o, n in zip(per_call["old"], per_call["new"]))
        rows.append({
            "workload": workload, "kernel": kernel, "group": group, "rank": int(rank),
            "calls": count, "old_us": round(old_us, 1), "new_us": round(new_us, 1),
            "ratio": round(old_us / new_us, 3), "new_wins": f"{wins}/{args.rounds}",
        })
    header = ("workload", "kernel", "group", "rank", "calls", "old_us", "new_us", "ratio",
              "new_wins")
    print("  ".join(f"{h:>19}" if i < 2 else f"{h:>8}" for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(
            f"{row[h]:>19}" if i < 2 else f"{row[h]:>8}" for i, h in enumerate(header)
        ))
    identical = old_setup["digest"] == new_setup["digest"]
    print("results identical" if identical else "RESULTS DIFFER")
    print(json.dumps({"seed": args.seed, "rounds": args.rounds, "identical": identical,
                      "rows": rows}))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
