#!/usr/bin/env python3
"""Compare the CLI output of two source trees, run by run.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``wordfourier`` package,
such as the ``src/`` of two checkouts.  Each tree runs, in its own
process, the same list of ``main(argv)`` calls:

* every query of the three benchmark workloads at seeds 1-3, as
  ``perfbench/queries.py`` of this checkout builds them;
* ``classify``, ``reduce`` and ``genus`` on every word of
  ``tests/corpus.py``, over its corpus alphabet;

each once with ``--format json`` and once with ``--format human``.  The
first run whose exit code, stdout or stderr differs between the trees is
printed, with its first differing line, and the exit status is 1; with
no difference it is 0.  An exception that escapes ``main`` is recorded as
that run's exit code.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
FORMATS = ("json", "human")

# run in a fresh interpreter per tree: argv lists on stdin, one
# [exit code, stdout, stderr] per run as JSON on stdout
RUNNER = r"""
import contextlib, io, json, sys
from pathlib import Path
package = Path(sys.argv[1], "wordfourier").resolve()
sys.path.insert(0, sys.argv[1])
import wordfourier
if Path(wordfourier.__file__).resolve().parent != package:
    sys.exit(f"wordfourier imported from {wordfourier.__file__}, not {package}")
from wordfourier.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def corpus() -> tuple:
    """``tests/corpus.py``'s CORPUS, read without importing the package."""
    tree = ast.parse((ROOT / "tests" / "corpus.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CORPUS"]:
            return ast.literal_eval(node.value)
    sys.exit("no CORPUS in tests/corpus.py")


def runs() -> list[list[str]]:
    """Every argv both trees run, in order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import queries

    base = [
        list(query.argv)
        for workload in queries.WORKLOADS
        for seed in SEEDS
        for query in queries.build(workload, seed)
    ]
    for _, text, names in corpus():
        alphabet = ["--alphabet", ",".join(names)] if names else []
        base.extend([command, text, *alphabet] for command in ("classify", "reduce", "genus"))
    out = []
    for argv in base:
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2 :]
        out.extend(argv + ["--format", fmt] for fmt in FORMATS)
    return out


def run_tree(src: str, argvs: list[list[str]]) -> list[list]:
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, src],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode:
        sys.exit(f"running {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(old: str, new: str) -> str:
    old_lines, new_lines = str(old).split("\n"), str(new).split("\n")
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a != b:
            return f"line {number}:\n  old: {a!r}\n  new: {b!r}"
    number = min(len(old_lines), len(new_lines)) + 1
    return f"line {number}: one side ends ({len(old_lines)} vs {len(new_lines)} lines)"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    old_src, new_src = args
    argvs = runs()
    old, new = run_tree(old_src, argvs), run_tree(new_src, argvs)
    for argv, old_run, new_run in zip(argvs, old, new):
        for field, a, b in zip(("exit code", "stdout", "stderr"), old_run, new_run):
            if a != b:
                print(f"{field} differs on {argv}: {first_difference(a, b)}")
                return 1
    print(f"{len(argvs)} runs: exit code, stdout and stderr identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
