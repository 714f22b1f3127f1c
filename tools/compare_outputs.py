#!/usr/bin/env python3
"""Compare the CLI output of two source trees, run by run.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``wordfourier`` package,
such as the ``src/`` of two checkouts.  Each tree runs, in its own
process and with ``COLUMNS=80``, every ``main(argv)`` call that
``tools/contract_runs.py`` lists, the behaviour contract that
``tests/test_contract.py`` digests.  Every run whose exit code, stdout or
stderr differs between the trees is printed, with its first differing
field and line, and the exit status is 1; with no difference it is 0.  An
exception that escapes ``main`` is recorded as that run's exit code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from contract_runs import runs


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


def run_tree(src: str, argvs: list[list[str]]) -> list[list]:
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, src],
        input=json.dumps(argvs),
        env=dict(os.environ, COLUMNS="80"),  # help text wraps to it
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
    with tempfile.TemporaryDirectory() as tmp:
        argvs = runs(Path(tmp))
        old, new = run_tree(old_src, argvs), run_tree(new_src, argvs)
    differing = 0
    for argv, old_run, new_run in zip(argvs, old, new):
        for field, a, b in zip(("exit code", "stdout", "stderr"), old_run, new_run):
            if a != b:
                print(f"{field} differs on {argv}: {first_difference(a, b)}")
                differing += 1
                break
    if differing:
        print(f"{len(argvs)} runs: {differing} differ")
        return 1
    print(f"{len(argvs)} runs: exit code, stdout and stderr identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
