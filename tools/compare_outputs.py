#!/usr/bin/env python3
"""Compare the CLI output of two source trees, run by run.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``wordfourier`` package,
such as the ``src/`` of two checkouts.  Each tree runs, in its own
process, the same list of ``main(argv)`` calls:

* every query of the three benchmark workloads at seeds 1-3, as
  ``perfbench/queries.py`` of this checkout builds them;
* ``classify``, ``reduce`` and ``genus`` on every word of
  ``tests/corpus.py``, over its corpus alphabet, and ``expand --verify``
  on each over S3 and Q8;
* ``expand`` runs on kernel paths no workload query takes
  (``KERNEL_RUNS``): no generator present, a lone generator, and a tally
  past the dense table that sorts and merges its tuples;
* an ``expand --verify`` whose oracle needs more than the default
  ``--budget``, so its error names that budget (``BUDGET_RUN``);
* ``expand`` runs that fail to load a group or a character table: an
  unknown ``--group``, ``--group`` with ``--group-file``, a missing, a
  badly headed and an out-of-range ``.grp``, a ``.grp`` of order 0, a
  loop of order 256 that is not associative, a loop of order 5 with a
  one-sided inverse, a ``.chtab`` whose classes are not the group's, and
  ``.chtab`` files with a NaN or an infinite value; ``expand --verify`` on
  S3xS3 from a ``.grp``, whose character table is computed; and
  ``expand --verify`` on S3 from a ``.grp`` whose group name holds '"'
  and a backslash, which the JSON writer escapes.  All are written once
  from the shipped S3 data into one temporary directory that both trees
  read;
* ``reduce`` runs that fail to parse their word or ``--alphabet``
  (``WORD_ERRORS``), among them each rejected edge of the word grammar
  that ``tests/test_words.py`` pins: a space after an exponent's sign, a
  zero exponent, a second exponent, a symbol that starts with "_", a
  stray ",", an empty "()" or bracket half, and a word or power past the
  letter cap;
* ``reduce`` on each accepted edge of the word grammar that
  ``tests/test_words.py`` pins, over the alphabet it infers and over an
  explicit one (``PARSE_RUNS``): whitespace around "^", a "+" sign,
  leading zeros, a leading, trailing or doubled "*", "1" juxtaposed with
  a name, Unicode and underscored names, and a run split greedily into
  names;
* ``reduce`` on long words that no workload query takes
  (``REDUCE_RUNS``): the two-occurrence and general-letter cascade words
  of ``tools/square_words.py`` (100 to 400 letters, runs in the intermediate
  words, an ``--alphabet`` with unused names that contain "^"), and short
  words whose square step makes a run at a splice join;
* ``reduce``, ``genus`` (a "single letter" error) and ``expand --verify``
  over S3 on the words of ``SINGLE_AFTER_SQUARE`` in
  ``tools/square_words.py``, where the single rule fires only after a
  square step, over the alphabet they infer and with unused names added
  (``SINGLE_RUNS``);
* ``expand`` at a ``--tol`` other than the default (``TOL_RUNS``): 0.2
  on the empty word over S3, wide enough to hold two multiples of
  chi(1)/|G|, 0 on ``[x,y]`` over S4, 0.01 on ``x^3*y^3`` over D5, and 0
  on the seed-1 symbolic-mix word over S3, a closed form whose rows lie
  past 2^53 (``CLOSED_FORM_RUN``);

each once with ``--format json`` and once with ``--format human``;
``--help`` of the top-level parser and of each of the five subcommands
(``HELP_RUNS``), whose text lists the built-in groups; and command lines
that argparse refuses or answers with help (``USAGE_RUNS``): an unknown
option before the subcommand, after it and after the word, ``--group``
with no value, ``--format xml``, an extra positional, an unknown and no
subcommand, ``--tol nan``, ``--budget -1``, ``expand`` with no word and
``expand --he``, an abbreviation of ``--help``, and ``expand --seed 0``,
refused since a computed character table takes no seed.  Help and usage
runs have ``COLUMNS`` fixed so both trees wrap their text alike.  Every
run whose exit code, stdout or stderr differs between the trees is
printed, with its first differing field and line, and the exit status is
1; with no difference it is 0.  An exception that escapes ``main`` is
recorded as that run's exit code.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from square_words import SINGLE_AFTER_SQUARE, UNUSED_NAMES, square_words

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
FORMATS = ("json", "human")
# bad words and alphabets: each run exits 1 with one error line
WORD_ERRORS = (
    ["reduce", ""],
    ["reduce", "[x,y"],
    ["reduce", "x^0"],
    ["reduce", "x^9999999"],
    ["reduce", "x^\u00b2"],
    ["reduce", "x^2\u00b2"],
    ["reduce", "ab", "--alphabet", "a,c"],
    ["reduce", "x", "--alphabet", "x,x"],
    *(["reduce", text] for text in (
        "x^- 2", "x*y^0", "x^3*y^0", "x^-0", "x^2^3", "(x)^2^3", "_x", "x,y", "()", "[,x]",
        "x*y^1000000", "x^12345678",
    )),
)
# accepted edges of the grammar, over the alphabet they infer and an explicit one
PARSE_TEXTS = (
    "x ^ -2", "x^+2", "x^0007", "*x", "x*", "x**y", "1x", "x*1", "x y", "\u03b1*\u03b2^-1",
    "x_1*x_1", "x1y", "[x,y]^-1",
)
PARSE_RUNS = tuple(
    ["reduce", text, *alphabet]
    for text in PARSE_TEXTS
    for alphabet in ([], ["--alphabet", "x,y,x1,x_1,\u03b1,\u03b2"])
)

# square steps that make a run at a splice join, over an alphabet with power-like names
SEAM_RUNS = ("x*y*x^-1*y", "y*x*y*x^-1", "x*x*y*x^-1*y", "x^-1*y*z*x*y*z")
REDUCE_RUNS = (
    *(["reduce", text, "--alphabet", ",".join(names)] for text, names in square_words()),
    *(["reduce", text, "--alphabet", "x,y,z,x^-1,x^2"] for text in SEAM_RUNS),
)
# a square step leaves a generator with one letter
SINGLE_RUNS = tuple(
    [command, text, *alphabet, *options]
    for text, names in SINGLE_AFTER_SQUARE
    for alphabet in ([], ["--alphabet", ",".join(names + UNUSED_NAMES)])
    for command, *options in (["reduce"], ["genus"], ["expand", "--group", "S3", "--verify"])
)

# 24^6 oracle assignments, past the default budget of 10^7
BUDGET_RUN = ["expand", "[x1,x2]*[x3,x4]*[x5,x6]", "--group", "S4", "--verify"]
HELP_RUNS = (
    ["--help"],
    *([command, "--help"] for command in ("classify", "reduce", "expand", "bench", "genus")),
)
# argv that argparse refuses (exit 1, usage on stderr) or answers with help
USAGE_RUNS = (
    ["--bogus", "expand", "[x,y]", "--group", "S3"],
    ["expand", "--bogus", "[x,y]", "--group", "S3"],
    ["expand", "[x,y]", "--group", "S3", "--bogus"],
    ["expand", "[x,y]", "--group"],
    ["expand", "[x,y]", "--group", "S3", "--format", "xml"],
    ["expand", "[x,y]", "extra", "--group", "S3"],
    ["expnd", "[x,y]", "--group", "S3"],
    [],
    ["expand", "[x,y]", "--group", "S3", "--tol", "nan"],
    ["expand", "[x,y]", "--group", "S3", "--budget", "-1"],
    ["expand", "--group", "S3"],
    ["expand", "--he"],
    ["expand", "x^2", "--group", "S3", "--seed", "0"],
)

# seven residual words: 5^7 classes of S4 and 12^7 of Z12 exceed the dense tally
SEVEN_WORDS = "y1*y2*y3*y4*y5*y6*a*y6^-1*a*y5^-1*a*y4^-1*a*y3^-1*a*y2^-1*a*y1^-1*a"
KERNEL_RUNS = (
    ["expand", "1", "--alphabet", "x,y", "--group", "Q8", "--verify"],
    ["expand", "x^3", "--group", "A4", "--verify"],
    ["expand", SEVEN_WORDS, "--group", "S4"],
    ["expand", SEVEN_WORDS, "--group", "Z12"],
)

# the exact column away from the default --tol
TOL_RUNS = (
    ["expand", "1", "--group", "S3", "--tol", "0.2"],
    ["expand", "[x,y]", "--group", "S4", "--tol", "0"],
    ["expand", "x^3*y^3", "--group", "D5", "--tol", "0.01"],
)

def CLOSED_FORM_RUN(queries) -> list[str]:
    """The first symbolic-mix seed-1 ``expand`` over S3 without --verify,
    a closed form |G|^39*FS^39/chi(1)^39 times chi(1), at ``--tol 0``."""
    argv = next(
        q.argv for q in queries.build("symbolic-mix", 1)
        if q.argv[0] == "expand" and "S3" in q.argv and "--verify" not in q.argv
    )
    return [*argv[:2], "--group", "S3", "--tol", "0"]


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


def error_runs(tmp: Path) -> list[list[str]]:
    """``expand`` runs on group and table files written into ``tmp`` from
    the shipped S3 data; all but the S3xS3 run fail to load one."""
    data = ROOT / "src" / "wordfourier" / "data"
    grp = (data / "groups" / "S3.grp").read_text(encoding="ascii").splitlines()
    chtab = (data / "tables" / "S3.chtab").read_text(encoding="ascii").splitlines()

    def with_value(cell: int, value: str) -> list[str]:
        # row chi = 1; the Frobenius-Schur check reads class 2 through the power map, not 1
        row = chtab[4].split()
        row[cell] = value + "+0.000000000000000i"
        return [*chtab[:4], " ".join(row), *chtab[5:]]

    def group_lines(name: str, table: list[list[int]]) -> list[str]:
        return [f"group {name} order {len(table)}", *(" ".join(map(str, row)) for row in table)]

    s3 = [[int(x) for x in row.split()] for row in grp[1:]]
    # (a, b) is 6a + b, and (a, b)(c, d) = (ac, bd)
    s3xs3 = [[6 * s3[a][c] + s3[b][d] for c in range(6) for d in range(6)]
             for a in range(6) for b in range(6)]
    # Z2^8 under XOR with the intercalate at rows 1, 7 and columns 2, 4 switched
    xor_loop = [[g ^ h for h in range(256)] for g in range(256)]
    for row in (1, 7):
        xor_loop[row][2], xor_loop[row][4] = xor_loop[row][4], xor_loop[row][2]
    # 2*3 = 0 but 3*2 = 1
    one_sided = [
        [0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]
    ]

    files = {
        "S3.grp": grp,
        "bad-header.grp": ["grp S3 order 6", *grp[1:]],
        "past-int64.grp": [grp[0], grp[1].rsplit(" ", 1)[0] + " " + "9" * 23, *grp[2:]],
        "S3xS3.grp": group_lines("S3xS3", s3xs3),
        "order-zero.grp": ["group G order 0"],
        "escaped-name.grp": group_lines('S3"quoted\\slashed', s3),
        "loop-256.grp": group_lines("loop256", xor_loop),
        "one-sided-inverse.grp": group_lines("loop5", one_sided),
        "S3.chtab": chtab,
        "nan-class-1.chtab": with_value(1, "+nan"),
        "nan-class-2.chtab": with_value(2, "+nan"),
        "inf-class-1.chtab": with_value(1, "+inf"),
    }
    for name, lines in files.items():
        (tmp / name).write_text("\n".join(lines) + "\n", encoding="ascii")
    group_file = lambda name: ["--group-file", str(tmp / name)]
    table_file = lambda name: ["--group", "S3", "--table-file", str(tmp / name), "--verify"]
    return [
        ["expand", "[x,y]", "--group", "M12"],
        ["expand", "[x,y]", "--group", "S3", *group_file("S3.grp")],
        ["expand", "[x,y]", *group_file("missing.grp")],
        ["expand", "[x,y]", *group_file("bad-header.grp")],
        ["expand", "[x,y]", *group_file("past-int64.grp")],
        ["expand", "[x,y]", *group_file("loop-256.grp")],
        ["expand", "[x,y]", *group_file("one-sided-inverse.grp")],
        ["expand", "[x,y]", *group_file("S3xS3.grp"), "--verify"],
        ["expand", "[x,y]", *group_file("order-zero.grp")],
        ["expand", "[x,y]*x^3", *group_file("escaped-name.grp"), "--verify"],
        ["expand", "[x,y]", "--group", "Z3", "--table-file", str(tmp / "S3.chtab")],
        ["expand", "[x,y]", *table_file("nan-class-1.chtab")],
        ["expand", "[x,y]", *table_file("nan-class-2.chtab")],
        ["expand", "x^3*y^3", *table_file("inf-class-1.chtab")],
    ]


def runs(tmp: Path) -> list[list[str]]:
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
        base.extend(["expand", text, *alphabet, "--group", g, "--verify"] for g in ("S3", "Q8"))
    base.extend(KERNEL_RUNS)
    base.append(BUDGET_RUN)
    base.extend(error_runs(tmp))
    base.extend(WORD_ERRORS)
    base.extend(PARSE_RUNS)
    base.extend(REDUCE_RUNS)
    base.extend(SINGLE_RUNS)
    base.extend(TOL_RUNS)
    base.append(CLOSED_FORM_RUN(queries))
    out = []
    for argv in base:
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2 :]
        out.extend(argv + ["--format", fmt] for fmt in FORMATS)
    out.extend(HELP_RUNS)
    out.extend(USAGE_RUNS)
    return out


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
