"""The behaviour contract: every CLI run whose output is pinned, in order.

``runs(tmp)`` lists the ``main(argv)`` calls.  ``tests/test_contract.py``
runs each in process and checks a digest of their output in tier-1;
``python3 tools/compare_outputs.py OLD_SRC NEW_SRC`` runs each on two
source trees and prints every difference.  Only the error runs import the
package, from this checkout's ``src/``, to write their character tables,
so one list serves both trees.  The group and table files of the error
runs are written into ``tmp``.

Every base run goes once with ``--format json`` and once with ``--format
human``.  Help and usage runs go once each, and are meant to run with
``COLUMNS=80``, so that argparse wraps its text alike everywhere.
"""

from __future__ import annotations

import ast
import random
import sys
from pathlib import Path

from square_words import SINGLE_AFTER_SQUARE, UNUSED_NAMES, square_words, twice_word

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
FORMATS = ("json", "human")

# expand runs every corpus and tambour word over these, with and without --verify
EXPAND_GROUPS = ("S3", "Q8", "A4", "D5", "Z5")
# tambour words y1..yn*y1^-1..yn^-1
TAMBOUR_SIZES = range(1, 7)
# long words in which every letter occurs twice: 40 to 400 letters, three
# words per size, the first orientable (every letter dismissible, so genus
# prints) and the others with random signs, where the square steps cascade
LONG_SIZES = (20, 50, 100, 200)
LONG_WORDS_PER_SIZE = 3

# bad words and alphabets: each run exits 1 with one error line; among them
# each rejected edge of the word grammar that tests/test_words.py pins: a
# space after an exponent's sign, a zero exponent, a second exponent, a
# symbol that starts with "_", a stray ",", an empty "()" or bracket half,
# and a word or power past the letter cap
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
# accepted edges of the grammar, over the alphabet they infer and an explicit
# one: whitespace around "^", a "+" sign, leading zeros, a leading, trailing
# or doubled "*", "1" juxtaposed with a name, Unicode and underscored names,
# and a run split greedily into names
PARSE_TEXTS = (
    "x ^ -2", "x^+2", "x^0007", "*x", "x*", "x**y", "1x", "x*1", "x y", "\u03b1*\u03b2^-1",
    "x_1*x_1", "x1y", "[x,y]^-1",
)
PARSE_RUNS = tuple(
    ["reduce", text, *alphabet]
    for text in PARSE_TEXTS
    for alphabet in ([], ["--alphabet", "x,y,x1,x_1,\u03b1,\u03b2"])
)

# reduce on long words no workload query takes: the two-occurrence and
# general-letter cascade words of square_words (100 to 400 letters, runs in
# the intermediate words, an --alphabet with unused names that contain "^"),
# and short words whose square step makes a run at a splice join
SEAM_RUNS = ("x*y*x^-1*y", "y*x*y*x^-1", "x*x*y*x^-1*y", "x^-1*y*z*x*y*z")
REDUCE_RUNS = (
    *(["reduce", text, "--alphabet", ",".join(names)] for text, names in square_words()),
    *(["reduce", text, "--alphabet", "x,y,z,x^-1,x^2"] for text in SEAM_RUNS),
)
# a square step leaves a generator with one letter, so the single rule fires
# only after the square rule: reduce, genus (a "single letter" error) and
# expand --verify over S3, over the alphabet the word infers and with unused
# names added
SINGLE_RUNS = tuple(
    [command, text, *alphabet, *options]
    for text, names in SINGLE_AFTER_SQUARE
    for alphabet in ([], ["--alphabet", ",".join(names + UNUSED_NAMES)])
    for command, *options in (["reduce"], ["genus"], ["expand", "--group", "S3", "--verify"])
)

# 24^6 oracle assignments, past the default budget of 10^7: the error names it
BUDGET_RUN = ["expand", "[x1,x2]*[x3,x4]*[x5,x6]", "--group", "S4", "--verify"]
# the top-level help and each subcommand's, whose text lists the built-in groups
HELP_RUNS = (
    ["--help"],
    *([command, "--help"] for command in ("classify", "reduce", "expand", "bench", "genus")),
)
# argv that argparse refuses (exit 1, usage on stderr) or answers with help:
# an unknown option before the subcommand, after it and after the word,
# --group with no value, --format xml, an extra positional, an unknown and no
# subcommand, --tol nan, --budget -1, expand with no word, an abbreviation of
# --help, and --seed, refused since a computed character table takes no seed
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

# kernel paths no workload query takes: no generator present, a lone
# generator, and seven residual words, whose 5^7 classes of S4 and 12^7 of
# Z12 exceed the dense tally, so it sorts and merges its tuples
SEVEN_WORDS = "y1*y2*y3*y4*y5*y6*a*y6^-1*a*y5^-1*a*y4^-1*a*y3^-1*a*y2^-1*a*y1^-1*a"
KERNEL_RUNS = (
    ["expand", "1", "--alphabet", "x,y", "--group", "Q8", "--verify"],
    ["expand", "x^3", "--group", "A4", "--verify"],
    ["expand", SEVEN_WORDS, "--group", "S4"],
    ["expand", SEVEN_WORDS, "--group", "Z12"],
)

# the exact column away from the default --tol: 0.2 on the empty word, wide
# enough to hold two multiples of chi(1)/|G|, 0 on a closed form, 0.01 and 0
# on residual forms
TOL_RUNS = (
    ["expand", "1", "--group", "S3", "--tol", "0.2"],
    ["expand", "[x,y]", "--group", "S4", "--tol", "0"],
    ["expand", "x^3*y^3", "--group", "D5", "--tol", "0.01"],
    ["expand", "x^3*y^3", "--group", "S3", "--tol", "0"],
)
# residual forms whose trivial row, 24^11 and 24^13, lies where floats are
# spaced wider than --tol, so the exact column leaves it blank
SPACING_RUNS = tuple(
    ["expand", "x^3*y^3*" + "*".join(f"a{i}^2" for i in range(squares)), "--group", "S4"]
    for squares in (10, 12)
)


def corpus() -> tuple:
    """``tests/corpus.py``'s CORPUS, read without importing the package."""
    tree = ast.parse((ROOT / "tests" / "corpus.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CORPUS"]:
            return ast.literal_eval(node.value)
    sys.exit("no CORPUS in tests/corpus.py")


def words() -> list[tuple[str, list[str]]]:
    """(text, alphabet argv) of every corpus word, over its corpus alphabet,
    and of every tambour word."""
    out = [(text, ["--alphabet", ",".join(names)] if names else []) for _, text, names in corpus()]
    for n in TAMBOUR_SIZES:
        ys = [f"y{i + 1}" for i in range(n)]
        out.append(("*".join(ys + [f"{y}^-1" for y in ys]), []))
    return out


def word_runs() -> list[list[str]]:
    """classify, reduce and genus on every word of :func:`words`, and expand
    on each over EXPAND_GROUPS, with and without --verify."""
    out = []
    for text, alphabet in words():
        out.extend([command, text, *alphabet] for command in ("classify", "reduce", "genus"))
        out.extend(
            ["expand", text, *alphabet, "--group", group, *verify]
            for group in EXPAND_GROUPS
            for verify in ([], ["--verify"])
        )
    return out


def long_runs() -> list[list[str]]:
    """classify, reduce and genus on the seeded long words, over the
    alphabet each infers."""
    out = []
    for n in LONG_SIZES:
        rng = random.Random(f"long:{n}")
        for i in range(LONG_WORDS_PER_SIZE):
            text, _ = twice_word(rng, n, orientable=i == 0)
            out.extend([command, text] for command in ("classify", "reduce", "genus"))
    return out


def workload_runs() -> list[list[str]]:
    """Every query of the three benchmark workloads at seeds 1-3, as
    ``perfbench/queries.py`` builds them, then the first symbolic-mix seed-1
    ``expand`` over S3 without --verify at ``--tol 0``: a closed form
    |G|^39*FS^39/chi(1)^39 times chi(1), whose rows lie past 2^53."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import queries

    out = [
        list(query.argv)
        for workload in queries.WORKLOADS
        for seed in SEEDS
        for query in queries.build(workload, seed)
    ]
    closed_form = next(
        q.argv for q in queries.build("symbolic-mix", 1)
        if q.argv[0] == "expand" and "S3" in q.argv and "--verify" not in q.argv
    )
    out.append([*closed_form[:2], "--group", "S3", "--tol", "0"])
    return out


def error_runs(tmp: Path) -> list[list[str]]:
    """``expand`` runs on group and table files written into ``tmp`` from
    the shipped S3 data and the computed S3 and Z6 tables.  All but two fail
    to load a group or a table: an unknown --group, --group with
    --group-file, a missing, a badly headed and an out-of-range .grp, a
    loop of order 256 that is not associative, a loop of order 5 with a
    one-sided inverse, a .grp of order 0, a .chtab whose classes are not
    the group's, .chtab files with a NaN or an infinite value, and Z6's
    table with two rows mixed by a unitary matrix, which passes
    orthogonality but is not a character table.  The two that load are
    --verify on S3xS3, whose table is computed, and on S3 under a name that
    holds '"' and a backslash, which the JSON writer escapes."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from wordfourier import builtin_group, compute_character_table
    from wordfourier.chartable import save_character_table

    def table_lines(name: str) -> list[str]:
        save_character_table(compute_character_table(builtin_group(name)), tmp / f"{name}.chtab")
        return (tmp / f"{name}.chtab").read_text(encoding="ascii").splitlines()

    grp = (ROOT / "src/wordfourier/data/groups/S3.grp").read_text(encoding="ascii").splitlines()
    chtab = table_lines("S3")

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

    # rows 1 and 3 of Z6's table mixed by the unitary (1/2)[[1+i, 1-i], [1-i, 1+i]]
    z6 = table_lines("Z6")
    row1, row3 = ([complex(t.replace("i", "j")) for t in z6[r].split()] for r in (4, 6))
    mixed = ([(a * x + b * y) / 2 for x, y in zip(row1, row3)]
             for a, b in ((1 + 1j, 1 - 1j), (1 - 1j, 1 + 1j)))
    z6[4], z6[6] = (" ".join(f"{z.real:+.15f}{z.imag:+.15f}i" for z in row) for row in mixed)

    files = {
        "S3.grp": grp,
        "bad-header.grp": ["grp S3 order 6", *grp[1:]],
        "past-int64.grp": [grp[0], grp[1].rsplit(" ", 1)[0] + " " + "9" * 23, *grp[2:]],
        "S3xS3.grp": group_lines("S3xS3", s3xs3),
        "order-zero.grp": ["group G order 0"],
        "escaped-name.grp": group_lines('S3"quoted\\slashed', s3),
        "loop-256.grp": group_lines("loop256", xor_loop),
        "one-sided-inverse.grp": group_lines("loop5", one_sided),
        "nan-class-1.chtab": with_value(1, "+nan"),
        "nan-class-2.chtab": with_value(2, "+nan"),
        "inf-class-1.chtab": with_value(1, "+inf"),
        "Z6-mixed-rows.chtab": z6,
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
        ["expand", "x^3", "--group", "Z6", "--table-file", str(tmp / "Z6-mixed-rows.chtab")],
    ]


def runs(tmp: Path) -> list[list[str]]:
    """Every argv of the contract, in order."""
    base = [
        *workload_runs(),
        *word_runs(),
        *long_runs(),
        *KERNEL_RUNS,
        BUDGET_RUN,
        *error_runs(tmp),
        *WORD_ERRORS,
        *PARSE_RUNS,
        *REDUCE_RUNS,
        *SINGLE_RUNS,
        *TOL_RUNS,
        *SPACING_RUNS,
    ]
    out = []
    for argv in base:
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2 :]
        out.extend(argv + ["--format", fmt] for fmt in FORMATS)
    # the fixed workload queries repeat at every seed: each argv runs once
    unique = dict.fromkeys(map(tuple, [*out, *HELP_RUNS, *USAGE_RUNS]))
    return [list(argv) for argv in unique]
