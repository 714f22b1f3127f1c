"""CLI surface: commands, output formats, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wordfourier
from wordfourier import (
    CharacterComputationError,
    CharacterTable,
    coefficient_formula,
    normalize,
    parse_word,
)
from wordfourier.chartable import save_character_table
from wordfourier.cli import main
from wordfourier.groups import save_group
from wordfourier.reduction import split_dismissible

from corpus import form_from_split, group_and_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MAIN = "import sys\nfrom wordfourier.cli import main\nsys.exit(main(sys.argv[1:]))"
# ``main`` and then, on stderr, whether numpy got loaded
MAIN_THEN_NUMPY = (
    "import sys\nfrom wordfourier.cli import main\ncode = main(sys.argv[1:])\n"
    "sys.stderr.write(str('numpy' in sys.modules))\nsys.exit(code)"
)


def fresh_env():
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(wordfourier.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def run_fresh(*argv, program=MAIN):
    """The same call in a new interpreter, with nothing loaded before it."""
    done = subprocess.run(
        [sys.executable, "-c", program, *argv],
        capture_output=True, text=True, env=fresh_env(), timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


class TestClassify:
    def test_commutator(self, capsys):
        code, out, _ = run(capsys, "classify", "[x,y]")
        assert code == 0
        assert out.count("dismissible") == 2

    def test_brace(self, capsys):
        code, out, _ = run(capsys, "classify", "{x,y}")
        assert code == 0
        assert "square" in out and "dismissible" in out

    def test_single(self, capsys):
        code, out, _ = run(capsys, "classify", "x")
        assert code == 0 and "single" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "classify", "{x,y}", "--format", "json")
        doc = json.loads(out)
        assert doc["generators"][0]["classification"] == "square"


class TestReduce:
    def test_commutator_product(self, capsys):
        code, out, _ = run(capsys, "reduce", "[y1,y2][y3,y4]")
        assert code == 0
        assert "closed form: |G|^3/chi(1)^3" in out
        assert "W1 = 1" in out

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "reduce", "x")
        assert code == 0 and "delta[chi=1]" in out

    def test_intro_example_split_data(self, capsys):
        # squares x2, y3, y1 go first; the split of y2 is left
        word = "x1*y1*x1*x2*y3*x2*x1*y1^-1*x1^3*y2*x3^-1*y3^-1*x3^2*y2^-1*x3"
        code, out, _ = run(capsys, "reduce", word)
        assert code == 0
        assert "W1 = x1^4*x3" in out
        assert "W2 = x3^-1*x1^-2*x3^2" in out
        assert "|G|^3*FS^3/chi(1)^4" in out
        assert "tau" in out and "cycles" in out

    def test_json_has_split_block(self, capsys):
        code, out, _ = run(capsys, "reduce", "[x,y]", "--format", "json")
        doc = json.loads(out)
        assert doc["split"]["n"] == 2 and doc["split"]["r"] == 1
        assert "order" not in doc

    def test_order_option_is_gone(self, capsys):
        code, _, _ = run(capsys, "reduce", "[x,y]", "--order", "square-first")
        assert code == 1


# seed-1 query of the symbolic-mix benchmark workload over S3: a closed form
# with prefactor |G|^39*FS^39/chi(1)^39 and one empty residual word, so row
# chi is 6^39/chi(1)^38, past 2^53 on every row
CLOSED_FORM_PAST_2_53 = (
    "x37*x26*x30*x31^-1*x32*x28*x5^-1*x16*x30*x9*x29*x4*x2^-1*x15*x14*x6*x18*x19*x36*"
    "x19^-1*x31^-1*x33*x18^-1*x11*x7^-1*x29*x28^-1*x25^-1*x33^-1*x12^-1*x8*x11^-1*x27*"
    "x35*x27*x26*x36^-1*x25^-1*x17^-1*x40*x21^-1*x39^-1*x21^-1*x38*x15*x8^-1*x13*x13*"
    "x22*x35^-1*x10*x14^-1*x23*x24*x16^-1*x24*x22*x39^-1*x4^-1*x1*x12^-1*x37^-1*x3^-1*"
    "x3^-1*x32^-1*x40^-1*x5^-1*x34*x10^-1*x6*x7^-1*x9^-1*x38^-1*x20*x1^-1*x34^-1*"
    "x17^-1*x2^-1*x23*x20^-1"
)


class TestExpand:
    def test_closed_forms_past_2_53_are_exact(self, capsys):
        # the float coefficients are 2227915756473955671925827043328 and
        # 8105110306037952512, which an annotation rounded from them repeats
        exact = [str(6**39), str(6**39), str(2 * 3**39)]
        code, out, _ = run(
            capsys, "expand", CLOSED_FORM_PAST_2_53, "--group", "S3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["rational"] for r in rows] == exact
        assert [r["display"] for r in rows] == exact
        assert rows[0]["coefficient"] == [float(6**39), 0.0]
        code, out, _ = run(capsys, "expand", CLOSED_FORM_PAST_2_53, "--group", "S3")
        assert code == 0
        for line, value in zip(out.splitlines()[3:], exact):
            assert line.split()[3:] == [value, value]

    @pytest.mark.parametrize("squares", (10, 12))
    def test_residual_rows_past_the_float_spacing_are_not_annotated(self, capsys, squares):
        # x^3*y^3 and one square per a_i: a residual form whose trivial row,
        # |G|^(d-1) for every word, lies where floats are spaced 0.25 or 128
        # apart, wider than --tol; the exact table makes the float exact, but
        # the spacing still leaves it unannotated.  Row 1, where x^3*y^3
        # alone is 0, read 0.225 or 129.7: float noise times |G|^(d-1)
        word = "x^3*y^3*" + "*".join(f"a{i}^2" for i in range(squares))
        code, out, _ = run(capsys, "expand", word, "--group", "S4", "--format", "json")
        assert code == 0
        (trivial, sign, *_) = json.loads(out)["rows"]
        assert trivial["coefficient"][0] == 24 ** (squares + 1)
        assert trivial["rational"] is None
        assert (sign["coefficient"], sign["display"]) == ([0.0, 0.0], "0")

    def test_a_long_residual_sum_over_s4_is_exact(self, capsys):
        # seven residual words multiply the table's values under |G|^5 /
        # chi(1)^6; a float table gave 191102975.99999455 and -2.26e-07
        word = "y1*y2*y3*y4*y5*y6*a*y6^-1*a*y5^-1*a*y4^-1*a*y3^-1*a*y2^-1*a*y1^-1*a"
        code, out, _ = run(capsys, "expand", word, "--group", "S4", "--format", "json")
        assert code == 0
        (trivial, sign, *_) = json.loads(out)["rows"]
        assert trivial["coefficient"] == [24.0**6, 0.0]
        assert trivial["rational"] == trivial["display"] == str(24**6)
        assert (sign["coefficient"], sign["rational"]) == ([0.0, 0.0], "0")

    def test_no_residual_row_is_annotated_at_tol_zero(self, capsys):
        # the coefficients of x^3*y^3 over S3 are the floats 6, 0 and 3, but
        # no float is spaced 0 apart from its neighbours
        code, out, _ = run(
            capsys, "expand", "x^3*y^3", "--group", "S3", "--tol", "0", "--format", "json"
        )
        assert code == 0
        assert [r["rational"] for r in json.loads(out)["rows"]] == [None, None, None]

    @pytest.mark.parametrize(
        "argv, exact",
        (
            (("[x,y]", "--group", "S4"), ["24", "24", "12", "8", "8"]),
            (("x", "--alphabet", "x,y", "--group", "S3"), ["6", "0", "0"]),  # trivial only
            (("1", "--group", "S3"), ["1/6", "1/6", "1/3"]),
        ),
        ids=("split", "trivial-only", "empty-word"),
    )
    def test_tol_does_not_move_closed_forms(self, capsys, argv, exact):
        for tol in ("0", "1e-6", "0.2", "100"):
            code, out, _ = run(capsys, "expand", *argv, "--tol", tol, "--format", "json")
            assert code == 0
            assert [r["rational"] for r in json.loads(out)["rows"]] == exact, tol

    def test_frobenius_on_s3(self, capsys):
        code, out, _ = run(capsys, "expand", "[x,y]", "--group", "S3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["coefficient"][0] for r in doc["rows"]] == [6.0, 6.0, 3.0]
        assert [r["rational"] for r in doc["rows"]] == ["6", "6", "3"]

    def test_brace_on_z3(self, capsys):
        code, out, _ = run(capsys, "expand", "{x,y}", "--group", "Z3", "--format", "json")
        doc = json.loads(out)
        assert [round(r["coefficient"][0], 6) for r in doc["rows"]] == [3.0, 0.0, 0.0]

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "expand", "1", "--group", "S3", "--format", "json")
        doc = json.loads(out)
        assert [r["rational"] for r in doc["rows"]] == ["1/6", "1/6", "1/3"]

    def test_a_large_tol_picks_the_nearest_multiple_of_degree_over_order(self, capsys):
        # the rows of the empty word on S3 are 1/6, 1/6 and 1/3: each is its
        # own nearest multiple of chi(1)/|G|, whatever --tol allows besides,
        # and a closed form, which is annotated exactly at any --tol
        code, out, _ = run(
            capsys, "expand", "1", "--group", "S3", "--tol", "0.2", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert [r["rational"] for r in doc["rows"]] == ["1/6", "1/6", "1/3"]

    def test_verify_flag(self, capsys):
        code, out, _ = run(capsys, "expand", "{x,y}", "--group", "S3", "--verify")
        assert code == 0
        assert "max |formula - oracle|" in out

    def test_structured_output_is_stable(self, capsys):
        args = ("expand", "[x,y]", "--group", "Q8", "--format", "json", "--verify")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_group_file_and_table_file(self, capsys, tmp_path):
        group, table = group_and_table("D4")
        gpath = tmp_path / "d4.grp"
        tpath = tmp_path / "d4.chtab"
        save_group(group, gpath)
        save_character_table(table, tpath)
        code, out, _ = run(
            capsys,
            "expand",
            "[x,y]",
            "--group-file",
            str(gpath),
            "--table-file",
            str(tpath),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [round(r["coefficient"][0]) for r in doc["rows"]] == [8, 8, 8, 8, 4]

    def test_explicit_alphabet_changes_the_rank(self, capsys):
        code, out, _ = run(
            capsys, "expand", "xy", "--alphabet", "x,y,z", "--group", "S3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["coefficient"][0] == 36.0  # |G|^2 on the trivial row

    def test_group_file_without_table_computes_one(self, capsys, tmp_path):
        group, _ = group_and_table("Z4")
        gpath = tmp_path / "z4.grp"
        save_group(group, gpath)
        code, out, _ = run(
            capsys, "expand", "x^2", "--group-file", str(gpath), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        _, shipped, _ = run(capsys, "expand", "x^2", "--group", "Z4", "--format", "json")
        assert "seed" not in doc
        assert [r["display"] for r in doc["rows"]] == [
            r["display"] for r in json.loads(shipped)["rows"]
        ]

    @pytest.mark.parametrize("verify", ((), ("--verify",)), ids=("formula", "oracle"))
    def test_seventy_generators_of_the_trivial_group(self, capsys, verify):
        # every assignment of Z1 is the identity: the walk takes its 70
        # generators as one row, with no axis of one cell each, which
        # numpy could not hold past 64 dimensions
        word = "*".join(f"x{i}*x{i}*x{i}" for i in range(1, 71))
        code, out, err = run(capsys, "expand", word, "--group", "Z1", "--format", "json", *verify)
        assert (code, err) == (0, "")
        (row,) = json.loads(out)["rows"]
        assert row["coefficient"] == [1.0, 0.0]


class TestBench:
    def test_counts_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys,
            "bench",
            "[x,y]",
            "--group",
            "S4",
            "--csv",
            str(csv_path),
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        by_route = {r["route"]: r for r in doc["routes"]}
        # y occurs twice and is summed out through its fiber table, so the
        # walk covers x alone, one row per class of S4
        assert by_route["oracle"]["assignments"] == 5
        assert list(by_route) == ["oracle", "formula"]
        assert by_route["formula"]["assignments"] == 0
        assert all(r["max_delta"] < 1e-6 for r in doc["routes"])
        text = csv_path.read_text()
        assert text.startswith("route,assignments,seconds,max_delta")
        assert "oracle" in text

    def test_normalize_is_timed_apart(self, capsys, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys, "bench", "x^2*[y,z]", "--group", "S3", "--csv", str(csv_path),
            "--format", "json",
        )
        assert code == 0
        routes = json.loads(out)["routes"]
        assert [r["normalize_seconds"] >= 0 for r in routes] == [True, True]
        assert routes[0]["normalize_seconds"] == 0.0
        assert csv_path.read_text().splitlines()[0].endswith(",normalize_seconds")

    def test_an_unwritable_csv_path_prints_no_report(self, capsys, tmp_path):
        csv_path = tmp_path / "missing" / "bench.csv"
        for fmt in ("human", "json"):
            code, out, err = run(
                capsys, "bench", "[x,y]", "--group", "S3", "--csv", str(csv_path),
                "--format", fmt,
            )
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_human_report_is_a_header_and_one_aligned_line_per_route(self, capsys):
        code, out, _ = run(capsys, "bench", "[x,y]", "--group", "S3", "--format", "human")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "word: x*y*x^-1*y^-1  group: S3  backend: numpy"
        assert lines[1].split() == [
            "route", "assignments", "seconds", "max", "delta", "normalize", "s"
        ]
        assert [line.split()[:2] for line in lines[2:]] == [["oracle", "3"], ["formula", "0"]]
        assert len({len(line) for line in lines[1:]}) == 1

    def test_worked_example_counts(self, capsys):
        word = "x1*y1*x1*x2*y3*x2*x1*y1^-1*x1^3*y2*x3^-1*y3^-1*x3^2*y2^-1*x3"
        code, out, _ = run(capsys, "bench", word, "--group", "S3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        by_route = {r["route"]: r for r in doc["routes"]}
        # y2 and y3, the last two generators to occur twice, are summed
        # out; three of the four walked generators run over the 49 orbits
        # of S3 on triples, times |G| for the fourth.  The formula walks
        # two, over the 11 orbits of S3 on pairs
        assert by_route["oracle"]["assignments"] == 49 * 6
        assert by_route["formula"]["assignments"] == 11

    def test_both_routes_walk_the_same_residual(self, capsys):
        # nothing reduces, so the formula walks the oracle's assignments:
        # the 681 orbits of S4 on triples, times |G| for the fourth generator
        code, out, _ = run(
            capsys, "bench", "[[x,y],[z,w]]", "--group", "S4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["assignments"] for r in doc["routes"]] == [681 * 24] * 2

    def test_formula_agrees_with_the_oracle_to_rounding(self, capsys):
        # the formula contracts the same exact class tally as the oracle
        word = "[[x,y],[z,w]]"
        code, out, _ = run(capsys, "bench", word, "--group", "S4", "--format", "json")
        assert code == 0
        formula = json.loads(out)["routes"][1]
        group, table = group_and_table("S4")
        coefficients = coefficient_formula(normalize(parse_word(word)), group, table)
        assert formula["max_delta"] <= 1e-12 * np.max(np.abs(coefficients))

    def test_square_first_beats_dismissible_first(self, capsys):
        # mixed square/dismissible word: the pipeline's claim, which takes
        # squares first, enumerates fewer assignments than the split alone
        word = "a*x*b*y*x^-1*a*y*b"
        code, out, _ = run(
            capsys,
            "bench",
            word,
            "--group",
            "Z4",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        by_route = {r["route"]: r for r in doc["routes"]}
        split_only = form_from_split(split_dismissible(parse_word(word)))
        assert by_route["formula"]["assignments"] < split_only.summation_count(4)


class TestGenus:
    def test_admissible(self, capsys):
        code, out, _ = run(capsys, "genus", "[y1,y2][y3,y4]", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["n"], doc["r"], doc["genus"]) == (4, 1, 2)

    def test_not_admissible(self, capsys):
        code, _, err = run(capsys, "genus", "x^2")
        assert code == 1 and "not admissible" in err


S3_TABLE = (
    "chartable S3 classes 3\n0 1 2\n1 3 2\n"
    "1+0i 1+0i 1+0i\n1+0i -1+0i 1+0i\n2+0i 0+0i -1+0i\n"
)
# case -> (the built-in group the --table-file is for, or None for a
# --group-file; the file's text; the message, {path} being the file's)
VALIDATION_ERRORS = {
    "table-truncated": ("S3", "chartable S3 classes 3\n0 1 2\n", "{path}: truncated table file"),
    "table-bad-class-count": (
        "S3", S3_TABLE.replace("classes 3", "classes three"), "{path}: bad class count 'three'"
    ),
    "table-wrong-line-count": (
        "S3", S3_TABLE.rsplit("2+0i", 1)[0], "{path}: expected 6 lines, found 5"
    ),
    "table-bad-class-data": ("S3", S3_TABLE.replace("0 1 2", "0 1 x"), "{path}: bad class data"),
    "table-class-count-not-the-groups": (
        "S3",
        "chartable S3 classes 2\n0 1\n1 3\n1+0i 1+0i\n1+0i -1+0i\n",
        "{path}: file has 2 classes, group has 3",
    ),
    "table-short-row": (
        "S3", S3_TABLE.replace("1+0i 1+0i 1+0i", "1+0i 1+0i"), "{path}: row of 2 values != 3"
    ),
    "complex-without-i": (
        "S3", S3_TABLE.replace("-1+0i", "-1+0"), "{path}: bad complex value '-1+0'"
    ),
    "complex-without-a-sign": (
        "S3", S3_TABLE.replace("-1+0i", "5i"), "{path}: bad complex value '5i'"
    ),
    "complex-not-a-number": (
        "S3", S3_TABLE.replace("-1+0i", "1+xi"), "{path}: bad complex value '1+xi'"
    ),
    "table-non-integer-degree": (
        "S3", S3_TABLE.replace("2+0i", "1.5+0i"), "degrees must be positive integers"
    ),
    # orthonormal, with degrees whose squares sum to |G|, but no row of ones
    "table-no-trivial-row": (
        "Z2", "chartable Z2 classes 2\n0 1\n1 1\n1+0i 0+1i\n1+0i 0-1i\n", "no trivial character row"
    ),
    "group-empty": (None, "", "{path}: empty group file"),
    "group-bad-order": (None, "group G order six\n", "{path}: bad order 'six'"),
    "group-short-row": (None, "group G order 2\n0 1\n1\n", "{path}: row of length 1 != 2"),
    "group-entry-out-of-range": (
        None, "group G order 2\n0 1\n1 2\n", "table entries must be element indices"
    ),
    "group-order-zero": (None, "group G order 0\n", "a group has at least one element"),
}


class TestExitCodes:
    def test_parse_error_is_one(self, capsys):
        code, _, err = run(capsys, "classify", "x^0")
        assert code == 1 and "syntax" in err

    def test_word_past_the_letter_cap_is_one(self, capsys):
        code, out, err = run(capsys, "classify", "(x^1000000)" * 2)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "word expands past 1000000 letters" in err

    def test_usage_error_is_one(self, capsys):
        code, _, _ = run(capsys, "expand", "[x,y]")  # no group given
        assert code == 1

    def test_unknown_group_is_one(self, capsys):
        code, _, err = run(capsys, "expand", "[x,y]", "--group", "M12")
        assert code == 1
        assert err == (
            "error: unknown built-in group 'M12'; choose from "
            "A4, D4, D5, Q8, S3, S4, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12\n"
        )

    def test_unknown_subcommand_is_one(self, capsys):
        assert run(capsys, "frobnicate", "x")[0] == 1

    def test_validation_error_is_two(self, capsys, tmp_path):
        group, table = group_and_table("S3")
        gpath = tmp_path / "s3.grp"
        tpath = tmp_path / "bad.chtab"
        save_group(group, gpath)
        save_character_table(table, tpath)
        lines = tpath.read_text().splitlines()
        lines[4] = lines[3]  # duplicate character row
        tpath.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys,
            "expand",
            "[x,y]",
            "--group-file",
            str(gpath),
            "--table-file",
            str(tpath),
        )
        assert code == 2 and "validation" in err

    @pytest.mark.parametrize("case", VALIDATION_ERRORS)
    def test_a_bad_file_is_two(self, capsys, tmp_path, case):
        group, text, message = VALIDATION_ERRORS[case]
        path = tmp_path / "bad"
        path.write_text(text)
        if group is None:
            argv = ("--group-file", str(path))
        else:
            argv = ("--group", group, "--table-file", str(path))
        code, out, err = run(capsys, "expand", "x", *argv)
        assert (code, out) == (2, "")
        assert err == f"validation error: {message.format(path=path)}\n"

    def test_non_finite_table_value_is_two(self, capsys, tmp_path):
        # NaN at class 1, which the power map does not read, passed every
        # check and --verify printed nan with a zero error; NaN at class 2
        # crashed the FS check; inf exited 3 past the float range
        _, table = group_and_table("S3")
        tpath = tmp_path / "bad.chtab"
        for cell, value, word in (
            (1, "+nan", "[x,y]"), (2, "+nan", "[x,y]"), (1, "+inf", "x^3*y^3")
        ):
            save_character_table(table, tpath)
            lines = tpath.read_text().splitlines()
            row = lines[4].split()
            row[cell] = value + row[cell][row[cell].index("+", 1):]
            lines[4] = " ".join(row)
            tpath.write_text("\n".join(lines) + "\n")
            code, out, err = run(
                capsys, "expand", word, "--group", "S3", "--table-file", str(tpath), "--verify"
            )
            assert (code, out) == (2, "")
            assert err == "validation error: character values must be finite\n"

    def test_table_of_non_characters_is_two(self, capsys, tmp_path):
        # Z6's rows 1 and 3 mixed by a unitary matrix pass orthogonality and
        # the indicator check; x^3 printed 0.5+0.5i and 0.5-0.5i on them
        _, table = group_and_table("Z6")
        tpath = tmp_path / "mixed.chtab"
        save_character_table(table, tpath)
        lines = tpath.read_text().splitlines()
        p, q = (1 + 1j) / 2, (1 - 1j) / 2
        for line, row in zip((4, 6), np.array([[p, q], [q, p]]) @ table.values[[1, 3]]):
            lines[line] = " ".join(f"{z.real:+.15f}{z.imag:+.15f}i" for z in row)
        tpath.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "expand", "x^3", "--group", "Z6", "--table-file", str(tpath))
        assert (code, out) == (2, "")
        assert err == (
            "validation error: row 1 is not a character: its eigenvalue multiplicities "
            "on class 1 are not non-negative integers\n"
        )

    def test_group_entry_past_int64_is_two(self, capsys, tmp_path):
        group, _ = group_and_table("S3")
        gpath = tmp_path / "big.grp"
        save_group(group, gpath)
        lines = gpath.read_text().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " 99999999999999999999999"
        gpath.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "expand", "[x,y]", "--group-file", str(gpath))
        assert (code, out) == (2, "")
        assert err == "validation error: table entries must be element indices\n"

    def test_budget_error_is_three(self, capsys):
        code, _, err = run(
            capsys, "expand", "[x,y]", "--group", "S3", "--verify", "--budget", "10"
        )
        assert code == 3 and "budget" in err

    def test_a_closed_form_walks_nothing_and_passes_any_budget(self, capsys):
        # without --verify nothing is enumerated, single letters or not
        for word in ("[x,y]", "x"):
            code, out, err = run(capsys, "expand", word, "--group", "S3", "--budget", "0")
            assert (code, err) == (0, "") and out

    def test_budget_must_be_a_nonnegative_integer(self, capsys):
        # -1 used to reach the oracle and exit 3 with "budget is -1"
        for budget in ("-1", "1e6", "many"):
            code, out, err = run(
                capsys, "expand", "x^2", "--group", "S3", "--verify", "--budget", budget
            )
            assert (code, out) == (1, "") and "argument --budget" in err

    def test_budget_past_int64_is_three(self, capsys):
        # 2^70 assignments overflow int64, so even a larger budget refuses them
        alphabet = ",".join(["x"] + [f"a{i}" for i in range(69)])
        code, _, err = run(
            capsys, "expand", "x", "--alphabet", alphabet, "--group", "Z2",
            "--verify", "--budget", str(10**30),
        )
        assert code == 3 and "budget" in err

    def test_coefficient_past_the_float_range_is_three(self, capsys):
        # 300 squares give |G|^299 = 24^299; a single letter over 301
        # generators gives the trivial row |G|^300; 224 squares give the
        # float |G|^223, which the residual y^3 multiplies by |G|, and numpy
        # must not warn about that product
        squares = "*".join(f"x{i}^2" for i in range(1, 301))
        alphabet = ",".join(["x"] + [f"a{i}" for i in range(300)])
        residual = "*".join(f"x{i}^2" for i in range(1, 225)) + "*y^3"
        for argv in (
            ("expand", squares, "--group", "S4"),
            ("expand", "x", "--alphabet", alphabet, "--group", "S4"),
            ("expand", residual, "--group", "S4"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith("error: a coefficient with prefactor |G|^")
            assert err.endswith(" over S4 is past the float range\n") and err.count("\n") == 1
        assert run(capsys, "expand", residual.replace("x224^2*", ""), "--group", "S4")[0] == 0

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_help_names_the_budget_and_tol_defaults(self, capsys):
        code, out, _ = run(capsys, "expand", "--help")
        assert code == 0
        assert "10000000" in out and "1e-06" in out

    def test_repeated_alphabet_name_is_a_usage_error(self, capsys):
        for argv in (
            ("expand", "[x,y]", "--group", "S3", "--alphabet", "x,y,x"),
            ("classify", "x", "--alphabet", "x,x"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: --alphabet: duplicate") and err.count("\n") == 1

    def test_an_empty_alphabet_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "reduce", "x", "--alphabet", ",")
        assert (code, out) == (1, "")
        assert err == "error: --alphabet needs a comma-separated list of names\n"

    def test_a_failed_verification_is_two_after_the_table(self, capsys, monkeypatch):
        # the oracle is moved 1e-3 off the formula, past the default --tol;
        # [x,y] is a closed form, whose rows cli rounds without coefficient_formula
        from wordfourier import cli

        oracle = cli.project
        monkeypatch.setattr(cli, "project", lambda *a, **k: oracle(*a, **k) + 1e-3)
        code, out, err = run(capsys, "expand", "[x,y]", "--group", "S3", "--verify")
        assert code == 2
        assert out.splitlines()[-1] == "max |formula - oracle| = 1.000e-03"
        assert err == "verification failed: max delta 1.000e-03 exceeds tol 1e-06\n"

    def test_tol_must_be_finite_and_nonnegative(self, capsys):
        # nan used to switch --verify off and -1 to fail every word
        for tol in ("nan", "-1", "inf", "tiny"):
            code, out, err = run(
                capsys, "expand", "x^2", "--group", "S3", "--verify", "--tol", tol
            )
            assert (code, out) == (1, "") and "argument --tol" in err
        code, _, _ = run(capsys, "expand", "x^2", "--group", "S3", "--verify", "--tol", "1e-3")
        assert code == 0

    def test_seed_is_a_usage_error(self, capsys, tmp_path):
        # a computed table is one fixed function of its group: no draw to seed
        group, _ = group_and_table("Z4")
        gpath = tmp_path / "z4.grp"
        save_group(group, gpath)
        for command in ("expand", "bench"):
            code, out, err = run(
                capsys, command, "x^2", "--group-file", str(gpath), "--seed", "0"
            )
            assert (code, out) == (1, "") and "unrecognized arguments: --seed 0" in err

    def test_a_failed_table_computation_exits_2(self, capsys, tmp_path, monkeypatch):
        # besides the order bound, a combination that does not separate the
        # characters raises CharacterComputationError
        from wordfourier import chartable

        monkeypatch.setattr(chartable, "_min_gap", lambda eigenvalues: 0.0)
        group, _ = group_and_table("Z4")
        with pytest.raises(CharacterComputationError, match="eigenvalue gap"):
            chartable.compute_character_table(group)
        gpath = tmp_path / "z4.grp"
        save_group(group, gpath)
        code, out, err = run(capsys, "expand", "x^2", "--group-file", str(gpath))
        assert (code, out) == (2, "")
        assert err.startswith("validation error: ") and err.count("\n") == 1


class TestNumpyFreeStart:
    """The symbolic commands never load the numeric layer; ``expand`` does."""

    @pytest.mark.parametrize("fmt", ("human", "json"))
    @pytest.mark.parametrize("command", ("reduce", "classify", "genus"))
    def test_symbolic_commands_leave_numpy_unloaded(self, command, fmt):
        code, out, err = run_fresh(command, "[x,y]*z^2", "--format", fmt,
                                   program=MAIN_THEN_NUMPY)
        assert (code, err) == (0, "False") and out

    def test_expand_loads_numpy(self):
        code, out, err = run_fresh("expand", "[x,y]", "--group", "S3", program=MAIN_THEN_NUMPY)
        assert (code, err) == (0, "True") and out

    def test_importing_the_package_leaves_numpy_unloaded(self):
        program = "import sys\nimport wordfourier\nprint('numpy' in sys.modules)"
        assert run_fresh(program=program) == (0, "False\n", "")

    def test_every_public_name_is_listed_and_star_imported(self):
        program = (
            "import wordfourier\n"
            "listed = set(dir(wordfourier))\n"
            "bound = {}\n"
            "exec('from wordfourier import *', bound)\n"
            "public = set(wordfourier.__all__)\n"
            "print(len(public), sorted(public - listed), sorted(public - set(bound)))"
        )
        assert run_fresh(program=program) == (0, f"{len(wordfourier.__all__)} [] []\n", "")


class TestClosedStdout:
    def test_a_reader_that_leaves_after_one_line_gets_exit_141_and_no_message(self):
        # about 150 kB of output, more than a pipe holds, so the writes outlive the reader
        word = "*".join(f"[x{i},y{i}]" for i in range(1000))
        proc = subprocess.Popen(
            [sys.executable, "-c", MAIN, "reduce", word],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first.startswith(b"word: x0*y0*x0^-1*y0^-1*") and err == b""


class TestOneProcess:
    """Calls in one process share the parser and the built-in groups and
    tables; each must still print what it prints on its own."""

    def test_a_sequence_of_calls_matches_fresh_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help and usage text wrap to it
        word = "[x,y]*z^2"
        calls = (
            ("expand", word, "--group", "S3", "--verify", "--format", "json"),
            ("expand", word, "--group", "S3", "--format", "json"),
            ("reduce", word, "--format", "json"),
            ("expand", word),  # no group: usage error
            ("expand", word, "--group", "S3", "--bogus"),  # argparse usage error
            ("--help",),
            ("expand", word, "--group", "S3", "--format", "json"),
        )
        in_process = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [0, 0, 0, 1, 1, 0, 0]
        assert in_process[-1] == in_process[1]
        assert in_process == [run_fresh(*argv) for argv in calls]

    def test_rewritten_group_file_is_read_again(self, capsys, tmp_path):
        gpath = tmp_path / "g.grp"
        args = ("expand", "x^2", "--group-file", str(gpath), "--format", "json")
        save_group(group_and_table("Z4")[0], gpath)
        first = json.loads(run(capsys, *args)[1])
        save_group(group_and_table("Z5")[0], gpath)
        second = json.loads(run(capsys, *args)[1])
        assert (first["group"], first["order"]) == ("Z4", 4)
        assert (second["group"], second["order"]) == ("Z5", 5)

    def test_rewritten_table_file_is_read_again(self, capsys, tmp_path):
        group, table = group_and_table("S3")
        tpath = tmp_path / "s3.chtab"
        args = ("expand", "[x,y]", "--group", "S3", "--table-file", str(tpath),
                "--format", "json")
        save_character_table(table, tpath)
        first = json.loads(run(capsys, *args)[1])
        save_character_table(CharacterTable(group, table.classes, table.values[::-1]), tpath)
        second = json.loads(run(capsys, *args)[1])
        assert [r["degree"] for r in first["rows"]] == [1, 1, 2]
        assert [r["degree"] for r in second["rows"]] == [2, 1, 1]
