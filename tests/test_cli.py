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
    CharacterTable,
    coefficient_formula,
    normalize,
    parse_word,
    save_character_table,
    save_group,
    split_dismissible,
)
from wordfourier.cli import main

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


class TestExpand:
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

    def test_a_large_tol_picks_from_the_divisors_of_order_over_degree(self, capsys):
        # the degree-2 row of the empty word on S3 is 1/3; at --tol 0.2 the
        # wider search over the divisors of |G|*chi(1) would stop at 1/2
        code, out, _ = run(
            capsys, "expand", "1", "--group", "S3", "--tol", "0.2", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert [r["rational"] for r in doc["rows"]] == ["0", "0", "1/3"]

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
        assert doc["seed"] == 0


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

    def test_worked_example_counts(self, capsys):
        word = "x1*y1*x1*x2*y3*x2*x1*y1^-1*x1^3*y2*x3^-1*y3^-1*x3^2*y2^-1*x3"
        code, out, _ = run(capsys, "bench", word, "--group", "S3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        by_route = {r["route"]: r for r in doc["routes"]}
        # y2 occurs twice and is summed out; the first three of the five
        # walked generators run over the 49 orbits of S3 on triples, times
        # |G| per further one.  The formula walks two, over the 11 orbits
        # of S3 on pairs
        assert by_route["oracle"]["assignments"] == 49 * 6**2
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

    def test_tol_must_be_finite_and_nonnegative(self, capsys):
        # nan used to switch --verify off and -1 to fail every word
        for tol in ("nan", "-1", "inf", "tiny"):
            code, out, err = run(
                capsys, "expand", "x^2", "--group", "S3", "--verify", "--tol", tol
            )
            assert (code, out) == (1, "") and "argument --tol" in err
        code, _, _ = run(capsys, "expand", "x^2", "--group", "S3", "--verify", "--tol", "1e-3")
        assert code == 0

    def test_seed_must_be_a_nonnegative_integer(self, capsys, tmp_path):
        group, _ = group_and_table("Z4")
        gpath = tmp_path / "z4.grp"
        save_group(group, gpath)
        for seed in ("-1", "1.5"):
            code, out, err = run(
                capsys, "expand", "x^2", "--group-file", str(gpath), "--seed", seed
            )
            assert (code, out) == (1, "") and "argument --seed" in err


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
