"""CLI surface: commands, output formats, exit codes."""

import json

from wordfourier import parse_word, save_character_table, save_group, split_dismissible
from wordfourier.cli import main
from wordfourier.reduction import form_from_split

from corpus import group_and_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert by_route["oracle"]["assignments"] == 576
        assert list(by_route) == ["oracle", "formula"]
        assert by_route["formula"]["assignments"] == 0
        assert all(r["max_delta"] < 1e-6 for r in doc["routes"])
        text = csv_path.read_text()
        assert text.startswith("route,assignments,seconds,max_delta")
        assert "oracle" in text

    def test_worked_example_counts(self, capsys):
        word = "x1*y1*x1*x2*y3*x2*x1*y1^-1*x1^3*y2*x3^-1*y3^-1*x3^2*y2^-1*x3"
        code, out, _ = run(capsys, "bench", word, "--group", "S3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        by_route = {r["route"]: r for r in doc["routes"]}
        assert by_route["oracle"]["assignments"] == 46656
        assert by_route["formula"]["assignments"] == 36

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

    def test_usage_error_is_one(self, capsys):
        code, _, _ = run(capsys, "expand", "[x,y]")  # no group given
        assert code == 1

    def test_unknown_group_is_one(self, capsys):
        code, _, err = run(capsys, "expand", "[x,y]", "--group", "M12")
        assert code == 1 and "unknown built-in group" in err

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

    def test_budget_error_is_three(self, capsys):
        code, _, err = run(
            capsys, "expand", "[x,y]", "--group", "S3", "--verify", "--budget", "10"
        )
        assert code == 3 and "budget" in err

    def test_budget_past_int64_is_three(self, capsys):
        # 2^70 assignments overflow int64, so even a larger budget refuses them
        alphabet = ",".join(["x"] + [f"a{i}" for i in range(69)])
        code, _, err = run(
            capsys, "expand", "x", "--alphabet", alphabet, "--group", "Z2",
            "--verify", "--budget", str(10**30),
        )
        assert code == 3 and "budget" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
