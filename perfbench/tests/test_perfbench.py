"""Tests of the benchmark itself: query generation, references, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import queries  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from wordfourier import cli, distribution, parse_word  # noqa: E402


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_seed_fixes_the_query_list(workload):
    first = queries.build(workload, 7)
    assert first == queries.build(workload, 7)
    assert first != queries.build(workload, 8)


def test_long_expand_words_have_the_fixed_surface():
    long_expand = [q for q in queries.build("symbolic-mix", 5)
                   if q.command == "expand" and "--verify" not in q.argv]
    assert len(long_expand) == 3
    for query in long_expand:
        assert queries.surface(query.letters)[0] == queries.LONG_EXPAND_VERTICES


def test_latency_reduces_each_querys_sends():
    loop = run.Loop(passes=3, latencies=[3.0, 5.0, 1.0, 2.0, 4.0, 6.0])
    assert run.query_latencies(loop, 2, "formula-residual") == [1.0, 2.0]
    assert run.query_latencies(loop, 2, "oracle-enum") == [3.0, 5.0]


def test_surface_reference_matches_the_oracle():
    checker = reference.Checker()
    rng = random.Random(0)
    cases = [(letters, "S4") for _, letters in queries.SURFACE_CORPUS[:2]]
    for group, max_rank in (("S3", 4), ("Q8", 4), ("Z3", 5), ("D4", 4), ("A4", 3)):
        cases += [(queries.two_occurrence_word(rng, rng.randint(1, max_rank)), group)
                  for _ in range(12)]
    for letters, group in cases:
        query = queries.Query(("expand", queries.word_text(letters), "--group", group),
                              "surface", group, letters)
        table = checker.table(group)
        surface_counts, _ = checker.reference_counts(query, table)
        oracle = distribution(parse_word(query.word), table.group, classes=table.classes)
        assert abs(surface_counts - oracle.values).max() < 1e-6, (query.word, group)


def test_surface_of_known_words():
    assert reference.surface(queries.SURFACE_CORPUS[0][1]) == (1, -2, True)  # genus 2
    assert reference.surface((("x", 1), ("x", 1))) == (1, 1, False)  # projective plane
    assert reference.surface((("x", 1), ("x", -1))) == (2, 2, True)  # sphere


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_answers_check_out_tracing_changes_no_output_and_counts_repeat(workload):
    qs = queries.build(workload, 3)
    untraced = run.run_passes(cli, qs, 1, None)
    run.check_answers(qs, untraced)
    assert not untraced.failures
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run.run_passes(cli, qs, 1, untraced.outputs)
        assert traced.outputs == untraced.outputs
        assert not traced.failures
        metrics = spans.layer_metrics(tracer, traced.passes, traced.wall, 1.0)
        counts.append({name: value for name, (value, unit) in metrics.items()
                       if unit == "count"})
        assert metrics["trace.unaccounted_frac"][0] <= spans.ACCOUNTING_BOUND
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == len(qs)
    assert not hasattr(cli.main, "__wrapped__")  # the originals are back


def test_a_wrong_answer_counts_as_failed(monkeypatch):
    qs = queries.build("formula-residual", 1)
    good = run.run_passes(cli, qs, 1, None)
    query, output = qs[1], good.outputs[1]
    doc = json.loads(output)
    doc["rows"][0]["coefficient"][0] += 1.0
    assert reference.Checker().check(query, json.dumps(doc))

    original = cli.coefficient_formula
    monkeypatch.setattr(cli, "coefficient_formula", lambda *a, **k: original(*a, **k) + 1)
    loop = run.run_passes(cli, qs, 1, None)
    run.check_answers(qs, loop)
    assert sum(loop.failed.values()) == len(qs)


def test_a_wrong_answer_fails_the_traced_sends_too(monkeypatch):
    qs = queries.build("formula-residual", 1)[:3]
    original = cli.coefficient_formula
    monkeypatch.setattr(cli, "coefficient_formula", lambda *a, **k: original(*a, **k) + 1)
    untraced = run.run_passes(cli, qs, 2)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run.run_passes(cli, qs, 2, untraced.outputs)
    assert not traced.failures  # byte-identical to the untraced answers
    run.check_answers(qs, untraced, traced)
    assert sum(untraced.failed.values()) == sum(traced.failed.values()) == 2 * len(qs)


def test_a_wrong_closed_form_counts_as_failed():
    query = queries.build("symbolic-mix", 1)[0]
    assert query.command == "reduce"
    loop = run.run_passes(cli, [query], 1, None)
    doc = json.loads(loop.outputs[0])
    assert reference.Checker().check(query, loop.outputs[0]) is None
    doc["prefactor"]["fs_exponent"] += 1
    assert reference.Checker().check(query, json.dumps(doc))


def test_tail_leaves_ten_samples_above_it():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
