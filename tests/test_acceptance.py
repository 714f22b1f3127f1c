"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import numpy as np

from wordfourier import (
    Alphabet,
    Word,
    coefficient_formula,
    compute_character_table,
    fs_indicator,
    genus,
    normalize,
    parse_word,
)
from wordfourier._defaults import BUILTIN_NAMES
from wordfourier.chartable import ORTHOGONALITY_TOL
from wordfourier.reduction import split_dismissible

from closed_forms import nested_commutator_coeff, quartic_pair_coeff
from corpus import (
    class_total,
    concat,
    corpus_word,
    form_from_split,
    group_and_table,
    invert,
    master_pairs,
    oracle_coefficients,
    oracle_distribution,
    split_tambour,
)

TOL = 1e-6


def ok(number: int, label: str) -> None:
    print(f"[acceptance {number:02d}] {label}: PASS")


def test_01_frobenius_formula():
    for name in ("S3", "D4", "Q8", "A4", "S4"):
        group, table = group_and_table(name)
        oracle = oracle_coefficients(parse_word("[x,y]"), name)
        formula = coefficient_formula(normalize(parse_word("[x,y]")), group, table)
        for chi in range(len(table)):
            expected = group.order / table.degrees[chi]
            assert abs(oracle[chi] - expected) <= TOL
            assert abs(formula[chi] - expected) <= TOL
    ok(1, "N_[x,y] = |G|/chi(1) on S3, D4, Q8, A4, S4")


def test_02_commutator_product_k2():
    group, table = group_and_table("S3")
    word = corpus_word("comm-product")
    assert group.order ** word.alphabet.rank == 1296
    oracle = oracle_coefficients(word, "S3")
    for chi in range(len(table)):
        expected = (group.order / table.degrees[chi]) ** 3
        assert abs(oracle[chi] - expected) <= TOL
    ok(2, "k=2 commutator product on S3 equals (|G|/chi(1))^3")


def test_03_intro_worked_example():
    word = corpus_word("intro")
    split = split_dismissible(word)
    residual = split.residual_alphabet
    assert split.split_words == (
        parse_word("x1^4*x3", residual),
        parse_word("x1*x2*x3*x2*x1", residual),
    )
    group, table = group_and_table("S3")
    form = form_from_split(split)
    assert form.summation_count(group.order) == 216
    assert group.order ** word.alphabet.rank == 46656
    oracle = oracle_coefficients(word, "S3")
    formula = coefficient_formula(form, group, table)
    for chi in range(len(table)):
        assert abs(formula[chi] - oracle[chi]) <= TOL
    ok(3, "worked example: W1 = x1^4*x3, W2 = x1*x2*x3*x2*x1, values match")


def test_04_empty_and_single_closed_forms():
    group, table = group_and_table("S3")
    empty_oracle = oracle_coefficients(parse_word("1"), "S3")
    formula = coefficient_formula(normalize(parse_word("1")), group, table)
    for chi in range(len(table)):
        expected = table.degrees[chi] / group.order
        assert abs(empty_oracle[chi] - expected) <= TOL
        assert abs(formula[chi] - expected) <= TOL
    for word_id, constant in (("pair-rank2", 6), ("pair-rank3", 36)):
        dist = oracle_distribution(corpus_word(word_id), "S3")
        assert np.array_equal(dist.values, np.full(len(table.classes), constant))
    ok(4, "N_1 = chi(1)/|G|; xy uniform at |G| (rank 2) and |G|^2 (rank 3)")


def test_05_fs_indicator_equals_square_word_coefficient():
    square = parse_word("x^2")
    for name in BUILTIN_NAMES:
        group, table = group_and_table(name)
        oracle = oracle_coefficients(square, name)
        for chi in range(len(table)):
            indicator = fs_indicator(table, chi)
            assert indicator in (-1, 0, 1)
            assert abs(oracle[chi] - indicator) <= TOL
    _, q8_table = group_and_table("Q8")
    two = int(np.flatnonzero(q8_table.degrees == 2)[0])
    assert fs_indicator(q8_table, two) == -1
    _, z3_table = group_and_table("Z3")
    assert [fs_indicator(z3_table, chi) for chi in (1, 2)] == [0, 0]
    ok(5, "FS indicator equals the oracle coefficient of x^2 everywhere")


def test_06_square_theorem_randomized():
    rng = np.random.default_rng(20260808)
    segment_alphabet = Alphabet(("a", "b"))
    full_alphabet = Alphabet(("a", "b", "y"))

    def random_segment():
        length = int(rng.integers(0, 3))
        return Word(
            segment_alphabet,
            tuple(
                (int(rng.integers(2)), int(rng.choice((1, -1))))
                for _ in range(length)
            ),
        )

    for _ in range(20):
        w1, w2, w3 = (random_segment() for _ in range(3))
        y = Word(full_alphabet, ((2, 1),))
        lift = lambda w: Word(full_alphabet, w.letters)
        word = concat(concat(concat(concat(lift(w1), y), lift(w2)), y), lift(w3))
        reduced = concat(concat(w1, invert(w2)), w3)
        for name in ("S3", "Z4"):
            group, table = group_and_table(name)
            lhs = oracle_coefficients(word, name)
            rhs = oracle_coefficients(reduced, name)
            for chi in range(len(table)):
                scaled = (
                    group.order / table.degrees[chi] * fs_indicator(table, chi) * rhs[chi]
                )
                assert abs(lhs[chi] - scaled) <= TOL
    ok(6, "square elimination identity holds on 20 random instances")


def _matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for tail in _matchings(rest):
            yield [(first, items[i])] + tail


def _pattern_word(pairs, signs, n):
    alphabet = Alphabet(tuple(f"y{i}" for i in range(n)))
    letters = [None] * (2 * n)
    for letter, ((i, j), sign) in enumerate(zip(pairs, signs)):
        letters[i] = (letter, sign)
        letters[j] = (letter, -sign)
    return Word(alphabet, tuple(letters))


def test_07_parity_and_involution():
    checked = 0
    for n in range(1, 5):
        for pairs in _matchings(list(range(2 * n))):
            for mask in range(2**n):
                signs = [1 if mask & (1 << k) else -1 for k in range(n)]
                split = split_dismissible(_pattern_word(pairs, signs, n))
                assert split.r % 2 != n % 2
                assert all(split.tau[i] != i for i in range(2 * n))
                assert all(split.tau[split.tau[i]] == i for i in range(2 * n))
                checked += 1
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        slots = list(range(2 * n))
        rng.shuffle(slots)
        pairs = [(slots[2 * k], slots[2 * k + 1]) for k in range(n)]
        signs = [int(rng.choice((1, -1))) for _ in range(n)]
        split = split_dismissible(_pattern_word(pairs, signs, n))
        assert split.r % 2 != n % 2
        assert all(split.tau[split.tau[i]] == i != split.tau[i] for i in range(2 * n))
    ok(7, f"r != n (mod 2) and tau is a fixed-point-free involution ({checked} exhaustive)")


def test_08_tambour_family():
    assert [split_tambour(n)[0] for n in (2, 3, 4, 5)] == [1, 2, 1, 2]
    genus_words = {
        2: "y1*y2*y1^-1*y2^-1",
        3: "y1*y2*y3*y1^-1*y2^-1*y3^-1",
        4: "y1*y2*y3*y4*y1^-1*y2^-1*y3^-1*y4^-1",
        5: "y1*y2*y3*y4*y5*y1^-1*y2^-1*y3^-1*y4^-1*y5^-1",
    }
    assert [genus(parse_word(genus_words[n])) for n in (2, 3, 4, 5)] == [1, 1, 2, 2]

    group, table = group_and_table("S3")
    word = corpus_word("tambour3")
    assert group.order ** word.alphabet.rank == 216
    oracle = oracle_coefficients(word, "S3")
    _, form = split_tambour(3)
    formula = coefficient_formula(form, group, table)
    for chi in range(len(table)):
        closed = group.order**2 / table.degrees[chi]
        assert abs(oracle[chi] - closed) <= TOL
        assert abs(formula[chi] - closed) <= TOL
    ok(8, "tambour splits r=1,2,1,2, genus 1,1,2,2; n=3 closed form |G|^2/chi(1)")


def test_09_nested_commutator():
    word = corpus_word("nested-commutator")
    for name in ("S3", "Q8"):
        group, table = group_and_table(name)
        oracle = oracle_coefficients(word, name)
        for chi in range(len(table)):
            assert abs(nested_commutator_coeff(table, chi) - oracle[chi]) <= TOL
    ok(9, "[[x,y],z] Clebsch-Gordan sum matches the oracle on S3 and Q8")


def test_10_real_character_dichotomy():
    bracket = parse_word("[x,y]")
    brace = parse_word("{x,y}")
    for name in ("S3", "S4", "D4", "Q8"):
        same = np.array_equal(
            oracle_distribution(bracket, name).values,
            oracle_distribution(brace, name).values,
        )
        assert same, f"distributions must coincide on {name}"
    for name in ("Z3", "Z5"):
        same = np.array_equal(
            oracle_distribution(bracket, name).values,
            oracle_distribution(brace, name).values,
        )
        assert not same, f"distributions must differ on {name}"
    ok(10, "[x,y] vs {x,y}: equal on S3, S4, D4, Q8; different on Z3, Z5")


def test_11_quartic_pair():
    _, z3_table = group_and_table("Z3")
    for chi in (1, 2):
        absolute = quartic_pair_coeff(z3_table, chi, "absolute")
        plain = quartic_pair_coeff(z3_table, chi, "plain")
        assert abs(absolute - plain) > 1.0

    # Z3 and A4 have non-real characters, where the two variants differ
    for name in ("S3", "Z3", "A4"):
        _, table = group_and_table(name)
        bracket = oracle_coefficients(corpus_word("quartic-bracket"), name)
        brace = oracle_coefficients(corpus_word("quartic-brace"), name)
        for chi in range(len(table)):
            absolute = quartic_pair_coeff(table, chi, "absolute")
            plain = quartic_pair_coeff(table, chi, "plain")
            assert abs(absolute - bracket[chi]) <= TOL
            assert abs(plain - brace[chi]) <= TOL
            if name == "S3":
                assert abs(absolute - plain) <= TOL  # all S3 characters are real
    ok(11, "quartic class sums: variants differ on Z3, agree on S3, match on S3, Z3, A4")


def test_12_table_validation_and_recomputation():
    for name in BUILTIN_NAMES:
        group, table = group_and_table(name)
        k = len(table)
        sizes = np.array(table.classes.sizes, dtype=float)
        gram = (table.values * sizes) @ table.values.conj().T / group.order
        assert np.max(np.abs(gram - np.eye(k))) <= ORTHOGONALITY_TOL
        col = table.values.conj().T @ table.values
        expected = np.diag(np.array(table.classes.centralizer_sizes, dtype=float))
        assert np.max(np.abs(col - expected)) <= ORTHOGONALITY_TOL * group.order
        assert int((table.degrees**2).sum()) == group.order
        assert np.array_equal(compute_character_table(group).values, table.values)
    ok(12, "all built-in tables validate; recomputation reproduces them exactly")


def test_13_conjugate_symmetry_and_counting():
    for word_id, group_name in master_pairs():
        word = corpus_word(word_id)
        group, _ = group_and_table(group_name)
        forward = oracle_coefficients(word, group_name)
        backward = oracle_coefficients(invert(word), group_name)
        assert np.max(np.abs(backward - np.conj(forward))) <= TOL
        dist = oracle_distribution(word, group_name)
        assert class_total(dist) == group.order ** word.alphabet.rank
    ok(13, "coefficients of w and w^-1 are conjugate; counts sum to |G|^d")
