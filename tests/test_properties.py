"""Property tests: both routes give the exact fiber counts, and the formula
route's coefficients respect the moves that preserve a word measure.

Word measures are invariant under the automorphisms of the free group
(Puder and Parzanchevski, Measure preserving words are primitive, 2015).
Relabelling the generators and the Nielsen move x -> x*y are such
automorphisms; a cyclic shift is a conjugation, which keeps every class;
inverting the word sends each value to its inverse, which conjugates every
coefficient.

Two classical divisibility theorems check the oracle's exact counts on
every built-in group, with no character table: Solomon (1969), for a word
in d >= 2 letters N_w(1) is a multiple of |G|, and Frobenius (1895),
#{x : x^n = 1} is a multiple of gcd(n, |G|).
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordfourier import (
    _kernels,
    coefficient_formula,
    distribution,
    normalize,
    project,
    word_to_str,
)
from wordfourier._defaults import BUILTIN_NAMES
from wordfourier.cli import main
from wordfourier.fourier import rational_annotation
from wordfourier.words import Alphabet, Word

from corpus import cyclic_shift, group_and_table, invert, python_distribution

NAMES = ("x", "y", "z")
GROUPS = ("S3", "D4", "Q8")
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# four move properties per group: fewer words each keeps the suite quick
MOVE_SETTINGS = settings(SETTINGS, max_examples=50)


@st.composite
def words(draw, min_rank=0):
    rank = draw(st.integers(min_rank, len(NAMES)))
    letters = []
    if rank:
        letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
        letters = draw(st.lists(letter, max_size=8))
    return Word(Alphabet(NAMES[:rank]), tuple(letters))


@pytest.mark.parametrize("group_name", GROUPS)
@SETTINGS
@given(word=words())
def test_formula_rebuilds_the_exact_fiber_counts(group_name, word):
    group, table = group_and_table(group_name)
    form = normalize(word)
    deltas = np.sum([step.delta for step in form.trace] + [(-1, 0, 0)], axis=0)
    assert (form.g_exponent, form.deg_exponent, form.fs_exponent) == tuple(deltas)
    coefficients = coefficient_formula(form, group, table)
    fibers = (coefficients @ table.values)[np.asarray(table.classes.class_of)]
    exact = np.rint(fibers.real)
    tol = 1e-9 * group.order**word.alphabet.rank
    assert np.all(np.abs(fibers - exact) <= tol)
    reference = python_distribution(word, group)
    assert exact.astype(np.int64).tolist() == reference
    oracle = distribution(word, group, classes=table.classes).values
    assert oracle.dtype == np.int64
    assert oracle[np.asarray(table.classes.class_of)].tolist() == reference


@pytest.mark.parametrize("group_name", GROUPS)
@SETTINGS
@given(word=words())
def test_the_walk_covers_every_assignment_once_in_fewer_rows(group_name, word):
    # the tally walks the generators its fiber table does not sum out
    group, table = group_and_table(group_name)
    n, k = group.order, len(table.classes)
    fiber = _kernels._fiber_split(group, [word.letters], table.classes)
    tallied = fiber[0] if fiber else [word.letters]
    generators = _kernels._present_generators(tallied)
    present = len(generators)
    walked = _kernels.walked_assignments(group, [word.letters], table.classes)
    if not present:
        assert walked == 0
        return
    rows = covered = 0
    for weight, _ in _kernels._orbit_walk(group, tallied, table.classes, generators):
        cells = n ** (weight.ndim - 1)  # each row spans the whole axes after it
        rows += weight.size * cells
        covered += int(weight.sum()) * cells
    assert rows == walked <= k * n ** (present - 1)
    assert covered == n**present


def _formula(word, group_name):
    group, table = group_and_table(group_name)
    return coefficient_formula(normalize(word), group, table)


def _assert_close(got, expected, group_name, word):
    group, _ = group_and_table(group_name)
    tol = 1e-9 * group.order**word.alphabet.rank
    assert np.all(np.abs(got - expected) <= tol)


# |G|*c/chi(1) is the sum over classes C of N_w(C) times the conjugate of
# the central character |C|*chi(g_C)/chi(1), an algebraic integer
# (Frobenius); every character of S3, D4 and Q8 is rational-valued, so the
# sum is an integer
@pytest.mark.parametrize("group_name", GROUPS)
@SETTINGS
@given(word=words())
def test_order_over_degree_times_each_coefficient_is_an_integer(group_name, word):
    group, table = group_and_table(group_name)
    oracle = project(distribution(word, group, classes=table.classes), table)
    tol = 1e-9 * group.order**word.alphabet.rank
    for coefficients in (_formula(word, group_name), oracle):
        scaled = group.order * coefficients / table.degrees
        assert np.all(np.abs(scaled - np.rint(scaled.real)) <= tol)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _smallest_denominator(value, denominators, tol=1e-6):
    """The reference search: the fraction p/q within tol of value whose q is
    the smallest of the denominators tried, or None."""
    if abs(value.imag) > tol:
        return None
    for q in sorted(denominators):
        p = round(value.real * q)
        if abs(value.real - p / q) <= tol:
            return Fraction(p, q)
    return None


def _exact_coefficients(word, group_name):
    """<N_w, chi> = (1/|G|) sum over classes C of |C| N_w(C) chibar(C), in
    fractions, from the oracle's exact counts; every character of the
    groups it is called on is integer-valued."""
    group, table = group_and_table(group_name)
    counts = distribution(word, group, classes=table.classes).values.tolist()
    characters = np.rint(table.values.real).astype(np.int64)
    assert np.allclose(characters, table.values, rtol=0, atol=1e-9)
    return [
        Fraction(sum(map(math.prod, zip(table.classes.sizes, counts, row))), group.order)
        for row in characters.tolist()
    ]


# So the exact column of expand is the one multiple of 1/(|G|/chi(1)) nearest
# the coefficient.  At the default --tol that is the fraction a search over
# every divisor of |G|*chi(1)^max(b, 1), which holds all the denominators,
# picks first, where floats near the coefficient are spaced at most --tol
# apart, and nothing elsewhere: there the float cannot tell the multiples
# apart.  A closed form (no residual generator) is annotated from integers,
# so there the column is the exact coefficient.
@pytest.mark.parametrize("group_name", GROUPS + ("S4",))
@SETTINGS
@given(word=words())
def test_exact_column_matches_the_wider_denominator_search(group_name, word):
    group, _ = group_and_table(group_name)
    argv = ["expand", word_to_str(word), "--group", group_name, "--format", "json"]
    if word.alphabet.rank:
        argv += ["--alphabet", ",".join(word.alphabet.names)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    form = normalize(word)
    b = form.deg_exponent
    exact = _exact_coefficients(word, group_name) if not form.residual_rank else None
    for row in json.loads(stdout.getvalue())["rows"]:
        if exact is not None:
            assert row["rational"] == str(exact[row["chi"]])
            continue
        value = complex(*row["coefficient"])
        wider = _divisors(group.order * row["degree"] ** max(b, 1))
        pick = _smallest_denominator(value, wider) if math.ulp(value.real) <= 1e-6 else None
        assert row["rational"] == (None if pick is None else str(pick))


# Below tol 1/(2n) at most one multiple of 1/n lies within tol, so rounding
# at n and searching the divisors of n agree while the search's float
# product |value|*q is below 2**51, where its spacing is at most 1/4.  Above
# that the product can round to the far neighbour and the search finds
# nothing where the float distance check accepts the near one.
def test_rounding_at_n_matches_the_divisor_search():
    rng = random.Random(39)
    compared = 0
    for _ in range(20000):
        n = rng.randint(1, 120)
        tol = rng.choice((0.0, 1e-12, 1e-9, 1e-6, 1e-4))
        kind = rng.randrange(5)
        if kind == 0:  # a multiple of 1/n, perturbed
            value = rng.randint(-(10**6), 10**6) / n + rng.uniform(-2, 2) * tol
        elif kind == 1:  # anywhere
            value = rng.uniform(-1e3, 1e3)
        elif kind == 2:  # an integer
            value = float(rng.randint(-(2**40), 2**40))
        elif kind == 3:  # up to the edge of the compared range
            value = rng.choice((1, -1)) * 2.0 ** rng.uniform(40, 51) / n
        else:  # up to 2**200
            value = rng.choice((1, -1)) * 2.0 ** rng.uniform(0, 200)
        if abs(value) * n >= 2**51:
            continue
        value = complex(value, rng.choice((0.0, tol / 2, 2 * tol + 1e-9)))
        expected = _smallest_denominator(value, _divisors(n), tol)
        assert rational_annotation(value, n, tol) == expected, (value, n, tol)
        compared += 1
    assert compared > 10000


# rational_annotation rounds value*n in integers, half to even; with an
# infinite tol it returns that rounding whatever the distance
def test_integer_rounding_matches_rounding_the_exact_product():
    rng = random.Random(41)
    ties = 0
    for _ in range(20000):
        n = rng.randint(1, 120)
        kind = rng.randrange(5)
        if kind == 0:  # an exact tie (p + 1/2)/n: dyadic, since the odd part of n cancels
            p = rng.randint(-(10**9), 10**9)
            value = Fraction(2 * p + 1, 2 * (n & -n))
            assert (value * n).denominator == 2
            value = float(value)
            ties += 1
        elif kind == 1:  # anywhere
            value = rng.uniform(-1e3, 1e3)
        elif kind == 2:  # subnormal
            value = rng.choice((1, -1)) * rng.randint(1, 2**52) * 5e-324
        elif kind == 3:  # past 2**53, where every float is an integer
            value = rng.choice((1, -1)) * 2.0 ** rng.uniform(53, 1000)
        else:  # a multiple of 1/n, perturbed
            value = rng.randint(-(10**6), 10**6) / n + rng.uniform(-1e-9, 1e-9)
        expected = Fraction(round(Fraction(value) * n), n)
        assert rational_annotation(value, n, math.inf) == expected, (value, n)
        assert rational_annotation(complex(value, 0.0), n, math.inf) == expected
    assert ties > 3000


# Z3's characters are not real, so there conjugation changes coefficients
@pytest.mark.parametrize("group_name", GROUPS + ("Z3",))
@MOVE_SETTINGS
@given(word=words())
def test_inverse_word_conjugates_the_coefficients(group_name, word):
    expected = np.conj(_formula(word, group_name))
    _assert_close(_formula(invert(word), group_name), expected, group_name, word)


@pytest.mark.parametrize("group_name", GROUPS)
@MOVE_SETTINGS
@given(word=words(), shift=st.integers(0, 15))
def test_cyclic_shift_keeps_the_coefficients(group_name, word, shift):
    shifted = cyclic_shift(word, shift)
    _assert_close(_formula(shifted, group_name), _formula(word, group_name), group_name, word)


@pytest.mark.parametrize("group_name", GROUPS)
@MOVE_SETTINGS
@given(word=words(), data=st.data())
def test_relabelling_keeps_the_coefficients(group_name, word, data):
    label = data.draw(st.permutations(range(word.alphabet.rank)))
    relabelled = Word(word.alphabet, tuple((label[g], s) for g, s in word.letters))
    _assert_close(
        _formula(relabelled, group_name), _formula(word, group_name), group_name, word
    )


@pytest.mark.parametrize("group_name", GROUPS)
@MOVE_SETTINGS
@given(word=words(min_rank=2), data=st.data())
def test_nielsen_move_keeps_counts_and_coefficients(group_name, word, data):
    x, y = data.draw(st.permutations(range(word.alphabet.rank)))[:2]
    letters = []
    for g, s in word.letters:
        if g != x:
            letters.append((g, s))
        elif s > 0:
            letters += [(x, 1), (y, 1)]  # x -> x*y
        else:
            letters += [(y, -1), (x, -1)]
    moved = Word(word.alphabet, tuple(letters))
    group, table = group_and_table(group_name)
    counts = distribution(word, group, classes=table.classes).values
    assert np.array_equal(distribution(moved, group, classes=table.classes).values, counts)
    _assert_close(_formula(moved, group_name), _formula(word, group_name), group_name, word)


def _solutions(word, group_name) -> int:
    """N_w(1): the assignments under which ``word`` evaluates to the identity."""
    group, table = group_and_table(group_name)
    counts = distribution(word, group, classes=table.classes).values
    return int(counts[table.classes.class_of[group.identity]])


@pytest.mark.parametrize("group_name", BUILTIN_NAMES)
def test_solomon_solutions_of_w_equal_1_are_a_multiple_of_the_order(group_name):
    # seeded words rather than hypothesis: its overhead on 18 groups
    # would be twenty times the cost of the counts
    rng = random.Random(group_name)
    order = group_and_table(group_name)[0].order
    for _ in range(22):
        rank = rng.randint(2, len(NAMES))
        letters = [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        word = Word(Alphabet(NAMES[:rank]), tuple(letters))
        assert _solutions(word, group_name) % order == 0, word_to_str(word)


@pytest.mark.parametrize("group_name", BUILTIN_NAMES)
def test_frobenius_solutions_of_x_to_the_n_are_a_multiple_of_gcd_n_order(group_name):
    order = group_and_table(group_name)[0].order
    x = Alphabet(("x",))
    for n in range(1, 13):
        solutions = _solutions(Word(x, ((0, 1),) * n), group_name)
        assert solutions >= 1 and solutions % math.gcd(n, order) == 0, n
