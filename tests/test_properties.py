"""Property tests: both routes give the exact fiber counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordfourier import coefficient_formula, distribution, normalize
from wordfourier.words import Alphabet, Word

from corpus import group_and_table, python_distribution

NAMES = ("x", "y", "z")


@st.composite
def words(draw):
    rank = draw(st.integers(0, len(NAMES)))
    letters = []
    if rank:
        letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
        letters = draw(st.lists(letter, max_size=8))
    return Word(Alphabet(NAMES[:rank]), tuple(letters))


@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8"))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
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
