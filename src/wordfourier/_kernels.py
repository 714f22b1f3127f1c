"""Enumeration kernels for the oracle and the formula routes (numpy only).

Both routes sum over the assignments of group elements to the generators,
and both make the same walk, ``_orbit_walk``:

* Generators absent from every word are left out; each one multiplies the
  result by |G|.
* Orbit.  Every summand depends only on the conjugacy classes of the
  words' values, and those do not change when all generators are
  conjugated by one element.  So the first generator to appear runs over
  the class representatives only, and each row is weighted by its class
  size.
* Prefix sharing.  The other generators, in order of first appearance,
  are kept as broadcast axes, so a letter is evaluated over the generators
  seen so far and costs only the size of that prefix.  The leading ones
  are enumerated per row in mixed-radix order (the first generator most
  significant); as many trailing ones as fit in ``cells`` are whole axes
  of |G|, and a chunk takes as many rows as keep it near ``cells`` cells.

``element_counts`` (the oracle) stays exact in integers: it tallies
(representative, class of the value) pairs into an int64 table with
``bincount``; the class totals are ``sizes @ table``, and a class total
divided by its class size, which must divide it exactly, is the count of
each element of the class.  ``split_character_sum`` (the formula)
multiplies the character rows at the classes of the words' values and
contracts them against the class sizes, every row in the same walk.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupValidationError

_CHUNK = 1 << 16


def active_backend() -> str:
    """The kernel implementation; numpy is the only one."""
    return "numpy"


def _chunk_digits(start, stop, strides, radix):
    idx = np.arange(start, stop, dtype=np.int64)
    return (idx[:, None] // strides[None, :]) % radix


def _present_generators(word_letter_lists) -> list[int]:
    """Generators occurring in the words, in order of first appearance."""
    return list(dict.fromkeys(g for letters in word_letter_lists for g, _ in letters))


def walked_assignments(group, word_letter_lists, classes) -> int:
    """Assignments ``_orbit_walk`` evaluates for these words: k*|G|^(p-1)
    for p present generators, or 0 when none is present and nothing is
    walked."""
    present = len(_present_generators(word_letter_lists))
    return len(classes) * group.order ** (present - 1) if present else 0


def _orbit_walk(group, word_letter_lists, classes, cells):
    """Walk the assignments of the present generators, up to conjugation.

    Yields ``(rep, values)`` per chunk of rows.  ``rep`` is the class index
    of the first generator's representative in each row, and ``values``
    holds the class index of each word's value; all are arrays of one
    dimension count that broadcast to (rows, |G|, ..., |G|).  Needs at
    least one present generator.
    """
    order, mul, inv = group.order, group.mul, group.inv
    class_of = np.asarray(classes.class_of)
    reps = np.asarray(classes.representatives, dtype=np.int64)
    present = _present_generators(word_letter_lists)
    inner = 0
    while inner < len(present) - 1 and order ** (inner + 1) <= cells:
        inner += 1
    outer = len(present) - inner
    ndim = 1 + inner

    letter_values = {}
    for axis, g in enumerate(present[outer:], start=1):
        shape = [1] * ndim
        shape[axis] = order
        x = np.arange(order, dtype=np.int64).reshape(shape)
        letter_values[g, 1], letter_values[g, -1] = x, inv[x]
    identity = np.full((1,) * ndim, group.identity, dtype=np.int64)

    radix = np.array([len(reps)] + [order] * (outer - 1), dtype=np.int64)
    strides = order ** np.arange(outer - 1, -1, -1, dtype=np.int64)
    total = len(reps) * order ** (outer - 1)
    rows = max(1, cells // order**inner)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        column = (stop - start,) + (1,) * inner
        digits = _chunk_digits(start, stop, strides, radix).T.reshape((outer,) + column)
        rep = digits[0].copy()
        digits[0] = reps[rep]
        for j, g in enumerate(present[:outer]):
            letter_values[g, 1], letter_values[g, -1] = digits[j], inv[digits[j]]
        values = []
        for letters in word_letter_lists:
            acc = identity
            for g, s in letters:
                acc = mul[acc, letter_values[g, s]]
            values.append(class_of[acc])
        yield rep, values


def element_counts(group, letters, rank, classes) -> np.ndarray:
    """Count, per group element, the assignments of ``rank`` generators
    under which the word hits it.

    Raises GroupValidationError when a class total is not a multiple of the
    class size, i.e. the counts would not be constant on ``classes``.
    """
    order = group.order
    present = len(_present_generators([letters]))
    scale = order ** (rank - present)
    if not present:
        counts = np.zeros(order, dtype=np.int64)
        counts[group.identity] = scale
        return counts
    k = len(classes)
    table = np.zeros(k * k, dtype=np.int64)
    for rep, (value,) in _orbit_walk(group, [letters], classes, _CHUNK):
        table += np.bincount((rep * k + value).ravel(), minlength=k * k)
    sizes = np.asarray(classes.sizes, dtype=np.int64)
    per_element, remainder = np.divmod(sizes @ table.reshape(k, k), sizes)
    if np.any(remainder):
        raise GroupValidationError("word-map counts are not constant on a class")
    return per_element[np.asarray(classes.class_of)] * scale


def split_character_sum(group, word_letter_lists, rank, classes, chibar) -> np.ndarray:
    """Per row of ``chibar``, the sum over all |G|^rank assignments of the
    product of that row's values at the classes of the words' values.

    ``chibar`` is a (characters x classes) array of class-function values.
    When no generator occurs, every assignment sends every word to the
    identity.
    """
    chibar = np.asarray(chibar, dtype=np.complex128)
    present = len(_present_generators(word_letter_lists))
    scale = float(group.order ** (rank - present))
    if not present:
        return chibar[:, classes.identity_class] ** len(word_letter_lists) * scale
    nrows = chibar.shape[0]
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    sums = np.zeros(nrows, dtype=np.complex128)
    # one chunk holds a (characters x cells) product: keep it near _CHUNK
    cells = max(1, _CHUNK // max(1, nrows))
    for rep, values in _orbit_walk(group, word_letter_lists, classes, cells):
        prod = chibar[:, values[0]]
        for value in values[1:]:
            prod = prod * chibar[:, value]
        sums += prod.reshape(nrows, rep.size, -1).sum(axis=2) @ sizes[rep.ravel()]
    return sums * scale

