"""Enumeration kernels for the oracle and the formula routes (numpy only).

Both routes sum over the assignments of group elements to the generators,
and both make the same walk, ``_orbit_walk``, and the same exact tally,
``_joint_tally``:

* Generators absent from every word are left out; each one multiplies the
  result by |G|.  With none present the tally is the one empty
  assignment: every word at the identity class, counted once.
* Fiber table.  A generator z that occurs exactly twice in a single word,
  w = A z^e1 B z^e2 C, is summed out without being walked: conjugating by
  A gives class(w) = class(z^e1 B z^e2 (C A)), so the count over z
  depends only on the values b, c of the segments B and C A, and
  ``ConjugacyClasses.fiber_table(e1, e2)`` holds it per (b, c) and class.
  The walk then runs over the other generators and tallies (b, c) by
  element, and that table times the fiber table is the class tally.  z is
  the last such generator in order of first appearance (``_fiber_split``).
  Everything else takes the plain walk below: several words, a lone
  generator, no generator that occurs exactly twice, or a table past
  ``_FIBER_CELLS``.
* Orbits.  Every summand depends only on the conjugacy classes of the
  words' values, and those do not change when all generators are
  conjugated by one element (summing z out keeps this).  So the first d
  generators to appear run over one tuple per orbit of G on G^d
  (``ConjugacyClasses.orbit_rows(d)``), each row weighted by its orbit
  size: d = 1 is the class representatives, weighted by class size, d = 2
  one pair (x, y) per orbit, y over the orbits of x's centraliser, and
  d = 3 one triple per orbit, the third entry over the orbits of
  C(x) ∩ C(y).  ``_orbit_depth`` takes d = 3 for three or more walked
  generators when the triple table is smaller than the pair table times
  |G| (never for an abelian group, where both have |G|^3 rows) and has at
  most ``_TRIPLE_ROWS`` rows; otherwise d is 2, or 1 for a lone generator.
* Prefix sharing.  The other generators, in order of first appearance,
  are kept as broadcast axes, so a letter is evaluated over the generators
  seen so far and costs only the size of that prefix.  The leading ones
  are enumerated per row in mixed-radix order (the orbit row most
  significant);
  as many trailing ones as fit in ``_CHUNK`` cells are whole axes of |G|,
  and a chunk takes as many rows as keep it near ``_CHUNK`` cells.

The tally counts, in int64, the class tuples (c_1..c_r) of the r words'
values over all assignments.  The int64 row weights are added in place
into one dense table, keyed by class (k^r cells) for the plain walk and
by element (|G|^2 cells) for the fiber walk, so each count is an exact
sum bounded by |G|^rank, which ``fourier._check_budget`` keeps below
2^63.  ``element_counts`` (the oracle) is the r = 1 tally: a class
total divided by its class size, which must divide it exactly, is the
count of each element of the class.  ``split_character_sum`` (the
formula) contracts the tally against the character values at each
tuple's classes, one float sum of exact integers.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupValidationError

_CHUNK = 1 << 16
# largest table of k^r class tuples a tally keeps dense
_DENSE = 1 << 16
# largest fiber table, |G|^2 x k cells
_FIBER_CELLS = 1 << 20
# largest orbit table on triples a walk builds, in rows: S4's, the largest
# built-in one, has 681, while a group file's class data, and so its
# tables, are built again on every query
_TRIPLE_ROWS = 1024


def active_backend() -> str:
    """The kernel implementation; numpy is the only one."""
    return "numpy"


def _present_generators(word_letter_lists) -> list[int]:
    """Generators occurring in the words, in order of first appearance."""
    return list(dict.fromkeys(g for letters in word_letter_lists for g, _ in letters))


def _fiber_split(group, word_letter_lists, classes):
    """``(segments, signs)`` when the tally sums a generator z out through
    its fiber table, else None.

    It does for a single word with at least two present generators, one
    of which occurs exactly twice, while the |G|^2 x k table fits
    ``_FIBER_CELLS``.  z is the last such generator in order of first
    appearance; for w = A z^e1 B z^e2 C the segments are B and C A, and
    the signs (e1, e2).
    """
    order = group.order
    if len(word_letter_lists) != 1 or order * order * len(classes) > _FIBER_CELLS:
        return None
    (letters,) = word_letter_lists
    occurs = {}  # generator -> its letter count, in order of first appearance
    for g, _ in letters:
        occurs[g] = occurs.get(g, 0) + 1
    twice = [g for g, times in occurs.items() if times == 2]
    if not twice or len(occurs) < 2:
        return None
    i, j = (at for at, (g, _) in enumerate(letters) if g == twice[-1])
    segments = [letters[i + 1 : j], letters[j + 1 :] + letters[:i]]
    return segments, (letters[i][1], letters[j][1])


def _orbit_depth(classes, walked: int) -> int:
    """How many of ``walked`` generators run over orbit rows: all of them
    up to two, and three when the triple table has fewer rows than the
    pair table times |G| and at most ``_TRIPLE_ROWS``.  Depth d has
    sum |C(x)|^(d-1) rows over the class representatives x, so this reads
    the centraliser sizes alone and builds nothing."""
    if walked < 3:
        return walked
    pairs = sum(classes.centralizer_sizes)
    triples = sum(c * c for c in classes.centralizer_sizes)
    return 3 if triples < pairs * classes.group.order and triples <= _TRIPLE_ROWS else 2


def walked_assignments(group, word_letter_lists, classes) -> int:
    """Rows ``_joint_tally`` walks for these words: R*|G|^(p-d) for p
    walked generators, of which the first d = ``_orbit_depth`` run over
    R = sum |C(x)|^(d-1) orbit rows, or 0 when none is present and nothing
    is walked.  The walked generators are the present ones, less the one a
    fiber table sums out (``_fiber_split``)."""
    fiber = _fiber_split(group, word_letter_lists, classes)
    walked = len(_present_generators(fiber[0] if fiber else word_letter_lists))
    if not walked:
        return 0
    depth = _orbit_depth(classes, walked)
    rows = sum(c ** (depth - 1) for c in classes.centralizer_sizes)
    return rows * group.order ** (walked - depth)


def _orbit_walk(group, word_letter_lists, classes):
    """Walk the assignments of the present generators, up to conjugation.

    Yields ``(weight, values)`` per chunk of rows.  ``weight`` is the int64
    size of each row's conjugation orbit, and ``values`` holds each word's
    value (an element index, a scalar for an empty word); all broadcast to
    (rows, |G|, ..., |G|).  Needs at least one present generator.
    """
    order, mul, inv = group.order, group.mul, group.inv
    present = _present_generators(word_letter_lists)
    inverted = {g for letters in word_letter_lists for g, e in letters if e < 0}
    *heads, weights = classes.orbit_rows(_orbit_depth(classes, len(present)))
    # the head generators are row digits; later ones may be whole axes
    inner = 0
    while inner < len(present) - len(heads) and order ** (inner + 1) <= _CHUNK:
        inner += 1
    free = len(present) - len(heads) - inner
    ndim = 1 + inner

    letter_values = {}

    def assign(g, x):  # the letters of g; g^-1 only where a word reads it
        letter_values[g, 1] = x
        if g in inverted:
            letter_values[g, -1] = inv[x]

    for axis, g in enumerate(present[len(present) - inner:], start=1):
        shape = [1] * ndim
        shape[axis] = order
        assign(g, np.arange(order, dtype=np.int64).reshape(shape))

    column = (-1,) + (1,) * inner
    heads = [head.reshape(column) for head in heads]
    weights = weights.reshape(column)
    total = len(weights) * order**free
    rows = max(1, _CHUNK // order**inner)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        if free:  # mixed-radix digits of the chunk's assignments, row first
            row, rest = np.divmod(np.arange(start, stop, dtype=np.int64), order**free)
            digits = [(rest // order**i % order).reshape(column) for i in range(free - 1, -1, -1)]
        else:  # the chunk's rows are a range of the orbit table
            row, digits = slice(start, stop), []
        for g, x in zip(present, [head[row] for head in heads] + digits):
            assign(g, x)
        values = []
        for letters in word_letter_lists:
            # an empty word is the identity; any other starts at its first letter
            acc = letter_values[letters[0]] if letters else np.int64(group.identity)
            for letter in letters[1:]:
                acc = mul[acc, letter_values[letter]]
            values.append(acc)
        yield weights[row], values


def _sum_by_column(tuples, counts):
    """Merge equal columns of ``tuples``, adding their int64 ``counts``."""
    order = np.lexsort(tuples)
    tuples, counts = tuples[:, order], counts[order]
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(tuples[:, 1:] != tuples[:, :-1], axis=0)))
    )
    return tuples[:, starts], np.add.reduceat(counts, starts)


def _joint_tally(group, word_letter_lists, classes):
    """Count the class tuples (c_1..c_r) of the r words' values over every
    assignment of the present generators, exactly in int64.

    Returns ``(tuples, counts)``: an (r, m) array whose columns are the
    tuples that occur, and their counts.  With no generator present that
    is the one empty assignment, at the identity class.  A single word
    with a generator to sum out (``_fiber_split``) tallies its segment
    values (b, c) into a dense table of |G|^2 cells, which its fiber table
    turns into class totals.  Otherwise the weights go into one int64
    table of k^r cells while k^r fits ``_DENSE``; past that each chunk's
    tuples are sorted and merged, so the memory grows with the tuples that
    occur, not with k^r.
    """
    k, r = len(classes), len(word_letter_lists)
    if not any(word_letter_lists):
        return np.full((r, 1), classes.identity_class), np.ones(1, dtype=np.int64)
    fiber = _fiber_split(group, word_letter_lists, classes)
    words, base = (fiber[0], group.order) if fiber else (word_letter_lists, k)
    class_of = np.asarray(classes.class_of)
    dense = np.zeros(base ** len(words) if fiber or k**r <= _DENSE else 0, dtype=np.int64)
    tuples = np.zeros((r, 0), dtype=np.int64)
    counts = np.zeros(0, dtype=np.int64)
    for weight, values in _orbit_walk(group, words, classes):
        if not fiber:  # the fiber walk keys its segment values by element
            values = [class_of[value] for value in values]
        if dense.size:  # every walked generator is in a word: keys span the chunk
            key = values[0]
            for value in values[1:]:
                key = key * base + value
            np.add.at(dense, key.ravel(), np.broadcast_to(weight, key.shape).ravel())
            continue
        shape = np.broadcast_shapes(weight.shape, *(v.shape for v in values))
        found = _sum_by_column(
            np.stack([np.broadcast_to(v, shape).ravel() for v in values]),
            np.broadcast_to(weight, shape).ravel(),
        )
        tuples, counts = _sum_by_column(
            np.concatenate((tuples, found[0]), axis=1),
            np.concatenate((counts, found[1])),
        )
    if fiber:
        dense = dense @ classes.fiber_table(*fiber[1])
    if dense.size:
        keys = np.flatnonzero(dense)
        return np.array(np.unravel_index(keys, (k,) * r)), dense[keys]
    return tuples, counts


def element_counts(group, letters, rank, classes) -> np.ndarray:
    """Count, per class of ``classes``, the assignments of ``rank``
    generators under which the word hits any one element of the class.

    Raises GroupValidationError when a class total is not a multiple of the
    class size, i.e. the counts would not be constant on ``classes``.
    """
    (found,), found_counts = _joint_tally(group, [letters], classes)
    totals = np.zeros(len(classes), dtype=np.int64)
    totals[found] = found_counts
    per_element, remainder = np.divmod(totals, np.asarray(classes.sizes, dtype=np.int64))
    if np.any(remainder):
        raise GroupValidationError("word-map counts are not constant on a class")
    return per_element * group.order ** (rank - len(_present_generators([letters])))


def split_character_sum(group, word_letter_lists, rank, classes, chibar) -> np.ndarray:
    """Per row of ``chibar``, the sum over all |G|^rank assignments of the
    product of that row's values at the classes of the words' values.

    ``chibar`` is a (characters x classes) array of class-function values.
    """
    chibar = np.asarray(chibar, dtype=np.complex128)
    present = _present_generators(word_letter_lists)
    scale = float(group.order ** (rank - len(present)))
    if not present:  # the one empty assignment: every word at the identity class
        column = chibar[:, classes.identity_class]
        prod = column if word_letter_lists else np.ones_like(column)
        for _ in word_letter_lists[1:]:
            prod = prod * column
        return (prod + 0.0) * scale  # + 0.0 makes a -0.0 part +0.0, as @ does below
    tuples, counts = _joint_tally(group, word_letter_lists, classes)
    prod = chibar[:, tuples[0]]
    for found in tuples[1:]:
        prod = prod * chibar[:, found]
    return prod @ counts * scale
