"""Enumeration kernels for the oracle and the formula routes (numpy only).

Both routes sum over the assignments of group elements to the generators,
and both make the same walk, ``_orbit_walk``, and the same exact tally,
``_joint_tally``:

* Generators absent from every word are left out; each one multiplies the
  result by |G|.  With none present the tally is the one empty
  assignment: every word at the identity class, counted once.
* Fiber tables.  A generator z that occurs exactly twice in a single
  word, w = A z^e1 B z^e2 C, is summed out without being walked:
  conjugating by A gives class(w) = class(z^e1 B z^e2 D) with D = C A,
  so the count over z depends only on the values b, d of the segments B
  and D, and ``ConjugacyClasses.fiber_table(e1, e2)`` holds it per
  (b, d) and class.  A second generator y that occurs exactly twice is
  summed out too where the group's triple tables fit: conjugating by the
  letters P before y's first letter in B (or D) leaves three segments
  u, v, t, and ``ConjugacyClasses.second_fiber_table`` holds the count
  over (y, z) per orbit of (u, v, t) under simultaneous conjugation.
  The walk then runs over the other generators and tallies the segment
  values, (b, d) by element or (u, v, t) by orbit row, and that table
  times the fiber table is the class tally (``_fiber_split``).
  Everything else takes the plain walk below: several words, a lone
  generator, no generator that occurs exactly twice, or a table past
  ``_FIBER_CELLS``.
* Orbits.  Every summand depends only on the conjugacy classes of the
  words' values, and those do not change when all generators are
  conjugated by one element (summing z and y out keeps this).  So any d
  of the walked generators, the orbit heads, run over one tuple per orbit of G
  on G^d (``ConjugacyClasses.orbit_rows(d)``), each row weighted by its
  orbit size: d = 1 is the class representatives, weighted by class
  size, d = 2 one pair (x, y) per orbit, y over the orbits of x's
  centraliser, and d = 3 one triple per orbit, the third entry over the
  orbits of C(x) ∩ C(y).  ``_orbit_depth`` takes d = 3 for three or more walked
  generators when the triple table is smaller than the pair table times
  |G| (never for an abelian group, where both have |G|^3 rows) and has at
  most ``_TRIPLE_ROWS`` rows; otherwise d is 2, or 1 for a lone generator.
* Chains.  As many of the other generators as fit in ``_CHUNK`` cells
  are whole broadcast axes of |G|; any left over are enumerated per row
  in mixed-radix order (the orbit row most significant), and a chunk
  takes as many rows as keep it near ``_CHUNK`` cells.  So a product of
  letters costs only the cells of the generators in it.  Each word is
  multiplied as a chain from the left and one from the right, which one
  product joins, and each letter is one add and one ``take`` on a flat
  table: ``FiniteGroup.lifted`` for the left chain, which keeps its value
  times |G|, and ``mul.ravel()`` for the right one.  ``_plan`` picks the
  heads and, per word, where the chains meet, for the fewest cells, in a
  walk larger than a chunk's cells.

The tally counts, in int64, the class tuples (c_1..c_r) of the r words'
values over all assignments.  The int64 row weights are added in place
into one dense table, keyed by class (k^r cells) for the plain walk and
by element (|G|^2 cells) or triple orbit for the fiber walk, so each
count is an exact sum bounded by |G|^rank, which
``fourier._check_budget`` keeps below 2^63.  ``element_counts`` (the
oracle) is the r = 1 tally: a class total divided by its class size,
which must divide it exactly, is the count of each element of the class.  ``split_character_sum`` (the
formula) contracts the tally against the character values at each
tuple's classes, one float sum of exact integers.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from operator import or_

import numpy as np

from .errors import GroupValidationError
from .words import _inverse

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
    """``(segments, table)`` when the tally sums one or two generators out
    through a fiber table, else None.

    It does for a single word with at least two present generators, one
    of which, z, occurs exactly twice, while the |G|^2 x k table fits
    ``_FIBER_CELLS``.  z is the first such generator in order of first
    appearance; for w = A z^e1 B z^e2 C the segments are B and D = C A,
    and the table is ``fiber_table(e1, e2)``, whose rows the key b*|G| + d
    of their values (b, d) names.

    The next generator y occurring exactly twice is summed out as well
    when a third generator is left to walk, the group has at most
    ``_TRIPLE_ROWS`` orbits on triples and |G|^3 fits ``_FIBER_CELLS``.
    Conjugating by P, with u, v, t the segments:

    * y in B and D, B = P y^f1 Q and D = R y^f2 S: u = Q P, v = P^-1 R
      and t = S P, as z^e1 y^f1 u z^e2 v y^f2 t;
    * y twice in B, B = P y^f1 Q y^f2 R: u = Q, v = R P and t = P^-1 D P,
      as z^e1 y^f1 u y^f2 v z^e2 t; y twice in D is this case with B and
      D, and e1 and e2, swapped, as w is conjugate to z^e2 D z^e1 B.

    The table is then ``second_fiber_table``, whose rows the orbit of
    (u, v, t) names (``orbit_index(3)`` at u*|G|^2 + v*|G| + t).
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
    letters = list(letters)  # a word's letters may be a tuple
    i, j = (at for at, (g, _) in enumerate(letters) if g == twice[0])
    b, d = letters[i + 1 : j], letters[j + 1 :] + letters[:i]
    e1, e2 = letters[i][1], letters[j][1]
    if (
        len(twice) < 2
        or len(occurs) < 3
        or order**3 > _FIBER_CELLS
        or sum(c * c for c in classes.centralizer_sizes) > _TRIPLE_ROWS
    ):
        return [b, d], classes.fiber_table(e1, e2)
    y = twice[1]
    if all(g != y for g, _ in b):  # both in D: swap B and D
        b, d, e1, e2 = d, b, e2, e1
    p, q = (at for at, (g, _) in enumerate(b + d) if g == y)
    straddles = q >= len(b)
    before = b[:p]
    if straddles:
        q -= len(b)
        segments = [b[p + 1 :] + before, _inverse(before) + d[:q], d[q + 1 :] + before]
        f2 = d[q][1]
    else:
        segments = [b[p + 1 : q], b[q + 1 :] + before, _inverse(before) + d + before]
        f2 = b[q][1]
    return segments, classes.second_fiber_table(e1, e2, b[p][1], f2, straddles)


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
    walked generators, of which d = ``_orbit_depth``, whichever heads
    ``_plan`` picks, run over R = sum |C(x)|^(d-1) orbit rows, or 0 when
    none is present and nothing is walked.  The walked generators are the
    present ones, less the one or two a fiber table sums out
    (``_fiber_split``)."""
    fiber = _fiber_split(group, word_letter_lists, classes)
    walked = len(_present_generators(fiber[0] if fiber else word_letter_lists))
    if not walked:
        return 0
    depth = _orbit_depth(classes, walked)
    rows = sum(c ** (depth - 1) for c in classes.centralizer_sizes)
    return rows * group.order ** (walked - depth)


def _plan(word_letter_lists, present, depth, inner, order, rows, chunks):
    """How ``_orbit_walk`` lays out and multiplies its words: ``(layout, splits)``.

    ``layout`` is the present generators in the walk's order: ``depth``
    orbit heads, any digits (the first other generators to appear), then
    ``inner`` axes of |G|.  Conjugation acts on every generator at once,
    so any ``depth`` of them may be the heads.  A product of letters over
    the generators M spans (``rows`` if M holds a head or a digit, else
    ``chunks``) times |G| per axis in M cells, summed over the chunks.

    Word i is two chains, its last ``splits[i]`` letters multiplied right
    to left and the others left to right, joined by one product, so each
    letter after the first costs one product.  Along a word of L letters
    the products of letters 0..j grow with j and those of letters j..L-1
    shrink, so the best split takes the cheaper of the two at each j in
    1..L-2, and then the whole word.  The plan takes the heads, and with
    them the splits, of the fewest cells; a tie keeps the first generators
    to appear as heads and the left-to-right chain, a split of 1.

    A walk whose left-to-right chain reads at most ``_CHUNK`` cells in all
    (one per product, row and cell of the axes) keeps that chain and the
    first heads: its products are calls whose fixed cost outweighs any
    cells a plan could save there, and the plan's own cost too.
    """
    splits = [1] * len(word_letter_lists)
    if not inner:  # every choice spans the same cells
        return present, splits
    products = sum(len(letters) - 1 for letters in word_letter_lists if letters)
    if products * rows * order**inner <= _CHUNK:
        return present, splits
    # generator masks, bit g for g: per word w, the products of letters
    # 0..j and j..L-1 for j in 1..L-2, and w itself at the end of both
    prefixes, suffixes = [], []
    for letters in word_letter_lists:
        if len(letters) > 1:
            masks = [1 << g for g, _ in letters]
            before = list(accumulate(masks, or_))
            after = list(accumulate(masks[::-1], or_))[-2:0:-1]
            prefixes += before[1:]
            suffixes += after + before[-1:]
    # a column per choice of heads, the first generators to appear first;
    # the heads and the digits span the rows
    bits = [1 << g for g in present]
    heads = [sum(chosen) for chosen in combinations(bits, depth)]
    spans = heads
    if len(present) > depth + inner:
        free = len(present) - depth - inner
        spans = [h | sum([b for b in bits if not b & h][:free]) for h in heads]
    masks = np.array(prefixes + suffixes, dtype=np.int64)[:, None]
    within = np.bitwise_count(masks & (sum(bits) ^ np.array(spans)))  # axes in each
    powers = np.array([order**k for k in range(inner + 1)])
    cells = np.where(within < np.bitwise_count(masks), rows, chunks) * powers.take(within)
    n = len(prefixes)
    best = int(np.minimum(cells[:n], cells[n:]).sum(axis=0).argmin())
    left = (cells[:n, best] <= cells[n:, best]).tolist()  # where a prefix is cheaper
    at = 0
    for i, letters in enumerate(word_letter_lists):
        if len(letters) > 1:  # L-1 entries, the last the whole word's, always True
            splits[i] = len(letters) - sum(left[at : at + len(letters) - 1])
            at += len(letters) - 1
    head, span = heads[best], spans[best]  # sort heads, then digits, then axes
    return sorted(present, key=lambda g: (not head >> g & 1) + (not span >> g & 1)), splits


def _orbit_walk(group, word_letter_lists, classes, present, lift_first=False):
    """Walk the assignments of the present generators, up to conjugation.

    ``present`` is the words' ``_present_generators``, and is not empty.
    Yields ``(weight, values)`` per chunk of rows.  ``weight`` is the int64
    size of each row's conjugation orbit, and ``values`` holds each word's
    value (an element index, a scalar for an empty word), the first one
    times |G| when ``lift_first``; all broadcast to (rows, |G|, ..., |G|).
    """
    order, inv = group.order, group.inv
    products, lifted = group.mul.ravel(), group.lifted  # a*|G| + b -> ab, ab*|G|
    inverted = {g for letters in word_letter_lists for g, e in letters if e < 0}
    depth = _orbit_depth(classes, len(present))
    *heads, weights = classes.orbit_rows(depth)
    # past the heads, as many whole axes of |G| as fit a chunk, then digits
    inner = 0
    # (|G| = 1 takes none: its axes add no cells, only array dimensions)
    while inner < len(present) - depth and 1 < order ** (inner + 1) <= _CHUNK:
        inner += 1
    free = len(present) - depth - inner
    total = len(weights) * order**free
    rows = max(1, _CHUNK // order**inner)
    layout, splits = _plan(
        word_letter_lists, present, depth, inner, order, total, -(-total // rows)
    )

    letter = {}

    def assign(g, x):  # the letters of g; g^-1 only where a word reads it
        letter[g, 1] = x
        if g in inverted:
            letter[g, -1] = inv[x]

    ndim = 1 + inner
    for axis, g in enumerate(layout[len(layout) - inner :], start=1):
        shape = [1] * ndim
        shape[axis] = order
        assign(g, np.arange(order, dtype=np.int64).reshape(shape))
    column = (-1,) + (1,) * inner
    heads = [head.reshape(column) for head in heads]
    weights = weights.reshape(column)
    # 0-d arrays, which numpy combines with an array faster than Python ints
    scale, identity = np.asarray(order), np.asarray(group.identity)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        if free:  # mixed-radix digits of the chunk's assignments, row first
            row, rest = np.divmod(np.arange(start, stop, dtype=np.int64), order**free)
            digits = [(rest // order**i % order).reshape(column) for i in range(free - 1, -1, -1)]
        else:  # the chunk's rows are a range of the orbit table
            row, digits = slice(start, stop), []
        # the row generators, heads then digits, lead the layout
        for g, x in zip(layout, [head[row] for head in heads] + digits):
            assign(g, x)
        values = []
        for letters, split in zip(word_letter_lists, splits):
            lifting = lift_first and not values
            if len(letters) > 1:
                left = letter[letters[0]] * scale  # left to right, times |G|
                for g, e in letters[1:-split]:
                    left = lifted.take(left + letter[g, e])
                right = letter[letters[-1]]  # right to left: a read of mul.T
                for g, e in letters[-2 : -split - 1 : -1]:
                    right = products.take(letter[g, e] * scale + right)
                values.append((lifted if lifting else products).take(left + right))
            else:  # one letter, or the identity for an empty word
                value = letter[letters[0]] if letters else identity
                values.append(value * scale if lifting else value)
        yield weights[row], values


def _sum_by_column(tuples, counts):
    """Merge equal columns of ``tuples``, adding their int64 ``counts``."""
    order = np.lexsort(tuples)
    tuples, counts = tuples[:, order], counts[order]
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(tuples[:, 1:] != tuples[:, :-1], axis=0)))
    )
    return tuples[:, starts], np.add.reduceat(counts, starts)


def _joint_tally(group, word_letter_lists, classes, present):
    """Count the class tuples (c_1..c_r) of the r words' values over every
    assignment of the ``present`` generators (``_present_generators`` of
    the words), exactly in int64.

    Returns ``(tuples, counts)``: an (r, m) array whose columns are the
    tuples that occur, and their counts.  With no generator present that
    is the one empty assignment, at the identity class.  A single word
    with one or two generators to sum out (``_fiber_split``) tallies its
    segment values into a dense table, (b, d) by element over |G|^2 cells
    or (u, v, t) by orbit row, which its fiber table turns into class
    totals.  Otherwise the weights go into one int64 table of k^r cells
    while k^r fits ``_DENSE``; past that each chunk's tuples are sorted
    and merged, so the memory grows with the tuples that occur, not with
    k^r.
    """
    k, r = len(classes), len(word_letter_lists)
    if not present:
        return np.full((r, 1), classes.identity_class), np.ones(1, dtype=np.int64)
    fiber = _fiber_split(group, word_letter_lists, classes)
    if fiber:
        words, table = fiber
        present = _present_generators(words)
        cells = len(table)
        triples = classes.orbit_index(3) if len(words) == 3 else None
    else:
        words, cells = word_letter_lists, k**r
    if fiber or cells <= _DENSE:
        dense = np.zeros(cells, dtype=np.int64)
        for weight, values in _orbit_walk(group, words, classes, present, bool(fiber)):
            if fiber:  # the segment values key by element: b*|G| + d
                key = values[0] + values[1]
                if triples is not None:  # (u, v, t) by its orbit row
                    key = triples.take(key * group.order + values[2])
            else:
                key = classes.class_of[values[0]]
                for value in values[1:]:
                    key = key * k + classes.class_of[value]
            # every walked generator is in a word: keys span the chunk, and
            # a row's weight is repeated over the cells of its whole axes
            np.add.at(dense, key.ravel(), weight.repeat(key.size // weight.size))
        if fiber:
            dense = dense @ table
        (keys,) = dense.nonzero()
        tuples = keys[None] if r == 1 else np.array(np.unravel_index(keys, (k,) * r))
        return tuples, dense[keys]
    tuples = np.zeros((r, 0), dtype=np.int64)
    counts = np.zeros(0, dtype=np.int64)
    for weight, values in _orbit_walk(group, words, classes, present):
        values = [classes.class_of[value] for value in values]
        shape = np.broadcast_shapes(weight.shape, *(v.shape for v in values))
        found = _sum_by_column(
            np.stack([np.broadcast_to(v, shape).ravel() for v in values]),
            np.broadcast_to(weight, shape).ravel(),
        )
        tuples, counts = _sum_by_column(
            np.concatenate((tuples, found[0]), axis=1),
            np.concatenate((counts, found[1])),
        )
    return tuples, counts


def element_counts(group, letters, rank, classes) -> np.ndarray:
    """Count, per class of ``classes``, the assignments of ``rank``
    generators under which the word hits any one element of the class.

    Raises GroupValidationError when a class total is not a multiple of the
    class size, i.e. the counts would not be constant on ``classes``.
    """
    present = _present_generators([letters])
    (found,), found_counts = _joint_tally(group, [letters], classes, present)
    totals = np.zeros(len(classes), dtype=np.int64)
    totals[found] = found_counts
    per_element, remainder = np.divmod(totals, np.asarray(classes.sizes, dtype=np.int64))
    if np.any(remainder):
        raise GroupValidationError("word-map counts are not constant on a class")
    return per_element * group.order ** (rank - len(present))


def split_character_sum(group, word_letter_lists, rank, classes, chibar) -> np.ndarray:
    """Per row of ``chibar``, the sum over all |G|^rank assignments of the
    product of that row's values at the classes of the words' values.

    ``chibar`` is a (characters x classes) array of class-function values,
    and ``word_letter_lists`` holds at least one word: the exact tally of
    their class tuples (``_joint_tally``) is contracted against it, one
    float sum of exact integers.
    """
    chibar = np.asarray(chibar, dtype=np.complex128)
    present = _present_generators(word_letter_lists)
    tuples, counts = _joint_tally(group, word_letter_lists, classes, present)
    prod = chibar[:, tuples[0]]
    for found in tuples[1:]:
        prod = prod * chibar[:, found]
    return prod @ counts * float(group.order ** (rank - len(present)))
