"""Distributions of word maps and their expansion over irreducible characters.

``distribution`` is the exact oracle: it counts, per conjugacy class, the
assignments of group elements to the generators of the word's ambient
alphabet under which the word evaluates to any one element of the class,
and ``project`` turns those counts into one coefficient per character.
``coefficient_formula`` evaluates the symbolic claim carried by a
:class:`~wordfourier.reduction.ReducedForm` instead.  Both routes return
the same thing, a complex array with one coefficient per character row.
Both go through the one walk and tally in ``_kernels`` (numpy only): the
first two or three generators to appear run over one tuple per orbit of
simultaneous conjugation, weighted by orbit size, later generators share the letters
evaluated before them, and absent generators contribute a factor |G| each.
In a single word, a generator z occurring exactly twice is not walked:
w = A z^e1 B z^e2 C is conjugate to z^e1 B z^e2 (C A), so the walk
tallies the values of B and C A and a cached table of counts over z turns that into
the class tally (the oracle takes this path; the formula's residual words,
as a rule, do not, and several words or a word with no such generator take
the plain walk).  The walk tallies the class tuples of the words' values
exactly in int64: the oracle's counts are that tally's integers, and the
formula is one float contraction of it.  Both are gated by an evaluation
budget, capped at the int64 range, and fail cleanly rather than
approximate.  Class data and tables must have been built on the group
object they are used with; anything else raises
:class:`GroupValidationError`.  Both are checked once, when they are built
(the class data are worked out from the group), and trusted here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from ._defaults import DEFAULT_BUDGET
# fs_indicator is not called here, but perfbench/spans.py wraps it by this name
from .chartable import CharacterTable, fs_indicator
from .errors import BudgetExceededError, FloatRangeError, GroupValidationError
from .groups import ConjugacyClasses, FiniteGroup, conjugacy_classes
from .reduction import ReducedForm, prefactor_str
from .words import Word


@dataclass(frozen=True)
class ClassFunction:
    """A function on the group constant on conjugacy classes."""

    group: FiniteGroup
    classes: ConjugacyClasses
    values: np.ndarray  # one value per class


_INT64_MAX = 2**63 - 1


def _check_budget(total: int, budget: int) -> None:
    """Raise past the budget, and past int64 whatever the budget says."""
    limit = min(budget, _INT64_MAX)
    if total > limit:
        raise BudgetExceededError(total, limit)


def _check_same_group(group: FiniteGroup, classes: ConjugacyClasses, *tables) -> None:
    """Raise unless the class data and tables were built on this group object."""
    if classes.group is not group or any(
        table.group is not group or table.classes.group is not group for table in tables
    ):
        raise GroupValidationError(
            f"class data or character table does not belong to group {group.name}"
        )


def distribution(
    word: Word,
    group: FiniteGroup,
    classes: ConjugacyClasses | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ClassFunction:
    """Exact fiber counts of the word map, one value per class.

    This is the oracle the rest of the package is checked against.  The
    counts are integers summing to |G|^d for ambient rank d.
    """
    if classes is None:
        classes = conjugacy_classes(group)
    _check_same_group(group, classes)
    rank = word.alphabet.rank
    _check_budget(group.order**rank, budget)
    counts = _kernels.element_counts(group, word.letters, rank, classes)
    return ClassFunction(group=group, classes=classes, values=counts)


def project(function: ClassFunction, table: CharacterTable) -> np.ndarray:
    """Inner products <f, chi> = (1/|G|) sum_g f(g) chibar(g), class-wise:
    one complex coefficient per character row, as ``coefficient_formula``
    returns."""
    _check_same_group(function.group, function.classes, table)
    sizes = np.array(function.classes.sizes, dtype=np.float64)
    weighted = function.values * sizes
    return (table.conjugates @ weighted) / function.group.order


def coefficient_formula(
    form: ReducedForm,
    group: FiniteGroup,
    table: CharacterTable,
    *,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Evaluate the reduced-form claim for every character row.

    Row chi is |G|^a / chi(1)^b * FS(chi)^s times the sum over residual
    assignments of the product of chibar over the residual words; the
    empty residual alphabet contributes the single empty assignment, under
    which every residual word evaluates to the identity and chibar gives
    chi(1).  Rows whose prefactor vanishes are 0 without enumeration.
    Raises FloatRangeError when a coefficient lies past the float range.
    """
    _check_same_group(group, table.classes, table)
    order = group.order
    coefficients = np.zeros(len(table), dtype=np.complex128)
    try:
        if form.trivial_only:
            coefficients[table.trivial_index] = order**form.g_exponent
            return coefficients
        scale = float(order) ** form.g_exponent
    except OverflowError:
        raise _past_float_range(form, group) from None
    b, s = form.deg_exponent, form.fs_exponent
    prefactor = {}  # row -> its prefactor, where that is not 0
    for chi, (degree, fs) in enumerate(table.degree_fs):
        try:
            value = scale / degree**b  # the exact power, rounded once
        except OverflowError:  # a power past the float range leaves 0
            continue
        if s:
            value *= fs**s
        if value:
            prefactor[chi] = value
    rank = form.residual_rank
    _check_budget(order**rank, budget)
    live = list(prefactor)
    inner = _kernels.split_character_sum(
        group,
        [w.letters for w in form.residual_words],
        rank,
        table.classes,
        table.conjugates if len(live) == len(table) else table.conjugates[live],
    )
    # Python's float * complex overflows to inf without a warning
    coefficients[live] = [p * z for p, z in zip(prefactor.values(), inner.tolist())]
    if not np.isfinite(coefficients).all():
        raise _past_float_range(form, group)
    return coefficients


def _past_float_range(form: ReducedForm, group: FiniteGroup) -> FloatRangeError:
    what = f"a coefficient with prefactor {prefactor_str(form)} over {group.name}"
    return FloatRangeError(f"{what} is past the float range")


def rational_annotation(
    value: complex, denominators, tol: float = 1e-6
) -> Fraction | None:
    """The fraction p/q within tol of ``value`` with the smallest allowed q,
    or None.  Raises FloatRangeError when ``value`` times q is not finite."""
    if abs(complex(value).imag) > tol:
        return None
    real = complex(value).real
    for q in sorted({int(d) for d in denominators}):
        if q <= 0:
            continue
        if not math.isfinite(real * q):
            raise FloatRangeError(f"coefficient {real!r} times {q} is past the float range")
        p = round(real * q)
        if abs(real - p / q) <= tol:
            return Fraction(p, q)
    return None


def divisors(n: int) -> tuple[int, ...]:
    return _divisors(abs(int(n)))


@functools.lru_cache(maxsize=1024)  # expand asks for the divisors of |G|/chi(1) per row
def _divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])
