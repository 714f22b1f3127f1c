"""Distributions of word maps and their expansion over irreducible characters.

``distribution`` is the exact oracle: it counts, per conjugacy class, the
assignments of group elements to the generators of the word's ambient
alphabet under which the word evaluates to any one element of the class,
and ``project`` turns those counts into one coefficient per character.
``coefficient_formula`` evaluates the symbolic claim carried by a
:class:`~wordfourier.reduction.ReducedForm` instead.  Both routes return
the same thing, a complex array with one coefficient per character row.
Both go through the one walk and tally in ``_kernels`` (numpy only): two
or three of the generators run over one tuple per orbit of simultaneous
conjugation, weighted by orbit size, each word is multiplied as two chains
that share the letters evaluated before them, and absent generators
contribute a factor |G| each.
In a single word, one or two generators occurring exactly twice are not
walked: w = A z^e1 B z^e2 C is conjugate to z^e1 B z^e2 (C A), so the
walk tallies the values of B and C A and a cached table of counts over z
turns that into the class tally; a second such generator y splits those
segments into three, whose triple is keyed by its orbit under
conjugation, and a cached table of counts over (y, z) turns that tally
into the class tally (the oracle takes this path; the formula's residual
words, as a rule, do not, and several words or a word with no such
generator take the plain walk).  The walk tallies the class tuples of the words' values
exactly in int64: the oracle's counts are that tally's integers, and the
formula is one float contraction of it.  Both are gated by an evaluation
budget, capped at the int64 range, and fail cleanly rather than
approximate.  Class data and tables must have been built on the group
object they are used with; anything else raises
:class:`GroupValidationError`.  Both are checked once, when they are built
(the class data are worked out from the group), and trusted here.
"""

from __future__ import annotations

import cmath
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
    values = [p * z for p, z in zip(prefactor.values(), inner.tolist())]
    if not all(map(cmath.isfinite, values)):
        raise _past_float_range(form, group)
    coefficients[live] = values
    return coefficients


def _past_float_range(form: ReducedForm, group: FiniteGroup) -> FloatRangeError:
    what = f"a coefficient with prefactor {prefactor_str(form)} over {group.name}"
    return FloatRangeError(f"{what} is past the float range")


def closed_form_coefficients(
    form: ReducedForm, group: FiniteGroup, table: CharacterTable
) -> list[Fraction] | None:
    """Each row's coefficient as an exact fraction, worked out from
    integers alone, when the form has no residual generator; else None.

    Row chi is then |G|^a * FS(chi)^s * chi(1)^(r - b), each of the r
    residual words being empty and contributing chi(1), and a
    ``trivial_only`` form is |G|^a on the trivial row and 0 elsewhere.
    """
    if form.residual_rank:
        return None
    order, a = group.order, form.g_exponent
    if form.trivial_only:
        size = Fraction(order) ** a
        return [size if chi == table.trivial_index else Fraction(0) for chi in range(len(table))]
    e, s = len(form.residual_words) - form.deg_exponent, form.fs_exponent
    rows = []
    for degree, fs in table.degree_fs:
        num = order ** max(a, 0) * degree ** max(e, 0) * fs**s
        rows.append(Fraction(num, order ** max(-a, 0) * degree ** max(-e, 0)))
    return rows


def rational_annotation(value: complex, n: int, tol: float = 1e-6) -> Fraction | None:
    """The multiple p/n of 1/n nearest ``value``, if it lies within tol, else
    None.  ``value * n`` is rounded exactly in integers, half to even as
    ``round`` does, so a finite value never overflows."""
    value = complex(value)
    if abs(value.imag) > tol:
        return None
    num, den = value.real.as_integer_ratio()
    p, rest = divmod(num * n, den)  # den > 0, so 0 <= rest < den
    if 2 * rest > den or (2 * rest == den and p & 1):
        p += 1
    return Fraction(p, n) if abs(value.real - p / n) <= tol else None
