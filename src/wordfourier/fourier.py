"""Distributions of word maps and their expansion over irreducible characters.

``distribution`` is the exact oracle: it counts, per conjugacy class, the
assignments of group elements to the generators of the word's ambient
alphabet under which the word evaluates to any one element of the class,
and ``project`` turns those counts into one coefficient per character.
``coefficient_formula`` evaluates the symbolic claim carried by a
:class:`~wordfourier.reduction.ReducedForm` instead.  Both routes return
the same thing, a complex array with one coefficient per character row.
A form with no residual generator is a closed form, worked out exactly in
integers (``closed_form_coefficients``) and rounded once; every other
form, and the oracle, go through the one walk and exact int64 tally of
``_kernels``, whose docstring describes it: the oracle's counts are that
tally's integers, and the formula is one float contraction of it.  Both
walks are gated by an evaluation budget, capped at the int64 range, and
fail cleanly rather than approximate.  Class data and tables must have
been built on the group object they are used with; anything else raises
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

    A form with no residual generator is its exact values,
    ``closed_form_coefficients``, each rounded once to complex.  Otherwise
    row chi is the prefactor |G|^a * FS(chi)^s / chi(1)^b, one integer
    quotient rounded once, times ``_kernels.split_character_sum`` of the
    residual words: the sum over residual assignments of the product of
    chibar over those words.  Rows whose prefactor vanishes are 0 without
    enumeration.  Raises FloatRangeError when a coefficient lies past the
    float range.
    """
    _check_same_group(group, table.classes, table)
    exact = closed_form_coefficients(form, group, table)
    if exact is not None:
        return _rounded(exact, form, group)
    order, a, b, s = group.order, form.g_exponent, form.deg_exponent, form.fs_exponent
    num, den = order ** max(a, 0), order ** max(-a, 0)
    prefactor = {}  # row -> its prefactor, where that is not 0
    try:
        for chi, (degree, fs) in enumerate(table.degree_fs):
            # the exact quotient, rounded once: 0 below the float range
            value = num * fs**s / (den * degree**b)
            if value:
                prefactor[chi] = value
    except OverflowError:  # past the float range
        raise _past_float_range(form, group) from None
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
    coefficients = np.zeros(len(table), dtype=np.complex128)
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
    residual words being empty and contributing chi(1) (Frobenius,
    Mednykh), and a ``trivial_only`` form is |G|^a on the trivial row and
    0 elsewhere.  ``coefficient_formula`` returns these values rounded.
    """
    if form.residual_rank:
        return None
    order, a = group.order, form.g_exponent
    num, den = order ** max(a, 0), order ** max(-a, 0)
    if form.trivial_only:
        size = Fraction(num, den)
        return [size if chi == table.trivial_index else Fraction(0) for chi in range(len(table))]
    e, s = len(form.residual_words) - form.deg_exponent, form.fs_exponent
    return [
        Fraction(num * degree ** max(e, 0) * fs**s, den * degree ** max(-e, 0))
        for degree, fs in table.degree_fs
    ]


def _rounded(exact: list[Fraction], form: ReducedForm, group: FiniteGroup) -> np.ndarray:
    """``closed_form_coefficients`` of ``form`` rounded once to complex, as
    ``coefficient_formula`` returns them; FloatRangeError past the float
    range."""
    try:
        return np.array([complex(x) for x in exact], dtype=np.complex128)
    except OverflowError:
        raise _past_float_range(form, group) from None


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
