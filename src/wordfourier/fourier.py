"""Distributions of word maps and their expansion over irreducible characters.

``distribution`` is the exact oracle: it counts, per group element, the
assignments of group elements to the generators of the word's ambient
alphabet under which the word evaluates to it.  ``coefficient_formula``
evaluates the symbolic claim carried by a
:class:`~wordfourier.reduction.ReducedForm` instead, for every character
at once.  Both go through the one walk in ``_kernels`` (numpy only): the
first generator to appear runs over conjugacy class representatives,
weighted by class size, later generators share the letters evaluated
before them, and absent generators contribute a factor |G| each.  The
oracle's counts are exact integers.  Both are gated by an evaluation
budget, capped at the int64 range, and fail cleanly rather than
approximate.  Class data, tables and groups must belong to one group
object, and the class data must be that group's conjugation orbits;
anything else raises :class:`GroupValidationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .chartable import CharacterTable, fs_indicator
from .errors import BudgetExceededError, GroupValidationError
from .groups import ConjugacyClasses, FiniteGroup, conjugacy_classes
from .reduction import ReducedForm
from .words import Word

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ClassFunction:
    """A function on the group constant on conjugacy classes."""

    group: FiniteGroup
    classes: ConjugacyClasses
    values: np.ndarray  # one value per class

    def element_values(self) -> np.ndarray:
        return self.values[np.asarray(self.classes.class_of)]

    def total(self):
        sizes = np.array(self.classes.sizes)
        return (sizes * self.values).sum()


@dataclass(frozen=True)
class FourierExpansion:
    """Coefficients of a class function over the irreducible characters."""

    table: CharacterTable
    coefficients: np.ndarray  # one complex coefficient per character row

    def reconstruct(self) -> np.ndarray:
        """Class values of sum_chi coeff(chi) * chi."""
        return self.coefficients @ self.table.values


_INT64_MAX = 2**63 - 1


def _check_budget(total: int, budget: int) -> None:
    """Raise past the budget, and past int64 whatever the budget says."""
    limit = min(budget, _INT64_MAX)
    if total > limit:
        raise BudgetExceededError(total, limit)


def _check_same_group(group: FiniteGroup, classes: ConjugacyClasses, *tables) -> None:
    """Raise unless the class data and tables were built on this group object
    and the classes are its conjugation orbits.

    The kernels walk one representative per class and weight it by the
    class size, so every class must be exactly the orbit of its
    representative, the orbits must cover G, and the sizes must count the
    members.
    """
    if classes.group is not group or any(
        table.group is not group
        or not np.array_equal(table.classes.class_of, classes.class_of)
        for table in tables
    ):
        raise GroupValidationError(
            f"class data or character table does not belong to group {group.name}"
        )
    class_of = np.asarray(classes.class_of)
    k = len(classes)
    # [h, c] -> h r_c h^-1, the orbit of representative c down column c
    orbits = group.mul[group.mul[:, classes.representatives], group.inv[:, None]]
    if (
        class_of.shape != (group.order,)
        or not np.bincount(orbits.ravel(), minlength=group.order).all()
        or np.any(class_of[orbits] != np.arange(k))
        or np.bincount(class_of, minlength=k).tolist() != list(classes.sizes)
    ):
        raise GroupValidationError(
            f"class data are not the conjugacy classes of group {group.name}"
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
    class_values = counts[np.asarray(classes.representatives, dtype=np.int64)]
    return ClassFunction(group=group, classes=classes, values=class_values)


def project(function: ClassFunction, table: CharacterTable) -> FourierExpansion:
    """Inner products <f, chi> = (1/|G|) sum_g f(g) chibar(g), class-wise."""
    _check_same_group(function.group, function.classes, table)
    sizes = np.array(function.classes.sizes, dtype=np.float64)
    weighted = function.values * sizes
    coefficients = (table.values.conj() @ weighted) / function.group.order
    return FourierExpansion(table=table, coefficients=coefficients)


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
    """
    _check_same_group(group, table.classes, table)
    order = group.order
    coefficients = np.zeros(len(table), dtype=np.complex128)
    if form.trivial_only:
        coefficients[table.trivial_index] = order**form.g_exponent
        return coefficients
    degrees = table.degrees.astype(np.float64)
    prefactor = float(order) ** form.g_exponent / degrees**form.deg_exponent
    if form.fs_exponent:
        fs = [fs_indicator(table, chi) for chi in range(len(table))]
        prefactor *= np.array(fs, dtype=np.float64) ** form.fs_exponent
    rank = form.residual_rank
    _check_budget(order**rank, budget)
    live = np.flatnonzero(prefactor)
    inner = _kernels.split_character_sum(
        group,
        [w.letters for w in form.residual_words],
        rank,
        table.classes,
        np.conj(table.values[live]),
    )
    coefficients[live] = prefactor[live] * inner
    return coefficients


def inverse_coeff(coefficient: complex) -> complex:
    """Coefficient of the inverse word: the complex conjugate."""
    return complex(coefficient).conjugate()


def disjoint_product_coeff(
    c1: complex, c2: complex, table: CharacterTable, chi: int
) -> complex:
    """Coefficient of w1*w2 for words with disjoint letter sets."""
    return (table.group.order / float(table.degrees[chi])) * c1 * c2


def commutator_with_fresh(
    expansion: FourierExpansion, table: CharacterTable, chi: int
) -> complex:
    """Coefficient of [w, y] for a letter y not occurring in w.

    Equals |G|/chi(1) * <N_w * chi, chi>, computed class-wise from the
    expansion of N_w.
    """
    values = expansion.reconstruct()
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    row = table.values[chi]
    inner = (sizes * values * row * np.conj(row)).sum() / table.group.order
    return (table.group.order / float(table.degrees[chi])) * inner


def nested_commutator_coeff(table: CharacterTable, chi: int) -> complex:
    """Coefficient of [[x, y], z]: |G|^2/chi(1) * sum_psi <psi chi, chi>/psi(1)."""
    order = table.group.order
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    row = table.values[chi]
    total = 0j
    for psi in range(len(table)):
        inner = (sizes * table.values[psi] * row * np.conj(row)).sum() / order
        total += inner / float(table.degrees[psi])
    return (order**2 / float(table.degrees[chi])) * total


def quartic_pair_coeff(table: CharacterTable, chi: int, variant: str) -> complex:
    """Class sums |G|^2/chi(1)^3 * sum_g |chi(g)|^4 (absolute) or chi(g)^4 (plain).

    These are the coefficients of [a,b]d[a,c]d^-1 and of its brace variant
    {a,b}d{a,c}d^-1.
    """
    if variant not in ("absolute", "plain"):
        raise ValueError(f"variant must be 'absolute' or 'plain', got {variant!r}")
    order = table.group.order
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    row = table.values[chi]
    fourth = np.abs(row) ** 4 if variant == "absolute" else row**4
    return (order**2 / float(table.degrees[chi]) ** 3) * (sizes * fourth).sum()


def convolve(f1: ClassFunction, f2: ClassFunction) -> ClassFunction:
    """(f1 * f2)(g) = (1/|G|) sum_h f1(h) f2(h^-1 g), back to class values."""
    group = f1.group
    if f2.group is not group:
        raise ValueError("convolution requires class functions on one group")
    e1 = f1.element_values()
    e2 = f2.element_values()
    n = group.order
    table = e2[group.mul[group.inv[np.arange(n)], :]]  # [h, g] -> f2(h^-1 g)
    out = (e1 @ table) / n
    class_of = np.asarray(f1.classes.class_of)
    values = np.array(
        [out[class_of == c][0] for c in range(len(f1.classes))], dtype=out.dtype
    )
    return ClassFunction(group=group, classes=f1.classes, values=values)


def rational_annotation(
    value: complex, denominators, tol: float = 1e-6
) -> Fraction | None:
    """The fraction p/q nearest ``value`` over allowed q, when within tol."""
    if abs(complex(value).imag) > tol:
        return None
    real = complex(value).real
    for q in sorted(set(int(d) for d in denominators)):
        if q <= 0:
            continue
        p = round(real * q)
        if abs(real - p / q) <= tol:
            return Fraction(p, q)
    return None


def divisors(n: int) -> tuple[int, ...]:
    n = abs(int(n))
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])
