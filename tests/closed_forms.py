"""Closed forms for the classical results the expansion reproduces.

Each function gives the coefficient of one character in the expansion of a
word family from the character table alone: products of words on disjoint
letters, a commutator with a fresh letter, [[x,y],z], and the quartic
pairs [a,b]d[a,c]d^-1 and {a,b}d{a,c}d^-1.  The tests check them against
the oracle; no part of the package calls them.
"""

import numpy as np

from wordfourier import ClassFunction


def disjoint_product_coeff(c1, c2, table, chi):
    """Coefficient of w1*w2 for words with disjoint letter sets."""
    return (table.group.order / float(table.degrees[chi])) * c1 * c2


def commutator_with_fresh(coefficients, table, chi):
    """Coefficient of [w, y] for a letter y not occurring in w.

    Equals |G|/chi(1) * <N_w * chi, chi>, computed class-wise from the
    coefficients of N_w.
    """
    values = coefficients @ table.values
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    row = table.values[chi]
    inner = (sizes * values * row * np.conj(row)).sum() / table.group.order
    return (table.group.order / float(table.degrees[chi])) * inner


def nested_commutator_coeff(table, chi):
    """Coefficient of [[x, y], z]: |G|^2/chi(1) * sum_psi <psi chi, chi>/psi(1)."""
    order = table.group.order
    sizes = np.array(table.classes.sizes, dtype=np.float64)
    row = table.values[chi]
    total = 0j
    for psi in range(len(table)):
        inner = (sizes * table.values[psi] * row * np.conj(row)).sum() / order
        total += inner / float(table.degrees[psi])
    return (order**2 / float(table.degrees[chi])) * total


def quartic_pair_coeff(table, chi, variant):
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


def convolve(f1, f2):
    """(f1 * f2)(g) = (1/|G|) sum_h f1(h) f2(h^-1 g), back to class values."""
    group = f1.group
    if f2.group is not group:
        raise ValueError("convolution requires class functions on one group")
    e1 = f1.values[np.asarray(f1.classes.class_of)]
    e2 = f2.values[np.asarray(f2.classes.class_of)]
    n = group.order
    table = e2[group.mul[group.inv[np.arange(n)], :]]  # [h, g] -> f2(h^-1 g)
    out = (e1 @ table) / n
    values = out[np.asarray(f1.classes.representatives)]
    return ClassFunction(group=group, classes=f1.classes, values=values)
