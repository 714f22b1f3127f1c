"""Right answers for benchmark queries, worked out apart from the timed loop.

Two references:

* surface: a word in which every letter occurs exactly twice is the
  relator of a closed surface.  Gluing the polygon's corners gives the
  vertex count V, then chi = V - n + 1 and k = 2 - chi.  The coefficient
  of an irreducible character is |G|^(V-1) * (|G|/chi(1))^(k-1) * FS^k for
  a non-orientable surface and the same without FS^k for an orientable
  one (Frobenius 1896, Mednykh 1978).  It needs no enumeration, so it
  checks words far past the oracle's reach.
* oracle: the program's exhaustive ``distribution``, run once per
  distinct query.

An expand answer is checked by rebuilding the fiber counts
N_w(g) = sum_chi c_chi chi(g) from its coefficients and comparing them
with the reference counts within 1e-9 * |G|^d.  Below |G|^d = 5e8 that
tolerance is under 1/2, so the rebuilt counts must round to exactly the
reference integers.  A reduce answer is checked exactly, in rationals,
against the surface coefficient on groups whose characters have every
Frobenius-Schur indicator.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from queries import surface
from wordfourier import builtin_group, builtin_table, distribution, parse_word

REL_TOL = 1e-9
REDUCE_CHECK_GROUPS = ("Z3", "S3", "Q8")  # indicators 0, +1 and -1 all occur


def surface_coefficient(letters, order: int, degree: int, fs: int) -> Fraction:
    vertices, euler, orientable = surface(letters)
    k = 2 - euler
    value = Fraction(order) ** (vertices - 1) * Fraction(order, degree) ** (k - 1)
    return value if orientable else value * Fraction(fs) ** k


def indicators(table) -> list[int]:
    """Frobenius-Schur indicators (1/|G|) sum_g chi(g^2), from the group table.

    Worked out here rather than with the program's ``fs_indicator`` so that
    the reference does not lean on the code it checks.
    """
    group = table.group
    elements = np.arange(group.order)
    squares = np.asarray(table.classes.class_of)[group.mul[elements, elements]]
    sums = table.values[:, squares].sum(axis=1) / group.order
    return [int(round(v.real)) for v in sums]


class Checker:
    """Checks query outputs; loads each group's table once."""

    def __init__(self):
        self._tables = {}

    def table(self, name: str):
        if name not in self._tables:
            self._tables[name] = builtin_table(builtin_group(name))
        return self._tables[name]

    def check(self, query, stdout: str) -> str | None:
        """None when the output is right, else what is wrong with it."""
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if query.command == "reduce":
            return self._check_reduce(query, doc)
        return self._check_expand(query, doc)

    def _check_reduce(self, query, doc) -> str | None:
        if doc["trivial_only"] or doc["residual_alphabet"] or any(
            w != "1" for w in doc["residual_words"]
        ):
            return "a two-occurrence word did not reduce to a closed form"
        pre = doc["prefactor"]
        a, b, s = pre["g_exponent"], pre["deg_exponent"], pre["fs_exponent"]
        r = len(doc["residual_words"])
        for name in REDUCE_CHECK_GROUPS:
            table = self.table(name)
            order = table.group.order
            for chi, fs in enumerate(indicators(table)):
                degree = int(table.degrees[chi])
                claim = Fraction(order) ** a * Fraction(degree) ** (r - b) * Fraction(fs) ** s
                if claim != surface_coefficient(query.letters, order, degree, fs):
                    return f"closed form differs from the surface value on {name}, chi={chi}"
        return None

    def reference_counts(self, query, table) -> tuple[np.ndarray, int]:
        order = table.group.order
        if query.reference == "surface":
            coefficients = [
                float(surface_coefficient(query.letters, order, int(table.degrees[chi]), fs))
                for chi, fs in enumerate(indicators(table))
            ]
            rank = len({name for name, _ in query.letters})
            return np.array(coefficients) @ table.values, order**rank
        word = parse_word(query.word)
        size = order**word.alphabet.rank
        dist = distribution(word, table.group, classes=table.classes, budget=size)
        return dist.values, size

    def _check_expand(self, query, doc) -> str | None:
        table = self.table(query.group)
        if doc["group"] != query.group or len(doc["rows"]) != len(table):
            return "answer is for another group"
        reference, size = self.reference_counts(query, table)
        tol = REL_TOL * size
        columns = ("coefficient", "oracle") if "--verify" in query.argv else ("coefficient",)
        for column in columns:
            coefficients = np.array([complex(*row[column]) for row in doc["rows"]])
            counts = coefficients @ table.values
            worst = float(np.max(np.abs(counts - reference)))
            if not worst <= tol:
                return (
                    f"{column} fiber counts differ from the {query.reference} reference "
                    f"by {worst:.3g} > {tol:.3g}"
                )
        return None
