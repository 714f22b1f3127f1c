"""Build the built-in groups from generators.

``wordfourier`` loads its built-in groups from the data files under
``src/wordfourier/data/``; this module is what ``tools/make_data.py``
builds those files from, and what the tests check them against.  Nothing
in the package imports it.

Composition convention, fixed repo-wide: products read left to right.  For
permutations ``compose(p, q)`` applies ``p`` first and ``q`` second, and
``mul[g, h]`` is "g then h".  All derived values in the test suite are
computed under this convention.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from wordfourier.errors import GroupValidationError
from wordfourier.groups import FiniteGroup

CLOSURE_BOUND = 10_000


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Left-to-right composition: apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_from_cycles(npoints: int, cycles: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Build a permutation of {0..npoints-1} from 1-based disjoint cycles."""
    images = list(range(npoints))
    for cycle in cycles:
        pts = [c - 1 for c in cycle]
        if any(not 0 <= p < npoints for p in pts) or len(set(pts)) != len(pts):
            raise ValueError(f"bad cycle {tuple(cycle)} on {npoints} points")
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def cycle_notation(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "e"


def _closure(
    generators: Sequence,
    product: Callable,
    identity,
    bound: int,
) -> list:
    """Breadth-first closure under right multiplication by the generators.

    Deterministic element order: discovery order, identity first.
    """
    elements = [identity]
    index = {identity: 0}
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        cursor += 1
        for g in generators:
            nxt = product(current, g)
            if nxt not in index:
                if len(elements) >= bound:
                    raise GroupValidationError(
                        f"closure exceeds the configured bound of {bound} elements"
                    )
                index[nxt] = len(elements)
                elements.append(nxt)
    return elements


def group_from_mul_function(
    generators: Sequence,
    product: Callable,
    identity,
    name: str = "G",
    bound: int = CLOSURE_BOUND,
) -> tuple[FiniteGroup, list]:
    """Close hashable abstract elements under an associative product.

    Returns the group and its elements, listed in the order of the table's
    rows.
    """
    elements = _closure(generators, product, identity, bound)
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index[product(a, b)]
    return FiniteGroup(mul, name=name), elements


def group_from_generators(
    perms: Sequence[Sequence[int]],
    name: str = "G",
    bound: int = CLOSURE_BOUND,
) -> tuple[FiniteGroup, list]:
    """Closure of permutations (0-based image tuples) under composition:
    the group and its permutations, in the order of the table's rows."""
    if not perms:
        raise GroupValidationError("at least one generator is required")
    npoints = len(perms[0])
    cleaned = []
    for p in perms:
        p = tuple(int(i) for i in p)
        if len(p) != npoints or sorted(p) != list(range(npoints)):
            raise GroupValidationError(f"not a permutation of {npoints} points: {p}")
        cleaned.append(p)
    identity = tuple(range(npoints))
    return group_from_mul_function(cleaned, compose, identity, name=name, bound=bound)


def _quaternion_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    # elements (sign, axis) with axes 0=1, 1=i, 2=j, 3=k
    sa, xa = a
    sb, xb = b
    if xa == 0:
        return (sa * sb, xb)
    if xb == 0:
        return (sa * sb, xa)
    if xa == xb:
        return (-sa * sb, 0)
    # i*j=k, j*k=i, k*i=j and the reversed products carry a minus sign
    axis = ({1, 2, 3} - {xa, xb}).pop()
    sign = 1 if (xa, xb) in ((1, 2), (2, 3), (3, 1)) else -1
    return (sign * sa * sb, axis)


# name -> (points, the generators' 1-based cycles); Q8 is built from i and j
_PERMUTATION_GENERATORS = {
    "A4": (4, ([(1, 2, 3)], [(1, 2), (3, 4)])),
    "D4": (4, ([(1, 2, 3, 4)], [(1, 3)])),
    "D5": (5, ([(1, 2, 3, 4, 5)], [(2, 5), (3, 4)])),
    "S3": (3, ([(1, 2)], [(1, 2, 3)])),
    "S4": (4, ([(1, 2)], [(1, 2, 3, 4)])),
    **{f"Z{n}": (n, ([tuple(range(1, n + 1))],)) for n in range(1, 13)},
}


def build_builtin(name: str) -> FiniteGroup:
    """Construct the built-in group ``name`` (as ``BUILTIN_NAMES`` spells
    it) from its generators."""
    if name == "Q8":
        group, _ = group_from_mul_function(
            [(1, 1), (1, 2)], _quaternion_product, (1, 0), name="Q8"
        )
        return group
    points, generators = _PERMUTATION_GENERATORS[name]
    group, _ = group_from_generators(
        [perm_from_cycles(points, cycles) for cycles in generators], name=name
    )
    return group
