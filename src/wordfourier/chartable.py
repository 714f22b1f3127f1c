"""Irreducible character tables: computation, file I/O, validation.

Every table is validated when it is built against row and column
orthogonality (tolerance 1e-9) and the degree identity, and every row's
Frobenius-Schur indicator must lie within ``FS_TOL`` of -1, 0 or +1.
Then each value, a sum of chi(1) roots of unity, is rebuilt from their
multiplicities, which must be non-negative integers, so every rational
real or imaginary part is an exact multiple of 1/2.  The table keeps the
indicators, the index of its trivial row, the conjugate values and each
row's (degree, indicator) as Python ints, so users read them without
checking or building again.
Tables are computed by simultaneously diagonalizing the class-sum
multiplication matrices of the group's class algebra: one fixed real
linear combination of those matrices has the character-column vectors as
eigenvectors, so a group's computed table is always the same.
Tables are immutable: attributes cannot be reassigned and the arrays are
read-only.  The table of each built-in group is computed once per process
and then shared; no table is shipped.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import CharacterComputationError, TableValidationError
from .groups import (
    ConjugacyClasses,
    FiniteGroup,
    _canonical_name,
    conjugacy_classes,
    is_builtin,
)

ORTHOGONALITY_TOL = 1e-9
FS_TOL = 1e-6
COMPUTE_ORDER_BOUND = 120


class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes."""

    __slots__ = (
        "group", "classes", "values", "degrees", "indicators", "trivial_index",
        "conjugates", "degree_fs",
    )

    def __init__(self, group: FiniteGroup, classes: ConjugacyClasses, values: np.ndarray):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.complex128))
        k = len(classes)
        if values.shape != (k, k):
            raise TableValidationError(
                f"need {k} rows of {k} values, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise TableValidationError("character values must be finite")
        order = group.order
        sizes = np.array(classes.sizes, dtype=np.float64)

        raw_degrees = values[:, classes.identity_class]
        degrees = np.rint(raw_degrees.real).astype(np.int64)
        if np.any(np.abs(raw_degrees - degrees) > 1e-6) or np.any(degrees < 1):
            raise TableValidationError("degrees must be positive integers")
        if int((degrees**2).sum()) != order:
            raise TableValidationError(
                f"sum of squared degrees {int((degrees**2).sum())} != |G| = {order}"
            )

        # row orthogonality: (1/|G|) sum_g chi(g) psi~(g) = delta
        gram = (values * sizes) @ values.conj().T / order
        if np.max(np.abs(gram - np.eye(k))) > ORTHOGONALITY_TOL:
            raise TableValidationError("row orthogonality violated")
        # column orthogonality: sum_chi chi(g) chi~(h) = |C(g)| delta
        col = values.conj().T @ values
        expected = np.diag(np.array(classes.centralizer_sizes, dtype=np.float64))
        if np.max(np.abs(col - expected)) > ORTHOGONALITY_TOL * order:
            raise TableValidationError("column orthogonality violated")

        # Frobenius-Schur: (1/|G|) sum_g chi(g^2), summed class-wise
        squared = values[:, list(classes.power_class_map)]
        indicators = []
        for chi, value in enumerate((squared * sizes).sum(axis=1) / order):
            value = complex(value)
            nearest = round(value.real)
            # |value - nearest| bounds the imaginary part too
            if nearest not in (-1, 0, 1) or abs(value - nearest) > FS_TOL:
                raise TableValidationError(
                    f"indicator {value} of row {chi} is not near -1, 0 or +1"
                )
            indicators.append(nearest)
        trivial = np.flatnonzero(np.isclose(values, 1.0, atol=1e-9).all(axis=1))
        if not trivial.size:
            raise TableValidationError("no trivial character row")

        # chi(rep) is a sum of chi(1) m-th roots of unity, m = ord(rep), and
        # zeta^i occurs (1/m) sum_j chi(rep^j) zeta^(-ij) times: rebuild each
        # value from those integers, then snap rational parts onto 1/2 Z
        exact = np.empty_like(values)
        for c, rep in enumerate(classes.representatives):
            powers = [group.identity]
            while (g := int(group.mul[powers[-1], rep])) != group.identity:
                powers.append(g)
            m = len(powers)
            # zeta^i for i in (-m/2, m/2], so that zeta^-i is the exact conjugate
            roots = np.exp(2j * np.pi * ((np.arange(m) + m // 2) % m - m // 2) / m)
            ij = np.outer(range(m), range(m))
            counts = values[:, classes.class_of[powers]] @ roots[-ij % m] / m
            whole = np.rint(counts.real)
            bad = np.flatnonzero(((np.abs(counts - whole) > 1e-6) | (whole < 0)).any(axis=1))
            if bad.size:
                raise TableValidationError(f"row {bad[0]} is not a character: its eigenvalue "
                                           f"multiplicities on class {c} are not non-negative integers")
            exact[:, c] = whole @ roots
        for part in (exact.real, exact.imag):
            halves = np.rint(2 * part) / 2 + 0.0  # + 0.0 turns -0.0 into 0.0
            np.copyto(part, halves, where=np.abs(part - halves) < 1e-9)
        values = exact
        conjugates = np.conj(values)
        for array in (values, degrees, conjugates):
            array.setflags(write=False)
        for attr, value in (
            ("group", group),
            ("classes", classes),
            ("values", values),
            ("degrees", degrees),
            ("indicators", tuple(indicators)),
            ("trivial_index", int(trivial[0])),
            ("conjugates", conjugates),
            ("degree_fs", tuple(zip(degrees.tolist(), indicators))),
        ):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"CharacterTable is immutable; cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"CharacterTable is immutable; cannot delete {attr!r}")

    def __reduce__(self):
        # slot state is restored by assignment, which __setattr__ refuses
        return (CharacterTable, (self.group, self.classes, self.values))

    def __len__(self) -> int:
        return len(self.degrees)

    def __repr__(self) -> str:
        return f"CharacterTable({self.group.name}, degrees={self.degrees.tolist()})"


def fs_indicator(table: CharacterTable, chi: int) -> int:
    """Frobenius-Schur indicator: (1/|G|) sum_g chi(g^2), in {-1, 0, +1},
    as checked when the table was built."""
    return table.indicators[chi]


# ---------------------------------------------------------------------------
# computation via the class algebra

def _structure_constants(group: FiniteGroup, classes: ConjugacyClasses) -> np.ndarray:
    """a[i, j, l]: multiplicity of class l in the product of class sums i, j."""
    n = group.order
    k = len(classes)
    cls = np.asarray(classes.class_of)
    inv_all = group.inv[np.arange(n)]
    a = np.zeros((k, k, k), dtype=np.float64)
    for l, z in enumerate(classes.representatives):
        j_of_x = cls[group.mul[inv_all, z]]  # class of x^-1 z, per x
        np.add.at(a[:, :, l], (cls, j_of_x), 1.0)
    return a


def compute_character_table(group: FiniteGroup) -> CharacterTable:
    """Compute the table of irreducible characters of a group of order at
    most ``COMPUTE_ORDER_BOUND``.

    The class-sum matrices are combined with the weights of the first
    ``random.Random(0).gauss(0, 1)`` draws, one fixed combination, so the
    same group always gives the same table.  Rows come out ordered by
    degree, then lexicographically by value.  Raises
    :class:`CharacterComputationError` when that combination does not
    separate the characters: two eigenvalues too close, an eigenvector
    that vanishes on the identity class, a non-integral degree, or rows
    that fail the table's validation.
    """
    if group.order > COMPUTE_ORDER_BOUND:
        raise CharacterComputationError(
            f"|{group.name}| = {group.order} exceeds the computation bound "
            f"{COMPUTE_ORDER_BOUND}"
        )
    classes = conjugacy_classes(group)
    k = len(classes)
    order = group.order
    sizes = np.array(classes.sizes, dtype=np.float64)
    struct = _structure_constants(group, classes)
    id_cls = classes.identity_class

    def fail(reason: str):
        raise CharacterComputationError(
            f"failed to separate characters of {group.name}: {reason}"
        )

    rng = random.Random(0)  # importing numpy.random costs more than the table
    weights = np.array([rng.gauss(0, 1) for _ in range(k)])
    combined = np.tensordot(weights, struct, axes=(0, 0))
    eigenvalues, eigenvectors = np.linalg.eig(combined)
    gap = _min_gap(eigenvalues)
    if gap < 1e-6 * (1.0 + np.max(np.abs(eigenvalues))):
        fail(f"eigenvalue gap {gap:.2e} too small")
    rows = []
    for col in range(k):
        v = eigenvectors[:, col]
        if abs(v[id_cls]) < 1e-12:
            fail("eigenvector vanishes on the identity class")
        v = v / v[id_cls]
        norm = float((np.abs(v) ** 2 / sizes).sum())
        degree = math.sqrt(order / norm)
        rounded = round(degree)
        if rounded < 1 or abs(degree - rounded) > 1e-6:
            fail(f"non-integral degree {degree}")
        rows.append(rounded * v / sizes)
    values = np.array(sorted(rows, key=_row_sort_key), dtype=np.complex128)
    try:
        return CharacterTable(group, classes, values)
    except TableValidationError as exc:
        fail(str(exc))


def _min_gap(eigenvalues: np.ndarray) -> float:
    # the infinite diagonal leaves a single eigenvalue trivially separated
    gaps = np.abs(eigenvalues[:, None] - eigenvalues)
    np.fill_diagonal(gaps, math.inf)
    return float(gaps.min())


def _row_sort_key(row: np.ndarray):
    # degree first (the degree is the largest |value| in the row), then
    # descending component-wise lexicographic order so the trivial
    # character leads its degree block; rounding keeps the key stable
    # against eigensolver noise
    degree = float(np.max(np.abs(row)))
    return (round(degree, 6),) + tuple(
        (-round(float(z.real), 9), -round(float(z.imag), 9)) for z in row
    )


# ---------------------------------------------------------------------------
# file format

def _format_complex(z: complex) -> str:
    return f"{z.real:+.15f}{z.imag:+.15f}i"


def _parse_complex(token: str, source: str) -> complex:
    if not token.endswith("i"):
        raise TableValidationError(f"{source}: bad complex value {token!r}")
    body = token[:-1]
    split = -1
    for pos in range(1, len(body)):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            split = pos
    if split < 0:
        raise TableValidationError(f"{source}: bad complex value {token!r}")
    try:
        return complex(float(body[:split]), float(body[split:]))
    except ValueError:
        raise TableValidationError(f"{source}: bad complex value {token!r}") from None


def save_character_table(table: CharacterTable, path) -> None:
    classes = table.classes
    lines = [f"chartable {table.group.name} classes {len(classes)}"]
    lines.append(" ".join(str(r) for r in classes.representatives))
    lines.append(" ".join(str(s) for s in classes.sizes))
    for row in table.values:
        lines.append(" ".join(_format_complex(z) for z in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_character_table(group: FiniteGroup, path) -> CharacterTable:
    """Load and fully validate a character table for ``group``."""
    source = str(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise TableValidationError(f"{source}: truncated table file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "chartable" or header[2] != "classes":
        raise TableValidationError(f"{source}: bad header {lines[0]!r}")
    try:
        k = int(header[3])
    except ValueError:
        raise TableValidationError(f"{source}: bad class count {header[3]!r}") from None
    if len(lines) != 3 + k:
        raise TableValidationError(
            f"{source}: expected {3 + k} lines, found {len(lines)}"
        )
    try:
        reps = tuple(int(t) for t in lines[1].split())
        sizes = tuple(int(t) for t in lines[2].split())
    except ValueError:
        raise TableValidationError(f"{source}: bad class data") from None

    classes = conjugacy_classes(group)
    if len(classes) != k:
        raise TableValidationError(
            f"{source}: file has {k} classes, group has {len(classes)}"
        )
    if reps != classes.representatives or sizes != classes.sizes:
        raise TableValidationError(
            f"{source}: class representatives/sizes do not match the group"
        )

    rows = []
    for ln in lines[3:]:
        tokens = ln.split()
        if len(tokens) != k:
            raise TableValidationError(f"{source}: row of {len(tokens)} values != {k}")
        rows.append([_parse_complex(t, source) for t in tokens])
    return CharacterTable(group, classes, np.array(rows, dtype=np.complex128))


# group name -> the validated table bound to the shared built-in group
_BUILTIN_TABLES: dict[str, CharacterTable] = {}


def builtin_table(group: FiniteGroup) -> CharacterTable:
    """The character table of a built-in group, computed for ``group``.

    For the group object that :func:`~wordfourier.groups.builtin_group`
    returns, the table is computed on the first call and shared after
    that.  Any other group object of the same name, such as a
    ``--group-file`` group, gets a table computed for it on every call.
    Raises KeyError when no built-in group has the name.
    """
    cached = _BUILTIN_TABLES.get(group.name)
    if cached is not None and cached.group is group:
        return cached
    name = _canonical_name(group.name)
    table = compute_character_table(group)
    if is_builtin(group):
        _BUILTIN_TABLES[name] = table
    return table
