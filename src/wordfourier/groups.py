"""Finite groups as multiplication tables, with conjugacy-class structure.

``mul[g, h]`` is the product "g then h"; ``tools/group_builders.py``
builds the built-in groups' tables under that convention.

A table, built in or from a group file, must be a Latin square with a
two-sided identity and inverses, and associative, which Light's test over
a generating set (Clifford & Preston, 1961) checks exactly at any order.

Groups are immutable after validated construction: attributes cannot be
reassigned and the tables are marked read-only, so they are safe to
share.  Each built-in group is loaded and validated once per process and
then shared.  Conjugacy classes are made from the group alone,
``ConjugacyClasses(group)``, so they cannot disagree with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from ._defaults import BUILTIN_NAMES
from .errors import GroupValidationError


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    __slots__ = ("name", "order", "mul", "inv", "identity", "lifted")

    def __init__(self, mul: np.ndarray, name: str = "G"):
        try:
            mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int64))
        except OverflowError:
            raise GroupValidationError("table entries must be element indices") from None
        if not mul.size:  # an empty list of rows, as an order-0 file gives, has shape (0,)
            raise GroupValidationError("a group has at least one element")
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise GroupValidationError(f"multiplication table must be square, got {mul.shape}")
        n = mul.shape[0]
        if mul.min() < 0 or mul.max() >= n:
            raise GroupValidationError("table entries must be element indices")

        elems = np.arange(n)
        # every row and column is a permutation of the elements
        bad_rows = (np.sort(mul, axis=1) != elems).any(axis=1)
        bad_cols = (np.sort(mul, axis=0) != elems[:, None]).any(axis=0)
        bad = np.flatnonzero(bad_rows | bad_cols)
        if len(bad):
            line = "row" if bad_rows[bad[0]] else "column"
            raise GroupValidationError(f"{line} {bad[0]} is not a permutation")

        is_identity = (mul == elems).all(axis=1) & (mul.T == elems).all(axis=1)
        if not is_identity.any():
            raise GroupValidationError("no identity element")
        identity = int(is_identity.argmax())

        inv = (mul == identity).argmax(axis=1)  # the one h per row with g*h = 1
        one_sided = np.flatnonzero(mul[inv, elems] != identity)
        if len(one_sided):
            raise GroupValidationError(f"element {one_sided[0]} has no two-sided inverse")

        # Light's test: the a with (x*a)*y == x*(a*y) for all x, y are closed
        # under products, so it is enough to check a set that generates the table
        reached = elems == identity
        gens: list[int] = []
        while not reached.all():
            a = int(reached.argmin())  # the least element not yet a product of checked ones
            if not np.array_equal(mul[mul[:, a]], mul[:, mul[a]]):
                raise GroupValidationError("multiplication is not associative")
            gens.append(a)
            frontier = np.flatnonzero(reached)
            while len(frontier):
                step = np.zeros(n, dtype=bool)
                step[mul[frontier][:, gens]] = True
                frontier = np.flatnonzero(step & ~reached)
                reached |= step

        # lifted[g*n + h] = (g*h)*n: a product kept times n takes the next
        # letter by one add and one flat read
        lifted = (mul * n).ravel()
        for table in (mul, inv, lifted):
            table.setflags(write=False)
        for attr, value in (
            ("name", name),
            ("order", n),
            ("mul", mul),
            ("inv", inv),
            ("identity", identity),
            ("lifted", lifted),
        ):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        raise AttributeError(f"FiniteGroup is immutable; cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"FiniteGroup is immutable; cannot delete {attr!r}")

    def __reduce__(self):
        # slot state is restored by assignment, which __setattr__ refuses
        return (FiniteGroup, (self.mul, self.name))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class ConjugacyClasses:
    """Orbit partition of a group under conjugation.

    The group is the only argument: every other field is worked out from it
    on construction, so the classes are the group's conjugation orbits.
    """

    group: FiniteGroup
    # every field below follows from ``group``, so objects compare and hash by it
    class_of: np.ndarray = field(init=False, compare=False)  # element -> class, read-only
    representatives: tuple[int, ...] = field(init=False, compare=False)  # least element per class
    sizes: tuple[int, ...] = field(init=False, compare=False)
    centralizer_sizes: tuple[int, ...] = field(init=False, compare=False)
    power_class_map: tuple[int, ...] = field(init=False, compare=False)  # class of rep**2
    _orbits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _indices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _fibers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        group = self.group
        n = group.order
        mul, inv = group.mul, group.inv
        elems = np.arange(n)
        class_of = np.full(n, -1, dtype=np.int64)
        reps: list[int] = []
        for g in range(n):
            if class_of[g] >= 0:
                continue
            orbit = mul[mul[elems, g], inv[elems]]  # h * g * h^-1 over all h
            class_of[orbit] = len(reps)
            reps.append(g)
        sizes = tuple(np.bincount(class_of).tolist())
        class_of.setflags(write=False)
        for attr, value in (
            ("class_of", class_of),
            ("representatives", tuple(reps)),
            ("sizes", sizes),
            ("centralizer_sizes", tuple(n // s for s in sizes)),
            ("power_class_map", tuple(int(class_of[mul[r, r]]) for r in reps)),
        ):
            object.__setattr__(self, attr, value)

    def __len__(self) -> int:
        return len(self.representatives)

    def orbit_rows(self, depth: int) -> tuple[np.ndarray, ...]:
        """One tuple (x_1..x_depth) per orbit of G on G^depth under
        simultaneous conjugation, and the orbit's size
        |G|/|C(x_1) ∩ ... ∩ C(x_depth)|, as ``depth + 1`` int64 arrays.

        Depth 1 is the classes: the representatives, weighted by class
        size.  A row one deeper extends a row of the depth above: the row's
        stabilizer, the intersection of its entries' centralizers, acts on G
        by conjugation, and each orbit adds its least element, weighted by
        the row's weight times the orbit size.  Rows keep their parents'
        order, then the new entry's, and the weights sum to |G|^depth; by
        Burnside there are sum |C(x)|^(depth-1) rows over the
        representatives x.  Built on the first call per depth and kept on
        the object.
        """
        rows = self._orbits.get(depth)
        if rows is not None:
            return rows
        if depth == 1:
            rows = (self.representatives, self.sizes)
        else:
            *parents, weights = self.orbit_rows(depth - 1)
            n, mul, inv = self.group.order, self.group.mul, self.group.inv
            stabilizers = np.logical_and.reduce([mul[p] == mul[:, p].T for p in parents])
            found = {}  # stabilizer -> least element and size of each of its orbits
            entries, orbits = [], []
            for stabilizer in stabilizers:
                key = stabilizer.tobytes()
                if key not in found:
                    h = stabilizer.nonzero()[0]
                    # [h, y] -> h y h^-1: column y holds y's orbit, its least entry names it
                    sizes = np.bincount(mul[mul[h], inv[h][:, None]].min(axis=0), minlength=n)
                    least = sizes.nonzero()[0]
                    found[key] = least, sizes[least]
                entries.append(found[key][0])
                orbits.append(found[key][1])
            per_row = [len(e) for e in entries]
            rows = (
                *(np.repeat(p, per_row) for p in parents),
                np.concatenate(entries),
                np.repeat(weights, per_row) * np.concatenate(orbits),
            )
        rows = tuple(np.asarray(a, dtype=np.int64) for a in rows)
        for a in rows:
            a.setflags(write=False)
        self._orbits[depth] = rows
        return rows

    def orbit_index(self, depth: int) -> np.ndarray:
        """The read-only int64 array of |G|^depth entries whose entry
        x_1*|G|^(depth-1) + ... + x_depth is the ``orbit_rows(depth)`` row
        of the orbit of (x_1..x_depth).  Conjugating every row by every h
        names each tuple once or more, over |G| times the rows.  Built on
        the first call per depth and kept on the object.
        """
        index = self._indices.get(depth)
        if index is not None:
            return index
        n, mul, inv = self.group.order, self.group.mul, self.group.inv
        *entries, weights = self.orbit_rows(depth)
        elems = np.arange(n)
        conjugate = mul[mul[elems[:, None], elems], inv[:, None]]  # [h, x] -> h x h^-1
        key = 0  # [h, row] -> the row conjugated by h, in mixed radix
        for x in entries:
            key = key * n + conjugate[:, x]
        index = np.empty(n**depth, dtype=np.int64)
        index[key] = np.arange(len(weights))
        index.setflags(write=False)
        self._indices[depth] = index
        return index

    def fiber_table(self, e1: int, e2: int) -> np.ndarray:
        """For the signs e1, e2 of two letters of one generator z, the
        read-only int64 (|G|^2, k) table whose row b*|G| + c counts, per
        class, the z with z^e1 b z^e2 c in it; every row sums to |G|.

        Substituting h z h^-1 for z shows that a row is the same for (b, c)
        and (h b h^-1, h c h^-1), so only the row of one pair per orbit
        (``orbit_rows(2)``) is counted, over every z, and copied to the rest
        of its orbit (``orbit_index(2)``).  Work arrays have P*|G| <= k*|G|^2
        cells for P orbits.  Built on the first call per sign pair and kept
        on the object.
        """
        if (e1, e2) in self._fibers:
            return self._fibers[e1, e2]
        group = self.group
        n, k = group.order, len(self)
        mul, inv = group.mul, group.inv
        xs, ys, _ = self.orbit_rows(2)
        orbits = np.arange(len(xs))
        z = np.arange(n)
        left, right = (z if e > 0 else inv for e in (e1, e2))
        # [orbit, z] -> class of z^e1 x z^e2 y
        landed = self.class_of[mul[mul[mul[left, xs[:, None]], right], ys[:, None]]]
        rows = np.bincount((orbits[:, None] * k + landed).ravel(), minlength=len(xs) * k)
        table = rows.reshape(len(xs), k)[self.orbit_index(2)]
        table.setflags(write=False)
        self._fibers[e1, e2] = table
        return table

    def second_fiber_table(
        self, e1: int, e2: int, f1: int, f2: int, straddles: bool
    ) -> np.ndarray:
        """For the signs e1, e2 of the two letters of a generator z and f1,
        f2 of those of a generator y, the read-only int64 (T, k) table over
        the T rows of ``orbit_rows(3)`` whose row for (u, v, t) counts, per
        class, the pairs (y, z) with, when y ``straddles`` the letters of z,

            z^e1 y^f1 u z^e2 v y^f2 t,

        and otherwise z^e1 y^f1 u y^f2 v z^e2 t in it; every row sums to
        |G|^2.  It is the sum over y of the ``fiber_table(e1, e2)`` rows of
        (y^f1 u, v y^f2 t), or of (y^f1 u y^f2 v, t).  Substituting h y h^-1
        for y and h z h^-1 for z shows that a row is the same on the whole
        conjugation orbit of (u, v, t), so a triple is keyed by its row
        through ``orbit_index(3)``.  Work arrays have T*|G|*k cells.  Built
        on the first call per signs and case and kept on the object.
        """
        key = (e1, e2, f1, f2, straddles)
        if key in self._fibers:
            return self._fibers[key]
        n, mul, inv = self.group.order, self.group.mul, self.group.inv
        u, v, t = (x[:, None] for x in self.orbit_rows(3)[:3])
        y = np.arange(n)
        first, second = (y if f > 0 else inv for f in (f1, f2))
        # [row, y] -> the (b, d) whose fiber_table row it sums
        if straddles:
            b, d = mul[first, u], mul[mul[v, second], t]
        else:
            b, d = mul[mul[mul[first, u], second], v], t
        table = self.fiber_table(e1, e2)[b * n + d].sum(axis=1)
        table.setflags(write=False)
        self._fibers[key] = table
        return table

    @property
    def identity_class(self) -> int:
        return int(self.class_of[self.group.identity])


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    return ConjugacyClasses(group)


# ---------------------------------------------------------------------------
# file format: "group <name> order <N>" then N rows of N element indices

def save_group(group: FiniteGroup, path) -> None:
    lines = [f"group {group.name} order {group.order}"]
    for row in group.mul:
        lines.append(" ".join(str(int(x)) for x in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_group_text(text: str, source: str) -> FiniteGroup:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GroupValidationError(f"{source}: empty group file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "group" or header[2] != "order":
        raise GroupValidationError(f"{source}: bad header {lines[0]!r}")
    name = header[1]
    try:
        order = int(header[3])
    except ValueError:
        raise GroupValidationError(f"{source}: bad order {header[3]!r}") from None
    if len(lines) - 1 != order:
        raise GroupValidationError(
            f"{source}: expected {order} table rows, found {len(lines) - 1}"
        )
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise GroupValidationError(f"{source}: non-integer table entry") from None
        if len(row) != order:
            raise GroupValidationError(f"{source}: row of length {len(row)} != {order}")
        rows.append(row)
    return FiniteGroup(rows, name=name)


def load_group(path) -> FiniteGroup:
    with open(path, "r", encoding="ascii") as fh:
        return _load_group_text(fh.read(), str(path))


# ---------------------------------------------------------------------------
# built-in groups

def _canonical_name(name: str) -> str:
    for key in BUILTIN_NAMES:
        if key.lower() == name.lower():
            return key
    raise KeyError(f"unknown built-in group {name!r}; choose from {', '.join(BUILTIN_NAMES)}")


def _data_root():
    return resources.files("wordfourier").joinpath("data")


# canonical name -> the one validated group object shared by the process
_BUILTINS: dict[str, FiniteGroup] = {}


def builtin_group(name: str) -> FiniteGroup:
    """The built-in group ``name`` (any letter case) from the shipped data assets.

    The asset is read and validated on the first call for each group; later
    calls return the same immutable object.
    """
    key = _canonical_name(name)
    group = _BUILTINS.get(key)
    if group is None:
        text = _data_root().joinpath("groups", f"{key}.grp").read_text(encoding="ascii")
        group = _BUILTINS[key] = _load_group_text(text, f"builtin:{key}")
    return group


def is_builtin(group: FiniteGroup) -> bool:
    """Whether ``group`` is the shared object that :func:`builtin_group` returns."""
    return _BUILTINS.get(group.name) is group
