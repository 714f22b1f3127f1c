"""Character tables: computation, orthogonality validation, file format."""

import cmath
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from wordfourier import (
    CharacterTable,
    FiniteGroup,
    TableValidationError,
    builtin_group,
    builtin_table,
    coefficient_formula,
    compute_character_table,
    fs_indicator,
    load_character_table,
    normalize,
    parse_word,
)
from wordfourier._defaults import BUILTIN_NAMES
from wordfourier.chartable import ORTHOGONALITY_TOL, _format_complex, _parse_complex, save_character_table

from corpus import group_and_table
from group_builders import build_builtin


class TestCompute:
    def test_z3_values_are_cube_roots(self):
        group = build_builtin("Z3")
        table = compute_character_table(group)
        assert table.degrees.tolist() == [1, 1, 1]
        omega = np.exp(2j * np.pi / 3)
        flat = sorted(
            table.values.flatten(), key=lambda z: (round(z.real, 9), round(z.imag, 9))
        )
        expected = sorted(
            [1, 1, 1, omega, omega, omega**2, omega**2, 1, 1],
            key=lambda z: (round(z.real, 9), round(z.imag, 9)),
        )
        assert np.allclose(flat, expected, atol=1e-9)

    def test_s3_degrees(self):
        assert compute_character_table(build_builtin("S3")).degrees.tolist() == [1, 1, 2]

    def test_q8_degrees(self):
        table = compute_character_table(build_builtin("Q8"))
        assert table.degrees.tolist() == [1, 1, 1, 1, 2]

    def test_trivial_character_leads(self):
        for name in ("Z5", "S4", "A4", "D5"):
            table = compute_character_table(build_builtin(name))
            assert table.trivial_index == 0

    def test_same_group_gives_the_same_table(self):
        one = compute_character_table(build_builtin("D4"))
        two = compute_character_table(build_builtin("D4"))
        assert np.array_equal(one.values, two.values)

    def test_order_bound_is_enforced(self):
        from wordfourier import CharacterComputationError

        r = np.arange(121)
        group = FiniteGroup(np.add.outer(r, r) % 121)  # one past COMPUTE_ORDER_BOUND
        with pytest.raises(CharacterComputationError, match="bound"):
            compute_character_table(group)


class TestValidation:
    def test_duplicated_row_fails_row_orthogonality(self, z3):
        group, table = z3
        values = table.values.copy()
        values[1] = values[0]
        with pytest.raises(TableValidationError, match="row orthogonality"):
            CharacterTable(group, table.classes, values)

    def test_perturbed_value_rejected(self, s3):
        group, table = s3
        values = table.values.copy()
        values[2, 1] += 1e-6
        with pytest.raises(TableValidationError):
            CharacterTable(group, table.classes, values)

    def test_degree_sum_must_match_order(self, s3):
        group, table = s3
        values = table.values.copy()
        values[2] *= 1.5  # degree 3: sum of squares becomes 11 != 6
        with pytest.raises(TableValidationError):
            CharacterTable(group, table.classes, values)

    @pytest.mark.parametrize(
        "value", (np.nan, np.inf, complex(0, np.nan)), ids=("nan", "inf", "nan-imag")
    )
    @pytest.mark.parametrize("cell", ((1, 1), (1, 2), (0, 0)), ids=("class1", "class2", "degree"))
    def test_non_finite_value_rejected(self, s3, cell, value):
        # a NaN exceeds no tolerance and breaks round(), so no later check can catch it
        group, table = s3
        values = table.values.copy()
        values[cell] = value
        with pytest.raises(TableValidationError, match="must be finite"):
            CharacterTable(group, table.classes, values)

    def test_fs_indicator_rejects_corrupt_row(self):
        # a unitary mix of Z4's rows 3 (FS +1) and 1 (FS 0) keeps both
        # orthogonality relations and every degree, but each mixed row's
        # indicator is (1 -+ i)/2
        group, table = group_and_table("Z4")
        assert fs_indicator(table, 3) == 1 and fs_indicator(table, 1) == 0
        p, q = (1 + 1j) / 2, (1 - 1j) / 2
        values = table.values.copy()
        values[[3, 1]] = np.array([[p, q], [q, p]]) @ table.values[[3, 1]]
        with pytest.raises(TableValidationError, match="indicator"):
            CharacterTable(group, table.classes, values)

    def test_rows_must_be_sums_of_roots_of_unity(self):
        # the same mix of Z6's rows 1 and 3, both of indicator 0, keeps every
        # check above, but a generator's eigenvalues zeta^a and zeta^b of the
        # two rows would occur (1 +- i)/2 times in each mixed row
        group, table = group_and_table("Z6")
        p, q = (1 + 1j) / 2, (1 - 1j) / 2
        values = table.values.copy()
        values[[1, 3]] = np.array([[p, q], [q, p]]) @ table.values[[1, 3]]
        with pytest.raises(TableValidationError, match="row 1 is not a character"):
            CharacterTable(group, table.classes, values)


class TestImmutability:
    def test_attributes_cannot_be_reassigned(self, s3):
        _, table = s3
        with pytest.raises(AttributeError):
            table.degrees = None
        with pytest.raises(AttributeError):
            del table.values
        assert table.degrees.tolist() == [1, 1, 2]

    def test_conjugates_and_row_constants_are_built_once_from_the_values(self, z3, q8):
        for _, table in (z3, q8):
            assert table.conjugates.tolist() == np.conj(table.values).tolist()
            with pytest.raises(ValueError):
                table.conjugates[0, 0] = 0
            assert table.degree_fs == tuple(zip(table.degrees.tolist(), table.indicators))
            assert {type(x) for row in table.degree_fs for x in row} == {int}

    def test_arrays_are_read_only(self, s3):
        _, table = s3
        for array in (table.values, table.degrees):
            with pytest.raises(ValueError):
                array[0] = 0
        assert table.degrees.tolist() == [1, 1, 2]

    def test_pickle_round_trip_revalidates(self, s3):
        _, table = s3
        copy = pickle.loads(pickle.dumps(table))
        assert copy is not table and copy.group is not table.group
        assert np.array_equal(copy.values, table.values)
        assert copy.group.name == "S3"


class TestBuiltinTables:
    def test_one_table_per_builtin_group(self):
        group = builtin_group("S4")
        assert builtin_table(group) is builtin_table(group)
        assert builtin_table(group).group is group

    def test_other_group_objects_get_their_own_table(self):
        fresh = build_builtin("S4")
        table = builtin_table(fresh)
        assert table.group is fresh
        assert table is not builtin_table(builtin_group("S4"))
        assert builtin_table(builtin_group("S4")).group is builtin_group("S4")
        coefficients = coefficient_formula(normalize(parse_word("[x,y]")), fresh, table)
        assert np.allclose(coefficients, 24 / table.degrees)

    def test_the_name_is_looked_up_among_the_built_ins(self):
        # as in builtin_group: any letter case, and a name that is not built
        # in is a KeyError, never a path under the data directory
        s3 = builtin_group("S3")
        assert builtin_table(FiniteGroup(s3.mul, name="s3")).degrees.tolist() == [1, 1, 2]
        for name in ("foo", "../tables/S3"):
            with pytest.raises(KeyError, match="unknown built-in group"):
                builtin_table(FiniteGroup(s3.mul, name=name))


class TestFsIndicator:
    def test_trivial_character_is_plus_one(self):
        for name in ("S3", "Z4", "A4"):
            _, table = group_and_table(name)
            assert fs_indicator(table, table.trivial_index) == 1

    def test_z3_nontrivial_rows_vanish(self, z3):
        _, table = z3
        values = [fs_indicator(table, chi) for chi in range(len(table))]
        assert values == [1, 0, 0]

    def test_q8_two_dimensional_row_is_minus_one(self, q8):
        _, table = q8
        two = int(np.flatnonzero(table.degrees == 2)[0])
        assert fs_indicator(table, two) == -1


class TestFiles:
    def test_complex_format_round_trip(self):
        for z in (1 + 0j, -0.5 + 0.8660254037844386j, 3 - 2.25j, 0j):
            token = _format_complex(z)
            assert abs(_parse_complex(token, "test") - z) < 1e-14

    def test_table_round_trip(self, tmp_path, s3):
        group, table = s3
        path = tmp_path / "s3.chtab"
        save_character_table(table, path)
        loaded = load_character_table(group, path)
        assert np.max(np.abs(loaded.values - table.values)) < 1e-12

    def test_duplicated_row_file_rejected(self, tmp_path, s3):
        group, table = s3
        path = tmp_path / "bad.chtab"
        save_character_table(table, path)
        lines = path.read_text().splitlines()
        lines[4] = lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableValidationError, match="orthogonality"):
            load_character_table(group, path)

    def test_wrong_class_sizes_rejected(self, tmp_path, s3):
        group, table = s3
        path = tmp_path / "bad.chtab"
        save_character_table(table, path)
        lines = path.read_text().splitlines()
        lines[2] = "1 2 3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableValidationError, match="class"):
            load_character_table(group, path)

    def test_bad_header(self, tmp_path, s3):
        group, _ = s3
        path = tmp_path / "bad.chtab"
        path.write_text("chairtable S3 classes 3\n0 1 3\n1 3 2\n")
        with pytest.raises(TableValidationError, match="header"):
            load_character_table(group, path)

    def test_bad_complex_token(self, tmp_path, s3):
        group, table = s3
        path = tmp_path / "bad.chtab"
        save_character_table(table, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("i", "j", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TableValidationError):
            load_character_table(group, path)


class TestRealRows:
    """A row of a validated table is real exactly when its indicator is not 0."""

    def test_all_s3_rows_are_real(self, s3):
        _, table = s3
        assert all(table.indicators)

    def test_z3_has_complex_rows(self, z3):
        _, table = z3
        assert table.indicators == (1, 0, 0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_degree_divides_group_order(name):
    group, table = group_and_table(name)
    assert all(group.order % int(d) == 0 for d in table.degrees)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
class TestShippedTables:
    def test_orthogonality_and_degree_sum(self, name):
        group = builtin_group(name)
        table = builtin_table(group)
        k = len(table)
        sizes = np.array(table.classes.sizes, dtype=float)
        gram = (table.values * sizes) @ table.values.conj().T / group.order
        assert np.max(np.abs(gram - np.eye(k))) <= ORTHOGONALITY_TOL
        col = table.values.conj().T @ table.values
        expected = np.diag(np.array(table.classes.centralizer_sizes, dtype=float))
        assert np.max(np.abs(col - expected)) <= ORTHOGONALITY_TOL * group.order
        assert int((table.degrees**2).sum()) == group.order

    def test_values_match_an_exact_reference(self, name):
        table = builtin_table(builtin_group(name))
        if name in INTEGER_TABLES:
            assert table.values.tolist() == INTEGER_TABLES[name]
        elif name in IRRATIONAL_TABLES:
            assert_exact(table.values, IRRATIONAL_TABLES[name])
        else:
            # Z_n: the row whose value on a generator is zeta^a is x -> zeta^(a log x)
            group, n = table.group, table.group.order
            generator = next(g for g in range(n) if len(powers_of(group, g)) == n)
            logs = {x: j for j, x in enumerate(powers_of(group, generator))}
            seen = set()
            for row in table.values:
                a = round(n * cmath.phase(row[generator]) / (2 * math.pi)) % n
                seen.add(a)
                # an abelian group's classes are its elements, in order
                assert_exact(row, [root(Fraction(a * logs[x], n)) for x in range(n)])
            assert seen == set(range(n))


def powers_of(group, g):
    """1, g, g^2, ... up to the last power before 1."""
    out = [group.identity]
    while (x := int(group.mul[out[-1], g])) != group.identity:
        out.append(x)
    return out


def root(turns: Fraction) -> complex:
    """exp(2 pi i turns), with each part exact where it is rational: by
    Niven's theorem, cos(2 pi t) is rational exactly when t's denominator
    is 1, 2, 3, 4 or 6, and then it is a multiple of 1/2."""

    def cos(t: Fraction) -> float:
        t -= round(t)  # into [-1/2, 1/2], where the float angle is accurate
        value = math.cos(2 * math.pi * t)
        return round(2 * value) / 2 if t.denominator in (1, 2, 3, 4, 6) else value

    return complex(cos(turns), cos(Fraction(1, 4) - turns))


def assert_exact(values, reference):
    """Equal where the reference part is rational, which for a character
    value is a multiple of 1/2; within 1e-15 where it is irrational."""
    for got, want in zip(np.ravel(values), np.ravel(np.asarray(reference, dtype=complex))):
        for part, exact in ((got.real, want.real), (got.imag, want.imag)):
            if 2 * exact == round(2 * exact):
                assert part == exact, (got, want)
            else:
                assert abs(part - exact) <= 1e-15, (got, want)


# the built-in tables in the program's row and class order, written out by
# hand: classes are listed by least element, rows by degree and then value
INTEGER_TABLES = {
    # classes: 1, transpositions, 3-cycles
    "S3": [[1, 1, 1], [1, -1, 1], [2, 0, -1]],
    # classes: 1, transpositions, 4-cycles, 3-cycles, double transpositions
    "S4": [
        [1, 1, 1, 1, 1],
        [1, -1, -1, 1, 1],
        [2, 0, 0, -1, 2],
        [3, 1, -1, 0, -1],
        [3, -1, 1, 0, -1],
    ],
    # classes: 1, r^{+-1}, a reflection pair, r^2, the other reflection pair
    "D4": [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [1, -1, 1, 1, -1],
        [1, -1, -1, 1, 1],
        [2, 0, 0, -2, 0],
    ],
    # classes: 1, {+-i}, {+-j}, -1, {+-k}
    "Q8": [
        [1, 1, 1, 1, 1],
        [1, 1, -1, 1, -1],
        [1, -1, 1, 1, -1],
        [1, -1, -1, 1, 1],
        [2, 0, 0, -2, 0],
    ],
}
OMEGA = root(Fraction(1, 3))
GOLDEN = (1 + math.sqrt(5)) / 2
IRRATIONAL_TABLES = {
    # classes: 1, a 3-cycle class, double transpositions, the inverse 3-cycles
    "A4": [
        [1, 1, 1, 1],
        [1, OMEGA, 1, OMEGA.conjugate()],
        [1, OMEGA.conjugate(), 1, OMEGA],
        [3, 0, -1, 0],
    ],
    # classes: 1, {r, r^4}, reflections, {r^2, r^3}; 2 cos(2 pi/5) = GOLDEN - 1
    "D5": [
        [1, 1, 1, 1],
        [1, 1, -1, 1],
        [2, GOLDEN - 1, 0, -GOLDEN],
        [2, -GOLDEN, 0, GOLDEN - 1],
    ],
}
