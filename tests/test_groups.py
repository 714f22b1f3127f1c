"""Multiplication-table groups, closure, conjugacy classes, file format."""

import dataclasses
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordfourier import (
    FiniteGroup,
    GroupValidationError,
    builtin_group,
    conjugacy_classes,
    load_group,
)
from wordfourier._defaults import BUILTIN_NAMES
from wordfourier.groups import save_group
from group_builders import (
    build_builtin,
    compose,
    cycle_notation,
    group_from_generators,
    perm_from_cycles,
)


class TestPermutations:
    def test_compose_is_left_to_right(self):
        p = perm_from_cycles(3, [(1, 2)])
        q = perm_from_cycles(3, [(2, 3)])
        # apply p first: 1 -> 2 -> 3
        assert compose(p, q)[0] == 2

    def test_cycle_notation(self):
        assert cycle_notation(perm_from_cycles(4, [(1, 2), (3, 4)])) == "(1 2)(3 4)"
        assert cycle_notation((0, 1, 2)) == "e"

    def test_bad_cycle_rejected(self):
        with pytest.raises(ValueError):
            perm_from_cycles(3, [(1, 4)])


class TestClosure:
    def test_s3_from_generators(self):
        group, elements = group_from_generators(
            [perm_from_cycles(3, [(1, 2)]), perm_from_cycles(3, [(1, 2, 3)])]
        )
        assert group.order == 6
        assert group.identity == 0
        assert cycle_notation(elements[0]) == "e"

    def test_trivial_group(self):
        group, _ = group_from_generators([(0,)])
        assert group.order == 1

    def test_d4_from_generators(self):
        group, _ = group_from_generators(
            [perm_from_cycles(4, [(1, 2, 3, 4)]), perm_from_cycles(4, [(1, 3)])]
        )
        assert group.order == 8

    def test_closure_bound(self):
        with pytest.raises(GroupValidationError):
            group_from_generators(
                [perm_from_cycles(5, [(1, 2)]), perm_from_cycles(5, [(1, 2, 3, 4, 5)])],
                bound=10,
            )

    def test_invalid_permutation(self):
        with pytest.raises(GroupValidationError):
            group_from_generators([(0, 0, 1)])


def xor_loop() -> np.ndarray:
    """Z2^8 under XOR with the intercalate at rows 1, 7 and columns 2, 4
    switched: a loop of order 256 with 4048 non-associative triples."""
    elems = np.arange(256)
    table = elems[:, None] ^ elems
    table[np.ix_([1, 7], [2, 4])] = table[np.ix_([1, 7], [4, 2])]
    return table


def switch_intercalates(table: np.ndarray, picks) -> np.ndarray:
    """``table`` with, for each pick (r, c1, c2), the intercalate at row r and
    columns c1, c2 switched where one is there (a 2x2 Latin subsquare whose
    other row holds table[r, c2] in column c1); the result is a Latin square."""
    table = np.array(table)
    n = len(table)
    for r, c1, c2 in picks:
        r, c1, c2 = r % n, c1 % n, c2 % n
        r2 = int(np.argmax(table[:, c1] == table[r, c2]))
        if c1 != c2 and table[r2, c2] == table[r, c1]:
            table[np.ix_([r, r2], [c1, c2])] = table[np.ix_([r, r2], [c2, c1])]
    return table


SMALL_BUILTINS = tuple(name for name in BUILTIN_NAMES if builtin_group(name).order <= 10)


class TestValidation:
    def test_non_latin_table(self):
        for table, message in (
            (np.zeros((2, 2), dtype=int), "row 0 is not a permutation"),
            # row 1 and column 1 are both bad: the row is named
            ([[0, 1, 2], [1, 1, 0], [2, 0, 0]], "row 1 is not a permutation"),
            ([[0, 1, 2], [1, 2, 0], [0, 1, 2]], "column 0 is not a permutation"),
        ):
            with pytest.raises(GroupValidationError, match=message):
                FiniteGroup(np.array(table))

    def test_no_identity(self):
        # subtraction mod 3: a latin square without a two-sided identity
        table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(GroupValidationError, match="identity"):
            FiniteGroup(np.array(table))

    def test_one_sided_inverse(self):
        # order-5 loop: 2*3 = 0 but 3*2 = 1
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(GroupValidationError, match="element 2 has no two-sided inverse"):
            FiniteGroup(np.array(table))

    def test_non_associative_loop_rejected(self):
        # order-5 loop: identity and inverses exist but (1*1)*2 != 1*(1*2)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        for loop in (table, xor_loop()):
            with pytest.raises(GroupValidationError, match="^multiplication is not associative$"):
                FiniteGroup(np.array(loop))

    @given(
        name=st.sampled_from(SMALL_BUILTINS),
        picks=st.lists(st.tuples(*[st.integers(0, 9)] * 3), max_size=3),
    )
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_accepts_exactly_the_associative_latin_squares(self, name, picks):
        # an associative Latin square is a group, so the n^3 cube decides
        table = switch_intercalates(builtin_group(name).mul, picks)
        try:
            FiniteGroup(table)
            accepted = True
        except GroupValidationError:
            accepted = False
        assert accepted == np.array_equal(table[table], table[:, table])

    def test_tables_are_read_only(self):
        group = build_builtin("S3")
        with pytest.raises(ValueError):
            group.mul[0, 0] = 1

    def test_attributes_cannot_be_reassigned(self):
        group = builtin_group("S3")
        with pytest.raises(AttributeError):
            group.name = "X"
        with pytest.raises(AttributeError):
            del group.order
        assert builtin_group("S3").name == "S3"


class TestConjugacyClasses:
    def test_s3_sizes_in_representative_order(self):
        classes = conjugacy_classes(build_builtin("S3"))
        assert classes.sizes == (1, 3, 2)
        assert classes.centralizer_sizes == (6, 2, 3)
        assert classes.identity_class == 0

    def test_abelian_singletons(self):
        classes = conjugacy_classes(build_builtin("Z6"))
        assert classes.sizes == (1,) * 6

    def test_q8_class_multiset(self):
        classes = conjugacy_classes(build_builtin("Q8"))
        assert sorted(classes.sizes) == [1, 1, 2, 2, 2]

    def test_representatives_are_minimal(self):
        classes = conjugacy_classes(build_builtin("S4"))
        class_of = np.asarray(classes.class_of)
        for c, rep in enumerate(classes.representatives):
            members = np.flatnonzero(class_of == c)
            assert rep == members.min()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_squaring_is_class_well_defined(self, name):
        group = builtin_group(name)
        classes = conjugacy_classes(group)
        class_of = np.asarray(classes.class_of)
        squares = class_of[group.mul[np.arange(group.order), np.arange(group.order)]]
        for c in range(len(classes)):
            assert len(set(squares[class_of == c].tolist())) == 1
        for c, rep in enumerate(classes.representatives):
            assert classes.power_class_map[c] == squares[rep]

    def test_class_data_come_from_the_group_alone(self):
        classes = conjugacy_classes(build_builtin("S3"))
        with pytest.raises(ValueError):
            dataclasses.replace(classes, class_of=np.array(classes.class_of))
        with pytest.raises(ValueError):
            classes.class_of[0] = 1
        assert classes.orbit_rows(2) is classes.orbit_rows(2)

    def test_class_data_compare_and_hash_by_their_group_object(self):
        group = build_builtin("S3")
        first, second = conjugacy_classes(group), conjugacy_classes(group)
        second.orbit_rows(3)  # what is kept on an object does not count
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        # equal tables, but another group object
        twin = conjugacy_classes(FiniteGroup(group.mul, name="S3"))
        assert first != twin and {first: 1}.get(twin) is None


class TestBuiltins:
    def test_one_object_per_group_in_any_case(self):
        assert builtin_group("s4") is builtin_group("S4")

    def test_fresh_construction_is_not_shared(self):
        assert build_builtin("S4") is not builtin_group("S4")


class TestFiles:
    def test_round_trip(self, tmp_path):
        group = build_builtin("D5")
        path = tmp_path / "d5.grp"
        save_group(group, path)
        loaded = load_group(path)
        assert loaded.order == group.order
        assert np.array_equal(loaded.mul, group.mul)
        assert loaded.name == "D5"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("graup X order 2\n0 1\n1 0\n")
        with pytest.raises(GroupValidationError, match="header"):
            load_group(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("group X order 3\n0 1\n1 0\n")
        with pytest.raises(GroupValidationError):
            load_group(path)

    def test_non_integer_entry(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("group X order 2\n0 one\n1 0\n")
        with pytest.raises(GroupValidationError):
            load_group(path)


DATA = resources.files("wordfourier").joinpath("data")


def test_builtin_names_are_the_shipped_data_files():
    # in the order the CLI help prints them; no character table is shipped
    expected = ("A4", "D4", "D5", "Q8", "S3", "S4", *(f"Z{n}" for n in range(1, 13)))
    assert BUILTIN_NAMES == expected
    assert sorted(p.name for p in DATA.iterdir()) == ["groups"]
    stems = [p.name.removesuffix(".grp") for p in DATA.joinpath("groups").iterdir()]
    assert sorted(stems) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_assets_match_fresh_construction(name, tmp_path):
    shipped = builtin_group(name)
    fresh = build_builtin(name)
    assert shipped.order == fresh.order
    assert np.array_equal(shipped.mul, fresh.mul)
    # the bytes tools/make_data.py writes
    save_group(fresh, tmp_path / f"{name}.grp")
    assert (tmp_path / f"{name}.grp").read_bytes() == DATA.joinpath("groups", f"{name}.grp").read_bytes()
