"""Both kernels against plain Python loops over every assignment."""

import dataclasses
import json
import math
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from wordfourier import (
    ConjugacyClasses,
    FiniteGroup,
    GroupValidationError,
    _kernels,
    compute_character_table,
    parse_word,
)
from wordfourier.words import Alphabet, Word

from corpus import (
    CORPUS,
    MASTER_CAP,
    ORDERS,
    corpus_word,
    group_and_table,
    python_distribution,
)

COUNT_WORDS = (
    "empty",
    "commutator",
    "brace",
    "cube",
    "pair-rank3",
    "general-square",
    "conjugate-loop",
    "admissible-scramble",
)


def assert_counts_match_reference(word, group, classes):
    counts = _kernels.element_counts(group, word.letters, word.alphabet.rank, classes)
    assert counts.dtype == np.int64
    reference = python_distribution(word, group)
    assert counts.tolist() == [reference[rep] for rep in classes.representatives]
    # the reference is constant on each class
    assert reference == counts[np.asarray(classes.class_of)].tolist()


def reversed_group(name):
    """A built-in group with its element labels reversed, so that class
    representatives are not the first elements."""
    base, _ = group_and_table(name)
    flip = np.arange(base.order)[::-1]
    group = FiniteGroup(flip[base.mul[np.ix_(flip, flip)]], name=f"{name}-reversed")
    table = compute_character_table(group)
    assert table.classes.representatives != tuple(range(len(table)))
    return group, table


# the backend that ``expand --format json`` reports; numpy is the only one
@pytest.mark.parametrize("backend", ("numpy",))
@pytest.mark.parametrize("word_id", COUNT_WORDS)
@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4"))
def test_counts_match_python_reference(backend, word_id, group_name):
    assert _kernels.active_backend() == backend
    group, table = group_and_table(group_name)
    assert_counts_match_reference(corpus_word(word_id), group, table.classes)


def test_numpy_chunking_boundaries(monkeypatch):
    # 7 cells per chunk: these words walk at most three generators, all
    # over the orbit rows, and chunk edges fall inside the block of rows of
    # a class representative
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    for group_name in ("S3", "D4", "A4"):
        group, table = group_and_table(group_name)
        for word_id in ("commutator", "pair-rank3", "conjugate-loop", "tambour3"):
            assert_counts_match_reference(corpus_word(word_id), group, table.classes)


@pytest.mark.parametrize("word_id", ("commutator", "general-square", "conjugate-loop"))
def test_counts_where_representatives_are_not_the_first_elements(word_id):
    group, table = reversed_group("S3")
    assert_counts_match_reference(corpus_word(word_id), group, table.classes)


def test_rank_zero_enumerates_the_empty_assignment():
    group, table = group_and_table("S3")
    word = parse_word("1")
    counts = _kernels.element_counts(group, word.letters, 0, table.classes)
    assert counts.sum() == 1 and counts[table.classes.identity_class] == 1


def test_empty_word_counts_every_assignment_at_the_identity():
    group, table = group_and_table("D4")
    word = parse_word("1", Alphabet(("x", "y")))
    assert_counts_match_reference(word, group, table.classes)


@dataclasses.dataclass
class StandInClasses:
    """Class data as the one-generator walk reads them, with any sizes."""

    class_of: np.ndarray
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    def __len__(self):
        return len(self.sizes)

    def orbit_rows(self, depth):
        # a lone generator's rows: the representatives, weighted by the sizes given
        assert depth == 1
        return np.asarray(self.representatives), np.asarray(self.sizes)


def test_counts_reject_class_sizes_that_do_not_divide_the_totals():
    # x^2 on S3 sends the identity and the transpositions to the identity:
    # with the identity class claiming size 4, its total 4 + 3 is not a
    # multiple of 4
    group, table = group_and_table("S3")
    real = table.classes
    sizes = list(real.sizes)
    sizes[real.identity_class] = 4
    classes = StandInClasses(real.class_of, real.representatives, tuple(sizes))
    # at rank 3 the two absent generators scale 7 by |G|^2 = 36, a
    # multiple of 4: the check must read the totals before the scaling
    for rank in (1, 3):
        with pytest.raises(GroupValidationError):
            _kernels.element_counts(group, parse_word("x^2").letters, rank, classes)


def python_character_sums(group, words, rank, classes, chibar):
    """Sum over every one of the |G|^rank assignments, one row at a time."""
    rows = [[complex(v) for v in row] for row in chibar]
    sums = [0j] * len(rows)
    for assigned in product(range(group.order), repeat=rank):
        word_classes = []
        for letters in words:
            acc = group.identity
            for g, s in letters:
                x = assigned[g] if s > 0 else int(group.inv[assigned[g]])
                acc = int(group.mul[acc, x])
            word_classes.append(int(classes.class_of[acc]))
        for i, row in enumerate(rows):
            term = 1 + 0j
            for c in word_classes:
                term *= row[c]
            sums[i] += term
    return np.array(sums)


def random_residual_words(seed, rank, count):
    """``count`` words of 1-4 random letters; word 0 ends in the last generator's inverse."""
    rng = np.random.default_rng(seed)
    words = [
        [
            (int(rng.integers(rank)), int(rng.choice((1, -1))))
            for _ in range(int(rng.integers(1, 5)))
        ]
        for _ in range(count)
    ]
    words[0].append((rank - 1, -1))
    return words


def class_function_rows(table, seed):
    """The conjugate character table plus one random complex class function."""
    rng = np.random.default_rng(seed)
    k = len(table.classes)
    extra = rng.normal(size=k) + 1j * rng.normal(size=k)
    return np.vstack([np.conj(table.values), extra])


@pytest.mark.parametrize("nwords", (1, 2, 3))
@pytest.mark.parametrize("rank", (1, 2, 3))
@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4"))
def test_character_sums_match_python_reference(group_name, rank, nwords):
    group, table = group_and_table(group_name)
    seed = 100 * rank + nwords
    words = random_residual_words(seed, rank, nwords)
    chibar = class_function_rows(table, seed)
    sums = _kernels.split_character_sum(group, words, rank, table.classes, chibar)
    expected = python_character_sums(group, words, rank, table.classes, chibar)
    assert sums.shape == (len(table) + 1,)
    assert np.allclose(sums, expected, rtol=0, atol=1e-9 * group.order**rank)


def test_character_sums_where_representatives_are_not_the_first_elements():
    group, table = reversed_group("S3")
    n = group.order
    words = random_residual_words(7, 2, 2)
    chibar = class_function_rows(table, 7)
    sums = _kernels.split_character_sum(group, words, 2, table.classes, chibar)
    expected = python_character_sums(group, words, 2, table.classes, chibar)
    assert np.allclose(sums, expected, rtol=0, atol=1e-9 * n**2)


@pytest.mark.parametrize("rows", ("all", "one"))
def test_character_sums_across_chunk_edges(monkeypatch, rows):
    # 7 cells per chunk: 2 rows of 3 characters, or 7 rows of one, both
    # cutting through the 6-row block of each class representative
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    group, table = group_and_table("S3")
    words = [[(0, 1), (1, 1), (0, -1), (1, -1)], [(1, -1), (0, 1), (0, 1)]]
    chibar = np.conj(table.values) if rows == "all" else np.conj(table.values[1:2])
    sums = _kernels.split_character_sum(group, words, 2, table.classes, chibar)
    expected = python_character_sums(group, words, 2, table.classes, chibar)
    assert np.allclose(sums, expected, rtol=0, atol=1e-9 * 36)


def test_character_sums_of_rank_zero_words_are_degree_powers():
    group, table = group_and_table("A4")
    sums = _kernels.split_character_sum(group, [[], []], 0, table.classes, table.values)
    assert sums.tolist() == (table.degrees.astype(complex) ** 2).tolist()


@pytest.mark.parametrize("nwords", (1, 2, 3))
def test_empty_walk_keeps_the_bits_of_the_contraction(nwords):
    # every word at the identity class, counted once: the result must be
    # the general contraction's, whose @ turns a -0.0 part into +0.0,
    # which repr prints
    for group_name in ("S3", "Z3", "S4"):
        group, table = group_and_table(group_name)
        identity = table.classes.identity_class
        signed = np.full((2, len(table)), complex(-2.0, -0.0))
        signed[1, identity] = complex(-0.0, -3.0)
        chibar = np.vstack([table.conjugates, signed])
        column = chibar[:, [identity]]
        prod = column
        for _ in range(nwords - 1):
            prod = prod * column
        expected = prod @ np.ones(1, dtype=np.int64) * float(group.order**2)
        sums = _kernels.split_character_sum(group, [[]] * nwords, 2, table.classes, chibar)
        assert repr(sums.tolist()) == repr(expected.tolist())


# orbits of G on pairs and on triples under simultaneous conjugation, by
# Burnside (1/|G|) * sum over g of |C(g)|^2 and of |C(g)|^3
PAIR_ORBITS = {
    "S4": 43, "A4": 22, "D5": 22, "Q8": 28, "S3": 11, "D4": 28,
    "Z1": 1, "Z4": 16, "Z7": 49, "Z12": 144,
}
TRIPLE_ORBITS = {
    "S4": 681, "A4": 178, "D5": 154, "Q8": 176, "S3": 49, "D4": 176,
    "Z1": 1, "Z4": 64, "Z7": 343, "Z12": 1728,
}


def orbit_table_cases(orbits):
    cases = [pytest.param(*group_and_table(name), orbits[name], id=name) for name in orbits]
    for name in ("S3", "S4", "Q8", "A4"):
        group, table = reversed_group(name)
        cases.append(pytest.param(group, table, orbits[name], id=group.name))
    return cases


def assert_one_row_per_orbit(group, classes, depth, orbits):
    *entries, weights = classes.orbit_rows(depth)
    n = group.order
    assert weights.dtype == np.int64 and len(weights) == orbits
    assert orbits == sum(c ** (depth - 1) for c in classes.centralizer_sizes)
    assert int(weights.sum()) == n**depth
    assert set(entries[0].tolist()) == set(classes.representatives)
    mul, inv = group.mul, group.inv
    h = np.arange(n)
    seen = np.zeros(n**depth, dtype=np.int64)
    for row, weight in enumerate(weights):
        row_entries = [int(entry[row]) for entry in entries]
        stabilizer = np.ones(n, dtype=bool)
        for x in row_entries:
            stabilizer &= mul[x] == mul[:, x]
        assert weight == n // np.count_nonzero(stabilizer)  # |G| / |C(x) ∩ C(y) ∩ ...|
        conjugated = [mul[mul[h, x], inv] for x in row_entries]  # h x h^-1 over all h
        orbit = set(zip(*(c.tolist() for c in conjugated)))
        assert len(orbit) == weight
        for key in orbit:
            seen[np.ravel_multi_index(key, (n,) * depth)] += 1
    assert (seen == 1).all()  # the orbits are disjoint and cover G^depth


@pytest.mark.parametrize("group, table, orbits", orbit_table_cases(PAIR_ORBITS))
def test_pair_table_has_one_row_per_orbit(group, table, orbits):
    assert_one_row_per_orbit(group, table.classes, 2, orbits)


@pytest.mark.parametrize("group, table, orbits", orbit_table_cases(TRIPLE_ORBITS))
def test_triple_table_has_one_row_per_orbit(group, table, orbits):
    assert_one_row_per_orbit(group, table.classes, 3, orbits)
    # each triple extends a pair row, in the pair table's order
    xs, ys, _ = table.classes.orbit_rows(2)
    pairs = list(dict.fromkeys(zip(*(a.tolist() for a in table.classes.orbit_rows(3)[:2]))))
    assert pairs == list(zip(xs.tolist(), ys.tolist()))


@pytest.mark.parametrize("rank", (3, 4))
def test_s4_walk_over_triples_matches_python_reference(monkeypatch, rank):
    # S4 is the only built-in above order 12.  The word's last generator
    # occurring exactly twice is summed out through its fiber table, or,
    # with no fiber table, walked: rank 3 then runs over the 681 orbits on
    # triples, and rank 4 over those times |G|
    group, table = group_and_table("S4")
    classes, k = table.classes, len(table.classes)
    word = [(0, 1), (1, 1), (2, 1), (0, -1), (1, 1), (2, -1), (1, -1)]
    if rank == 4:
        word += [(3, 1), (0, 1), (3, -1)]
    rows = np.vstack([class_function_rows(table, rank), np.eye(k)])
    expected = python_character_sums(group, [word], rank, classes, rows)
    totals = expected[-k:].real.round().astype(np.int64)  # per class, over 24^rank
    assert int(totals.sum()) == group.order**rank
    for cells in (_kernels._FIBER_CELLS, 0):
        monkeypatch.setattr(_kernels, "_FIBER_CELLS", cells)
        if not cells:
            assert _kernels.walked_assignments(group, [word], classes) == 681 * 24 ** (rank - 3)
        sums = _kernels.split_character_sum(group, [word], rank, classes, rows)
        assert np.allclose(sums, expected, rtol=0, atol=1e-9 * group.order**rank)
        counts = _kernels.element_counts(group, word, rank, classes)
        assert (counts * np.array(classes.sizes)).tolist() == totals.tolist()


def direct_square(group):
    """G x G, with (a, b) at a*|G| + b."""
    n, mul = group.order, group.mul
    table = mul[:, None, :, None] * n + mul[None, :, None, :]
    return FiniteGroup(table.reshape(n * n, n * n), name=f"{group.name}x{group.name}")


def test_walks_over_pairs_when_triples_save_nothing_or_pass_the_cap(monkeypatch):
    # Z12 has |G|^3 triples, as many as its pairs times |G|; S3xS3 has
    # 49^2 = 2401 orbits on triples, past the cap
    z12, _ = group_and_table("Z12")
    s3xs3 = direct_square(group_and_table("S3")[0])
    s4, s4_table = group_and_table("S4")
    for group in (z12, s3xs3):
        classes = ConjugacyClasses(group)
        triples = sum(c * c for c in classes.centralizer_sizes)
        assert triples > _kernels._TRIPLE_ROWS or triples == group.order**3
        for walked in (3, 4):
            assert _kernels._orbit_depth(classes, walked) == 2
        word = [(0, 1), (1, 1), (2, 1), (0, -1), (1, -1), (2, -1)] * 2
        pairs = sum(classes.centralizer_sizes)
        assert _kernels.walked_assignments(group, [word], classes) == pairs * group.order
        walked = sum(
            weight.size * group.order ** (weight.ndim - 1)  # rows span the axes after them
            for weight, _ in _kernels._orbit_walk(group, [word], classes, [0, 1, 2])
        )
        assert walked == pairs * group.order
    assert _kernels._orbit_depth(s4_table.classes, 3) == 3
    monkeypatch.setattr(_kernels, "_TRIPLE_ROWS", 680)
    assert _kernels._orbit_depth(s4_table.classes, 3) == 2
    word = [(0, 1), (1, 1), (2, 1)] * 3
    assert _kernels.walked_assignments(s4, [word], s4_table.classes) == 43 * 24


def python_joint_tally(group, words, rank, classes):
    """Class tuples of the words' values over every |G|^rank assignment."""
    tally = Counter()
    mul, inv = group.mul.tolist(), group.inv.tolist()
    class_of = np.asarray(classes.class_of).tolist()
    for assigned in product(range(group.order), repeat=rank):
        found = []
        for letters in words:
            acc = group.identity
            for g, s in letters:
                x = assigned[g] if s > 0 else inv[assigned[g]]
                acc = mul[acc][x]
            found.append(class_of[acc])
        tally[tuple(found)] += 1
    return tally


def joint_words(seed, generators, count):
    """``count`` words of 1-4 random letters over ``generators``, each used."""
    rng = np.random.default_rng(seed)
    words = [
        [
            (int(rng.choice(generators)), int(rng.choice((1, -1))))
            for _ in range(int(rng.integers(1, 5)))
        ]
        for _ in range(count)
    ]
    words[0] += [(g, -1) for g in generators]
    return words


def assert_tally_matches_reference(group, words, rank, classes):
    present = _kernels._present_generators(words)
    tuples, counts = _kernels._joint_tally(group, words, classes, present)
    assert counts.dtype == np.int64 and (counts > 0).all()
    assert tuples.shape == (len(words), len(counts))
    got = dict(zip(map(tuple, tuples.T.tolist()), counts.tolist()))
    assert len(got) == len(counts)  # one column per tuple
    absent = group.order ** (rank - len(present))
    expected = python_joint_tally(group, words, rank, classes)
    assert {key: value * absent for key, value in got.items()} == dict(expected)


@pytest.mark.parametrize("generators", ((0, 2), (0, 1, 2)), ids=("absent-y", "all"))
@pytest.mark.parametrize("nwords", (1, 2, 3, 4))
@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4"))
def test_joint_tally_matches_python_reference(group_name, nwords, generators):
    group, table = group_and_table(group_name)
    words = joint_words(10 * nwords + len(generators), generators, nwords)
    assert_tally_matches_reference(group, words, 3, table.classes)


@pytest.mark.parametrize("dense", ("all", "none"))
def test_joint_tally_across_chunk_edges_and_sparse_merges(monkeypatch, dense):
    # 7 cells per chunk.  "all" keeps every k^r table dense, at the cap;
    # "none" is one cell short of it, so every chunk is sorted and merged
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    for group_name in ("S3", "A4"):
        group, table = group_and_table(group_name)
        k = len(table.classes)
        for nwords in (1, 2, 3, 4):
            cap = {"all": k**nwords, "none": k**nwords - 1}[dense]
            monkeypatch.setattr(_kernels, "_DENSE", cap)
            words = joint_words(nwords, (0, 2), nwords)
            assert_tally_matches_reference(group, words, 3, table.classes)


# The formula route's walks are small: one chunk, the whole orbit table.
# Each shape the tally takes there, against the references:
# one word (whose class is the whole tuple; a generator of that word that
# occurs twice is summed out through its fiber table), an inverted
# generator (joint_words ends word 0 with the inverses), 1-4 words, one
# generator over the classes, and whole axes after the orbit rows (four
# generators).
@pytest.mark.parametrize("nwords", (1, 2, 3, 4))
@pytest.mark.parametrize(
    "group_name, generators",
    (
        ("S3", 3), ("Q8", 3), ("A4", 3), ("D5", 3), ("S4", 2),
        ("D5", 1), ("S4", 1), ("S3", 4), ("Q8", 4),
    ),
)
def test_small_walks_in_one_chunk_match_python_references(group_name, generators, nwords):
    group, table = group_and_table(group_name)
    classes = table.classes
    seed = 1000 + 10 * generators + nwords
    words = joint_words(seed, tuple(range(generators)), nwords)
    assert any(s < 0 for letters in words for _, s in letters)
    fiber = _kernels._fiber_split(group, words, classes)
    walked = fiber[0] if fiber else words
    present = _kernels._present_generators(walked)
    ((weight, values),) = _kernels._orbit_walk(group, walked, classes, present)
    assert weight.size == len(classes.orbit_rows(min(len(present), 3))[-1])
    assert weight.ndim == 1 + max(0, len(present) - 3)
    assert_tally_matches_reference(group, words, generators, classes)
    chibar = class_function_rows(table, seed)
    sums = _kernels.split_character_sum(group, words, generators, classes, chibar)
    expected = python_character_sums(group, words, generators, classes, chibar)
    assert np.allclose(sums, expected, rtol=0, atol=1e-9 * group.order**generators)


# (words, rank) with empty words: no generator present, no words at all,
# and empty words among non-empty ones, with generator 1 absent
EMPTY_WORD_CASES = {
    "all-empty-rank0": ([[], []], 0),
    "all-empty-rank2": ([[], [], []], 2),
    "no-words-rank0": ([], 0),
    "no-words-rank2": ([], 2),
    "mixed": ([[], [(0, 1), (2, -1), (0, 1)], [], [(2, 1), (0, -1), (2, 1)]], 3),
}


@pytest.mark.parametrize("path", ("dense", "merge"))
@pytest.mark.parametrize("case", EMPTY_WORD_CASES)
@pytest.mark.parametrize("group_name", ("S3", "Q8"))
def test_joint_tally_of_empty_words_and_of_no_words(monkeypatch, group_name, case, path):
    group, table = group_and_table(group_name)
    words, rank = EMPTY_WORD_CASES[case]
    if path == "merge":  # one cell short of k^r, so every chunk is sorted and merged
        monkeypatch.setattr(_kernels, "_DENSE", len(table.classes) ** len(words) - 1)
    assert_tally_matches_reference(group, words, rank, table.classes)


@pytest.mark.parametrize("word_id", ("commutator", "cube", "tambour3", "conjugate-loop"))
@pytest.mark.parametrize("group_name", ("S3", "Q8", "A4"))
def test_single_word_tally_is_the_oracle_class_totals(group_name, word_id):
    group, table = group_and_table(group_name)
    word = corpus_word(word_id)
    present = _kernels._present_generators([word.letters])
    (found,), counts = _kernels._joint_tally(group, [word.letters], table.classes, present)
    totals = np.zeros(len(table.classes), dtype=np.int64)
    totals[found] = counts
    reference = np.bincount(
        table.classes.class_of, weights=python_distribution(word, group)
    ).astype(np.int64)  # every assignment is counted once, all generators present
    assert totals.tolist() == reference.tolist()


# fiber table: a generator z occurring exactly twice in one word is summed
# out through ConjugacyClasses.fiber_table instead of being walked

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SIGN_IDS = ("z-z", "z-zinv", "zinv-z", "zinv-zinv")


def fiber_word(seed, present, z, signs, last_times=None):
    """One word over generators 0..present-1, first appearing in index
    order, where z occurs exactly twice with ``signs`` and no other
    generator does: the last one ``last_times`` times when given and not
    z, the others once or three times."""
    rng = np.random.default_rng(seed)
    times = [int(rng.choice((1, 3))) for _ in range(present)]
    times[z] = 2
    if last_times is not None and z != present - 1:
        times[-1] = last_times
    letters = [(g, int(rng.choice((1, -1)))) for g in range(present)]
    for g in range(present):
        for _ in range(times[g] - 1):
            first = next(at for at, (h, _) in enumerate(letters) if h == g)
            letters.insert(int(rng.integers(first + 1, len(letters) + 1)),
                           (g, int(rng.choice((1, -1)))))
    i, j = (at for at, (g, _) in enumerate(letters) if g == z)
    letters[i], letters[j] = (z, signs[0]), (z, signs[1])
    return letters


def assert_fiber_tally_matches_reference(group, classes, word, present, z, signs):
    segments, table = _kernels._fiber_split(group, [word], classes)
    assert table is classes.fiber_table(*signs)
    walked = {g for segment in segments for g, _ in segment}
    assert walked == set(range(present)) - {z}
    assert_tally_matches_reference(group, [word], present, classes)


@pytest.mark.parametrize("signs", SIGN_PAIRS, ids=SIGN_IDS)
@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4"))
def test_fiber_tally_matches_python_reference(group_name, signs):
    # z first to appear (in the head pair) and last to appear (outside it
    # from three generators on), for 2 to 5 present generators; 5 only on
    # S3, where the reference loops over 6^5 assignments
    group, table = group_and_table(group_name)
    for present in range(2, 6 if group.order <= 6 else 5):
        for z in (0, present - 1):
            word = fiber_word(10 * present + z, present, z, signs)
            assert_fiber_tally_matches_reference(group, table.classes, word, present, z, signs)


@pytest.mark.parametrize("last_times", (1, 3, 4))
@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4"))
def test_fiber_skips_a_last_generator_that_does_not_occur_twice(group_name, last_times):
    # z is the generator occurring exactly twice, not the last to appear
    group, table = group_and_table(group_name)
    for z in (1, 2):
        word = fiber_word(last_times + z, 4, z, (1, -1), last_times)
        assert sum(g == 3 for g, _ in word) == last_times
        assert_fiber_tally_matches_reference(group, table.classes, word, 4, z, (1, -1))


def test_fiber_tally_across_chunk_edges(monkeypatch):
    # 7 cells per chunk: at most three generators are walked, all over the
    # orbit rows, and chunk edges fall inside the block of rows of a class
    # representative
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    for group_name in ("S3", "A4"):
        group, table = group_and_table(group_name)
        for present in (2, 3, 4):
            for signs in SIGN_PAIRS:
                word = fiber_word(present, present, present - 2, signs)
                assert_fiber_tally_matches_reference(
                    group, table.classes, word, present, present - 2, signs
                )


def shuffled_word(seed, times):
    """Generator g ``times[g]`` times, with signs alternating from +1, in
    a random order: an even count gives it exponent sum 0."""
    letters = [(g, (-1) ** i) for g, n in enumerate(times) for i in range(n)]
    return [letters[at] for at in np.random.default_rng(seed).permutation(len(letters))]


@pytest.mark.parametrize("group_name", ("S3", "A4"))
def test_walk_past_the_orbit_rows_takes_mixed_radix_digits(monkeypatch, group_name):
    # 7 cells per chunk: three walked generators run over the orbit rows,
    # S3 keeps one other as a whole axis of 6 and A4 none, and the rest
    # are digits of the chunk's assignments.  Every
    # exponent sum is 0, where a generator with sum +-1 would spread the
    # word's values evenly whatever the others were assigned
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    group, table = group_and_table(group_name)
    walked = 6 if group.order <= 6 else 5  # two digits on either group
    # four letters each: a single word with no generator to sum out
    letters = shuffled_word(walked, [4] * walked)
    assert _kernels._fiber_split(group, [letters], table.classes) is None
    names = tuple("abcdef"[:walked])
    assert_counts_match_reference(Word(Alphabet(names), tuple(letters)), group, table.classes)
    assert_tally_matches_reference(group, [letters[:9], letters[9:]], walked, table.classes)
    # the last generator twice, summed out by the fiber table: one digit
    word = shuffled_word(walked, [4] * (walked - 1) + [2])
    signs = tuple(s for g, s in word if g == walked - 1)
    assert_fiber_tally_matches_reference(group, table.classes, word, walked, walked - 1, signs)


@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4"))
def test_oracle_counts_are_the_plain_walks_on_the_corpus(monkeypatch, group_name):
    group, table = group_and_table(group_name)
    for word_id, _, names in CORPUS:
        word = corpus_word(word_id)
        if group.order ** len(names) > MASTER_CAP:
            continue
        args = (group, word.letters, word.alphabet.rank, table.classes)
        with monkeypatch.context() as plain:
            plain.setattr(_kernels, "_FIBER_CELLS", 0)
            expected = _kernels.element_counts(*args)
        assert _kernels.element_counts(*args).tolist() == expected.tolist()


def test_fiber_falls_back_to_the_plain_walk(monkeypatch):
    group, table = group_and_table("S3")
    classes = table.classes
    word = fiber_word(0, 3, 1, (1, 1))
    assert _kernels._fiber_split(group, [word], classes) is not None
    # two words, one generator, or no generator occurring exactly twice
    assert _kernels._fiber_split(group, [word, word], classes) is None
    assert _kernels._fiber_split(group, [[(0, 1), (0, 1)]], classes) is None
    thrice = [(0, 1), (1, 1), (1, 1), (0, -1), (1, 1), (0, 1)]
    assert _kernels._fiber_split(group, [thrice], classes) is None
    assert _kernels._fiber_split(group, [[(0, 1), (1, 1), (0, 1), (1, 1)] * 2], classes) is None
    # a table past the cell cap
    n, k = group.order, len(classes)
    monkeypatch.setattr(_kernels, "_FIBER_CELLS", n * n * k - 1)
    assert _kernels._fiber_split(group, [word], classes) is None
    assert_tally_matches_reference(group, [word], 3, classes)
    monkeypatch.setattr(_kernels, "_FIBER_CELLS", n * n * k)
    assert _kernels._fiber_split(group, [word], classes) is not None


def test_fiber_split_has_no_bound_on_the_walk():
    # 24^12 walked assignments; the int64 tally needs no cap of its own
    group, table = group_and_table("S4")
    word = [(g, 1) for g in range(13)] + [(0, -1)]
    segments, fibers = _kernels._fiber_split(group, [word], table.classes)
    assert fibers is table.classes.fiber_table(1, -1)
    assert segments == [word[1:13], []]


@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4", "S3-reversed"))
def test_fiber_table_counts_each_z_once_and_is_built_once(group_name):
    if group_name.endswith("-reversed"):
        group, _ = reversed_group(group_name.split("-")[0])
    else:
        group, _ = group_and_table(group_name)
    classes = ConjugacyClasses(group)  # fresh, so nothing is kept on it yet
    n, mul = group.order, group.mul
    word = fiber_word(1, 3, 2, (-1, 1))
    _kernels.element_counts(group, word, 3, classes)
    built = classes.fiber_table(-1, 1)
    _kernels.element_counts(group, word, 3, classes)
    assert classes.fiber_table(-1, 1) is built
    for e1, e2 in SIGN_PAIRS:
        table = classes.fiber_table(e1, e2)
        assert table.dtype == np.int64 and table.shape == (n * n, len(classes))
        assert not table.flags.writeable
        assert (table.sum(axis=1) == n).all()  # one class per z
        expected = np.zeros_like(table)
        for z in range(n):
            left, right = (z if e > 0 else group.inv[z] for e in (e1, e2))
            for b in range(n):
                middle = mul[mul[left, b], right]
                for c in range(n):
                    expected[b * n + c, classes.class_of[mul[middle, c]]] += 1
        assert table.tolist() == expected.tolist()


# Two letters summed out: z and y, the first two generators to occur
# exactly twice, through ConjugacyClasses.second_fiber_table.  y's letters
# lie one in each segment of z (straddling), both in B, or both in D

Y_CASES = ("straddles", "both-in-B", "both-in-D")
BUILTINS = tuple(ORDERS)


def two_fiber_word(seed, case, z_signs, y_signs, walked=1):
    """z = 0, y = 1 and ``walked`` further generators, each once or three
    times, as A z B z C with y's letters placed in B or C by ``case``."""
    rng = np.random.default_rng(seed)
    rest = [
        (g, int(rng.choice((1, -1))))
        for g in range(2, 2 + walked)
        for _ in range(int(rng.choice((1, 3))))
    ]
    rest = [rest[at] for at in rng.permutation(len(rest))]
    cuts = np.sort(rng.integers(0, len(rest) + 1, size=4)).tolist()
    a, p, q, r, s = (rest[i:j] for i, j in zip([0] + cuts, cuts + [len(rest)]))
    z1, z2 = ((0, e) for e in z_signs)
    y1, y2 = ((1, f) for f in y_signs)
    if case == "straddles":
        return a + [z1] + p + [y1] + q + [z2] + r + [y2] + s
    if case == "both-in-B":
        return a + [z1] + p + [y1] + q + [y2] + r + [z2] + s
    return a + [z1] + s + [z2] + p + [y1] + q + [y2] + r


def plain_tally(monkeypatch, group, words, classes):
    with monkeypatch.context() as plain:
        plain.setattr(_kernels, "_FIBER_CELLS", 0)
        return tally(group, words, classes)


def walked_rows(group, segments, classes):
    present = _kernels._present_generators(segments)
    return sum(
        weight.size * group.order ** (weight.ndim - 1)  # rows span the axes after them
        for weight, _ in _kernels._orbit_walk(group, segments, classes, present, True)
    )


@pytest.mark.parametrize("group_name", BUILTINS)
def test_two_letter_fiber_tally_matches_the_plain_walk_and_python_reference(
    monkeypatch, group_name
):
    # every case and every sign pair of z and y, at rank 3 (one walked
    # generator) on every built-in, against the plain walk; the Python
    # reference takes two sign pairs per case and group, in turn, so that
    # the built-ins cover all 16 per case.  Z11 and Z12 have |G|^3 orbits
    # on triples, more than _TRIPLE_ROWS, and sum z out alone
    group, table = group_and_table(group_name)
    classes = table.classes
    fits = sum(c * c for c in classes.centralizer_sizes) <= _kernels._TRIPLE_ROWS
    turn = BUILTINS.index(group_name) % 8
    for c, case in enumerate(Y_CASES):
        for s, (z_signs, y_signs) in enumerate(product(SIGN_PAIRS, SIGN_PAIRS)):
            word = two_fiber_word(16 * c + s, case, z_signs, y_signs)
            segments, fibers = _kernels._fiber_split(group, [word], classes)
            if not fits:
                assert fibers is classes.fiber_table(*z_signs)
            else:
                e1, e2 = z_signs[::-1] if case == "both-in-D" else z_signs
                straddles = case == "straddles"
                assert fibers is classes.second_fiber_table(e1, e2, *y_signs, straddles)
                assert {g for segment in segments for g, _ in segment} == {2}
                assert walked_rows(group, segments, classes) == len(classes)
                assert _kernels.walked_assignments(group, [word], classes) == len(classes)
            assert tally(group, [word], classes) == plain_tally(
                monkeypatch, group, [word], classes
            )
            if s % 8 == turn:
                assert_tally_matches_reference(group, [word], 3, classes)


@pytest.mark.parametrize("case", Y_CASES)
@pytest.mark.parametrize("group_name", ("S3", "Q8", "A4", "D5", "S4"))
def test_two_letter_fiber_walks_the_rest_over_orbits_axes_and_chunks(
    monkeypatch, group_name, case
):
    # two to four walked generators: over the pair or triple orbits, whole
    # axes past them, and with 7 cells per chunk, digits and chunk edges
    # inside the rows of a class representative.  The rows walked are
    # walked_assignments' count
    group, table = group_and_table(group_name)
    classes = table.classes
    for walked in (2, 3, 4) if group.order <= 12 else (2, 3):
        for z_signs, y_signs in ((1, -1), (-1, -1)), ((-1, 1), (1, 1)):
            word = two_fiber_word(walked, case, z_signs, y_signs, walked)
            expected = plain_tally(monkeypatch, group, [word], classes)
            for chunk in (_kernels._CHUNK, 7)[: 1 + (walked < 4)]:
                monkeypatch.setattr(_kernels, "_CHUNK", chunk)
                segments, _ = _kernels._fiber_split(group, [word], classes)
                assert len(segments) == 3
                rows = walked_rows(group, segments, classes)
                assert rows == _kernels.walked_assignments(group, [word], classes)
                assert tally(group, [word], classes) == expected
            monkeypatch.undo()
    if group.order ** 4 <= 10**4:  # the Python reference at rank 4
        word = two_fiber_word(0, case, (1, 1), (-1, 1), 2)
        assert_tally_matches_reference(group, [word], 4, classes)


def test_two_letter_fiber_falls_back_to_one_letter(monkeypatch):
    group, table = group_and_table("S3")
    classes = table.classes
    word = two_fiber_word(0, "straddles", (1, -1), (1, 1))
    assert len(_kernels._fiber_split(group, [word], classes)[0]) == 3
    # no third generator left to walk: z and y alone
    alone = [(0, 1), (1, 1), (0, -1), (1, 1)]
    segments, fibers = _kernels._fiber_split(group, [alone], classes)
    assert fibers is classes.fiber_table(1, -1) and segments == [[(1, 1)], [(1, 1)]]
    # |G|^3 past the cell cap, though the fiber table fits
    n, k = group.order, len(classes)
    monkeypatch.setattr(_kernels, "_FIBER_CELLS", n**3 - 1)
    assert n * n * k <= n**3 - 1
    assert len(_kernels._fiber_split(group, [word], classes)[0]) == 2
    assert_tally_matches_reference(group, [word], 3, classes)
    monkeypatch.setattr(_kernels, "_FIBER_CELLS", n**3)
    assert len(_kernels._fiber_split(group, [word], classes)[0]) == 3
    # more orbits on triples than the cap
    monkeypatch.setattr(_kernels, "_TRIPLE_ROWS", 48)
    assert sum(c * c for c in classes.centralizer_sizes) == 49
    assert len(_kernels._fiber_split(group, [word], classes)[0]) == 2


@pytest.mark.parametrize("group_name", ("S3", "D4", "Q8", "A4", "S3-reversed"))
def test_second_fiber_table_counts_each_pair_once_and_is_built_once(group_name):
    if group_name.endswith("-reversed"):
        group, _ = reversed_group(group_name.split("-")[0])
    else:
        group, _ = group_and_table(group_name)
    classes = ConjugacyClasses(group)  # fresh, so nothing is kept on it yet
    n, mul, inv = group.order, group.mul, group.inv
    word = two_fiber_word(1, "straddles", (-1, 1), (1, -1))
    _kernels.element_counts(group, word, 3, classes)
    built, index = classes.second_fiber_table(-1, 1, 1, -1, True), classes.orbit_index(3)
    _kernels.element_counts(group, word, 3, classes)
    assert classes.second_fiber_table(-1, 1, 1, -1, True) is built
    # every triple, by its orbit row
    u, v, t = (a.ravel() for a in np.indices((n, n, n)))
    rows = index[(u * n + v) * n + t]
    assert np.array_equal(index, rows) and not index.flags.writeable
    elems = np.arange(n)
    for z_signs, y_signs in product(SIGN_PAIRS, SIGN_PAIRS):
        for straddles in (True, False):
            fibers = classes.second_fiber_table(*z_signs, *y_signs, straddles)
            assert fibers.dtype == np.int64 and not fibers.flags.writeable
            assert fibers.shape == (len(classes.orbit_rows(3)[-1]), len(classes))
            assert (fibers.sum(axis=1) == n * n).all()  # one class per (y, z)
            # [triple, y, z] -> the word's value, multiplied letter by letter
            z1, z2 = (elems if e > 0 else inv for e in z_signs)
            y1, y2 = (elems if f > 0 else inv for f in y_signs)
            z1, z2 = z1[None, None, :], z2[None, None, :]
            y1, y2 = y1[None, :, None], y2[None, :, None]
            a, b, c = u[:, None, None], v[:, None, None], t[:, None, None]
            if straddles:
                value = mul[mul[mul[mul[mul[mul[z1, y1], a], z2], b], y2], c]
            else:
                value = mul[mul[mul[mul[mul[mul[z1, y1], a], y2], b], z2], c]
            landed = classes.class_of[value].reshape(n**3, n * n)
            expected = np.stack([np.bincount(row, minlength=len(classes)) for row in landed])
            assert fibers[rows].tolist() == expected.tolist()
    assert list(classes._indices) == [2, 3]  # one orbit index per depth, shared
    assert classes.orbit_index(3) is index


# The walk's plan (_kernels._plan): which present generators are the orbit
# heads, and for each word the letter where a left-to-right chain and a
# right-to-left one meet.  Both are free choices: the tally is the same.


def two_occurrence_letters(seed, rank):
    """Each of ``rank`` generators twice, in a seeded order with seeded
    signs, as the oracle's surface words are."""
    rng = np.random.default_rng(seed)
    letters = [(g, int(rng.choice((1, -1)))) for g in range(rank) for _ in (0, 1)]
    return [letters[at] for at in rng.permutation(len(letters))]


# (group, words, _CHUNK or None): single words summed out through
# their fiber tables at ranks 5 to 7, and residual sets of 2-4 words; with
# a small _CHUNK, A4's walk keeps one axis and one digit over 267 chunks
PLAN_CASES = {
    "D5-rank6": ("D5", [two_occurrence_letters(1, 6)], None),
    "A4-rank6": ("A4", [two_occurrence_letters(2, 6)], None),
    "D5-rank7": ("D5", [two_occurrence_letters(10, 7)], None),
    "A4-rank7": ("A4", [two_occurrence_letters(11, 7)], None),
    "Q8-rank6": ("Q8", [two_occurrence_letters(3, 6)], None),
    "S4-rank5": ("S4", [two_occurrence_letters(4, 5)], None),
    "S4-3words": ("S4", joint_words(5, (0, 1, 2, 3), 3), None),
    "A4-2words": ("A4", joint_words(6, (0, 1, 2, 3, 4), 2), None),
    "Q8-4words": ("Q8", joint_words(7, (0, 1, 2, 3, 4), 4), None),
    "D5-4words": ("D5", joint_words(8, (0, 1, 2, 3), 4), None),
    "A4-digit": ("A4", [two_occurrence_letters(9, 6)], 100),
}


class CountedTakes(np.ndarray):
    """A product table that counts the cells its ``take`` reads."""

    taken = 0

    def take(self, indices, *args, **kwargs):
        CountedTakes.taken += np.size(indices)
        return np.asarray(self).take(indices, *args, **kwargs)


class CountingGroup:
    """What the walk reads of a group, with product tables that count."""

    def __init__(self, group):
        self.order, self.inv, self.identity = group.order, group.inv, group.identity
        self.mul = group.mul.view(CountedTakes)
        self.lifted = group.lifted.view(CountedTakes)


def plan_case(monkeypatch, case):
    group_name, words, chunk = PLAN_CASES[case]
    if chunk:
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    group, table = group_and_table(group_name)
    classes = table.classes
    fiber = _kernels._fiber_split(group, words, classes)
    assert (fiber is not None) == (len(words) == 1)
    return group, words, classes, fiber[0] if fiber else words


def forcing(monkeypatch):
    """Make ``_orbit_walk`` take ``plan["heads"]``, an index into the
    choices of heads in order of first appearance, and a split of
    ``plan["split"]`` letters (or all but one) in every word."""
    plan = {"heads": 0, "split": 1}

    def forced(word_letter_lists, present, depth, inner, order, rows, chunks):
        heads = list(combinations(present, depth))[plan["heads"]]
        layout = list(heads) + [g for g in present if g not in heads]
        splits = [max(1, min(plan["split"], len(w) - 1)) for w in word_letter_lists]
        return layout, splits

    monkeypatch.setattr(_kernels, "_plan", forced)
    return plan


def tally(group, words, classes):
    present = _kernels._present_generators(words)
    tuples, counts = _kernels._joint_tally(group, words, classes, present)
    return tuples.tolist(), counts.tolist()


@pytest.mark.parametrize("case", PLAN_CASES)
def test_every_choice_of_heads_and_split_tallies_as_the_left_to_right_chain(
    monkeypatch, case
):
    group, words, classes, tallied = plan_case(monkeypatch, case)
    planned = tally(group, words, classes)
    plan = forcing(monkeypatch)
    # the first generators to appear as heads, every word left to right
    expected = tally(group, words, classes)
    assert planned == expected
    walked = len(_kernels._present_generators(tallied))
    longest = max(map(len, tallied))
    for plan["heads"] in range(math.comb(walked, _kernels._orbit_depth(classes, walked))):
        for plan["split"] in range(1, longest):
            assert tally(group, words, classes) == expected, plan


@pytest.mark.parametrize("case", PLAN_CASES)
def test_the_plan_reads_no_more_cells_than_the_left_to_right_chain(monkeypatch, case):
    group, words, classes, tallied = plan_case(monkeypatch, case)
    counting = CountingGroup(group)
    walked = _kernels._present_generators(tallied)

    def walk():
        CountedTakes.taken = rows = 0
        for weight, _ in _kernels._orbit_walk(counting, tallied, classes, walked):
            rows += weight.size * group.order ** (weight.ndim - 1)
        return CountedTakes.taken, rows

    planned, planned_rows = walk()
    forcing(monkeypatch)
    chain, chain_rows = walk()
    assert planned <= chain
    if case in ("D5-rank7", "A4-rank7"):  # walks large enough to plan
        assert planned < chain
    if case in ("D5-rank6", "A4-rank6"):  # one chunk's cells: left to right
        assert planned == chain <= _kernels._CHUNK
    # the same rows, whichever generators are the heads
    assert planned_rows == chain_rows == _kernels.walked_assignments(group, words, classes)
    depth = _kernels._orbit_depth(classes, len(walked))
    rows = sum(c ** (depth - 1) for c in classes.centralizer_sizes)
    assert planned_rows == rows * group.order ** (len(walked) - depth)


def test_a_lone_generator_or_no_axis_leaves_nothing_to_plan():
    # every product spans the rows alone; nothing of the class data is read
    words = [[(0, 1), (0, -1), (0, 1)], [(0, -1)], []]
    assert _kernels._plan(words, [0], 1, 0, 24, 5, 1) == ([0], [1, 1, 1])
    # one element: every axis has one cell
    assert _kernels._plan(words, [0, 1, 2], 2, 1, 1, 1, 1) == ([0, 1, 2], [1, 1, 1])


def test_a_walk_of_a_chunks_cells_keeps_the_first_heads_and_the_left_to_right_chain(
    monkeypatch,
):
    # D5 at rank 6 with two letters summed out: four walked generators,
    # 154 triple rows times one axis of 10, read once per product
    group, words, classes, tallied = plan_case(monkeypatch, "D5-rank6")
    present = _kernels._present_generators(tallied)
    products = sum(len(letters) - 1 for letters in tallied)
    args = (tallied, present, 3, 1, group.order, 154, 1)
    unplanned = (present, [1] * len(tallied))
    monkeypatch.setattr(_kernels, "_CHUNK", products * 154 * group.order)
    assert _kernels._plan(*args) == unplanned
    # one cell more than a chunk holds, and the plan finds fewer cells
    monkeypatch.setattr(_kernels, "_CHUNK", products * 154 * group.order - 1)
    assert _kernels._plan(*args) != unplanned


def test_kernel_ab_times_two_trees_and_checks_their_results(capsys):
    import kernel_ab  # tools/, on the path through conftest

    src = str(Path(_kernels.__file__).resolve().parents[1])
    assert kernel_ab.main([src, src, "--seed", "1", "--rounds", "2"]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["identical"] and doc["rounds"] == 2
    calls = {}
    for row in doc["rows"]:
        calls.setdefault(row["workload"], {})[row["kernel"], row["group"], row["rank"]] = (
            row["calls"]
        )
    # the seed-1 oracle-enum words: 24 of 24^4, 12 of 10^6, 3 of 12^6, 1 of 24^5
    assert calls["oracle-enum"] == {
        ("element_counts", "S4", 4): 24, ("element_counts", "D5", 6): 12,
        ("element_counts", "A4", 6): 3, ("element_counts", "S4", 5): 1,
    }
    # the walk-bound cases: three surface words per group and the intro word
    # under --verify, whose residual rank is 2, and three residual words
    assert calls["walk"] == {
        ("element_counts", "D5", 8): 3, ("element_counts", "A4", 8): 3,
        ("element_counts", "Q8", 8): 3, ("element_counts", "S4", 7): 3,
        ("element_counts", "S3", 10): 3, ("element_counts", "S4", 6): 1,
        ("split_character_sum", "S4", 2): 1, ("split_character_sum", "S4", 3): 1,
        ("split_character_sum", "A4", 3): 1, ("split_character_sum", "D5", 3): 1,
    }
    assert all(row["new_wins"].endswith("/2") for row in doc["rows"])
