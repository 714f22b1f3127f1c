"""Both kernels against plain Python loops over every assignment."""

import dataclasses
from collections import Counter
from itertools import product

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
from wordfourier.words import Alphabet

from corpus import CORPUS, MASTER_CAP, corpus_word, group_and_table, python_distribution

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
    # 7 cells per chunk: S3 keeps one generator as a whole axis of 6 with
    # one row per chunk, D4 and A4 enumerate every generator per row, and
    # chunk edges fall inside the block of rows of a class representative
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
    chibar = np.conj(table.values)
    sums = _kernels.split_character_sum(group, [], 0, table.classes, chibar)
    assert sums.tolist() == [1.0] * len(table)  # empty product over no words


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


def test_character_sums_of_no_words_count_the_assignments():
    group, table = group_and_table("D4")
    sums = _kernels.split_character_sum(group, [], 2, table.classes, np.conj(table.values))
    assert np.allclose(sums, np.full(len(table), 64), rtol=0, atol=1e-9)


# orbits of G on pairs under simultaneous conjugation, by Burnside
# (1/|G|) * sum over g of |C(g)|^2
PAIR_ORBITS = {
    "S4": 43, "A4": 22, "D5": 22, "Q8": 28, "S3": 11, "D4": 28,
    "Z1": 1, "Z4": 16, "Z7": 49, "Z12": 144,
}


def pair_table_cases():
    cases = [pytest.param(*group_and_table(name), PAIR_ORBITS[name], id=name)
             for name in PAIR_ORBITS]
    for name in ("S3", "S4", "Q8", "A4"):
        group, table = reversed_group(name)
        cases.append(pytest.param(group, table, PAIR_ORBITS[name], id=group.name))
    return cases


@pytest.mark.parametrize("group, table, orbits", pair_table_cases())
def test_pair_table_has_one_row_per_orbit(group, table, orbits):
    xs, ys, weights = table.classes.pair_orbits()
    n = group.order
    assert weights.dtype == np.int64 and len(weights) == orbits
    assert int(weights.sum()) == n * n
    assert set(xs.tolist()) == set(table.classes.representatives)
    mul, inv = group.mul, group.inv
    h = np.arange(n)
    seen = np.zeros((n, n), dtype=np.int64)
    for x, y, weight in zip(xs, ys, weights):
        both = np.count_nonzero((mul[x] == mul[:, x]) & (mul[y] == mul[:, y]))
        assert weight == n // both  # |G| / |C(x) ∩ C(y)|
        orbit = {(int(a), int(b)) for a, b in zip(mul[mul[h, x], inv], mul[mul[h, y], inv])}
        assert len(orbit) == weight
        for a, b in orbit:
            seen[a, b] += 1
    assert (seen == 1).all()  # the orbits are disjoint and cover G x G


def python_joint_tally(group, words, rank, classes):
    """Class tuples of the words' values over every |G|^rank assignment."""
    tally = Counter()
    for assigned in product(range(group.order), repeat=rank):
        found = []
        for letters in words:
            acc = group.identity
            for g, s in letters:
                x = assigned[g] if s > 0 else int(group.inv[assigned[g]])
                acc = int(group.mul[acc, x])
            found.append(int(classes.class_of[acc]))
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
    tuples, counts = _kernels._joint_tally(group, words, classes)
    present = {g for letters in words for g, _ in letters}
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
    (found,), counts = _kernels._joint_tally(group, [word.letters], table.classes)
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
    order, where z occurs exactly twice with ``signs`` and no generator
    after z occurs twice: the last one ``last_times`` times when given and
    not z, the others once or three times."""
    rng = np.random.default_rng(seed)
    times = [int(rng.choice((1, 2, 3) if g < z else (1, 3))) for g in range(present)]
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
    fiber = _kernels._fiber_split(group, [word], classes)
    assert fiber is not None and fiber[1] == signs
    walked = {g for segment in fiber[0] for g, _ in segment}
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
    # z is the last generator occurring exactly twice, not the last to appear
    group, table = group_and_table(group_name)
    for z in (1, 2):
        word = fiber_word(last_times + z, 4, z, (1, -1), last_times)
        assert sum(g == 3 for g, _ in word) == last_times
        assert_fiber_tally_matches_reference(group, table.classes, word, 4, z, (1, -1))


def test_fiber_tally_across_chunk_edges(monkeypatch):
    # 7 cells per chunk: every walked generator is a row digit, and chunk
    # edges fall inside the block of rows of a class representative
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    for group_name in ("S3", "A4"):
        group, table = group_and_table(group_name)
        for present in (2, 3, 4):
            for signs in SIGN_PAIRS:
                word = fiber_word(present, present, present - 2, signs)
                assert_fiber_tally_matches_reference(
                    group, table.classes, word, present, present - 2, signs
                )


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
    segments, signs = _kernels._fiber_split(group, [word], table.classes)
    assert signs == (1, -1)
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
