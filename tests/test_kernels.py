"""Both kernels against plain Python loops over every assignment."""

import dataclasses
from itertools import product

import numpy as np
import pytest

from wordfourier import (
    FiniteGroup,
    GroupValidationError,
    _kernels,
    compute_character_table,
    parse_word,
)
from wordfourier.words import Alphabet

from corpus import corpus_word, group_and_table, python_distribution

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
    assert counts.tolist() == python_distribution(word, group)


def reversed_s3():
    """S3 with its element labels reversed, so that class representatives
    are not the first elements."""
    s3, _ = group_and_table("S3")
    flip = np.arange(s3.order)[::-1]
    group = FiniteGroup(flip[s3.mul[np.ix_(flip, flip)]], name="S3-reversed")
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
    group, table = reversed_s3()
    assert_counts_match_reference(corpus_word(word_id), group, table.classes)


def test_rank_zero_enumerates_the_empty_assignment():
    group, table = group_and_table("S3")
    word = parse_word("1")
    counts = _kernels.element_counts(group, word.letters, 0, table.classes)
    assert counts.sum() == 1 and counts[group.identity] == 1
    chibar = np.conj(table.values)
    sums = _kernels.split_character_sum(group, [], 0, table.classes, chibar)
    assert sums.tolist() == [1.0] * len(table)  # empty product over no words


def test_empty_word_counts_every_assignment_at_the_identity():
    group, table = group_and_table("D4")
    word = parse_word("1", Alphabet(("x", "y")))
    assert_counts_match_reference(word, group, table.classes)


def test_counts_reject_class_sizes_that_do_not_divide_the_totals():
    # x^2 on S3 sends the identity and the transpositions to the identity:
    # with the identity class claiming size 4, its total 4 + 3 is not a
    # multiple of 4
    group, table = group_and_table("S3")
    sizes = list(table.classes.sizes)
    sizes[table.classes.identity_class] = 4
    classes = dataclasses.replace(table.classes, sizes=tuple(sizes))
    with pytest.raises(GroupValidationError):
        _kernels.element_counts(group, parse_word("x^2").letters, 1, classes)


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
    group, table = reversed_s3()
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
