"""Kernels against plain Python loops, and numba/numpy parity for the counts."""

from itertools import product

import numpy as np
import pytest

from wordfourier import FiniteGroup, _kernels, compute_character_table, parse_word
from wordfourier.fourier import distribution

from corpus import corpus_word, group_and_table, python_distribution

BACKENDS = ("numpy", "numba") if _kernels.HAS_NUMBA else ("numpy",)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("word_id", ("empty", "commutator", "brace", "cube"))
@pytest.mark.parametrize("group_name", ("S3", "Q8"))
def test_counts_match_python_reference(backend, word_id, group_name):
    word = corpus_word(word_id)
    group, _ = group_and_table(group_name)
    counts = _kernels.element_counts(
        group, word.letters, word.alphabet.rank, backend=backend
    )
    assert counts.tolist() == python_distribution(word, group)


@pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba not installed")
def test_backends_agree_on_larger_case():
    word = corpus_word("comm-product")
    group, table = group_and_table("S4")
    via_numba = distribution(word, group, classes=table.classes, backend="numba")
    via_numpy = distribution(word, group, classes=table.classes, backend="numpy")
    assert np.array_equal(via_numba.values, via_numpy.values)


def test_numpy_chunking_boundaries(monkeypatch):
    # force many partial chunks through the vectorized path
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    word = parse_word("[x,y]")
    group, _ = group_and_table("S3")
    counts = _kernels.element_counts(group, word.letters, 2, backend="numpy")
    assert counts.tolist() == python_distribution(word, group)


def test_rank_zero_enumerates_the_empty_assignment():
    group, table = group_and_table("S3")
    word = parse_word("1")
    for backend in BACKENDS:
        counts = _kernels.element_counts(group, word.letters, 0, backend=backend)
        assert counts.sum() == 1 and counts[group.identity] == 1
    chibar = np.conj(table.values)
    sums = _kernels.split_character_sum(group, [], 0, table.classes, chibar)
    assert sums.tolist() == [1.0] * len(table)  # empty product over no words


class TestBackendSelection:
    def test_env_values(self, monkeypatch):
        monkeypatch.setenv(_kernels.ENV_VAR, "numpy")
        assert _kernels.active_backend() == "numpy"
        monkeypatch.setenv(_kernels.ENV_VAR, "auto")
        expected = "numba" if _kernels.HAS_NUMBA else "numpy"
        assert _kernels.active_backend() == expected
        monkeypatch.delenv(_kernels.ENV_VAR)
        assert _kernels.active_backend() == expected

    def test_unknown_value_rejected(self, monkeypatch):
        monkeypatch.setenv(_kernels.ENV_VAR, "fortran")
        with pytest.raises(ValueError):
            _kernels.active_backend()

    def test_numba_request_without_numba(self, monkeypatch):
        monkeypatch.setenv(_kernels.ENV_VAR, "numba")
        monkeypatch.setattr(_kernels, "HAS_NUMBA", False)
        with pytest.raises(RuntimeError):
            _kernels.active_backend()

    def test_env_flag_drives_distribution(self, monkeypatch):
        # the fallback is selected per call, so env changes take effect live
        monkeypatch.setenv(_kernels.ENV_VAR, "numpy")
        group, table = group_and_table("Z4")
        dist = distribution(parse_word("[x,y]"), group, classes=table.classes)
        assert dist.total() == 4**2


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
    # the shipped groups list class representatives first; reversing the
    # element labels puts them elsewhere
    s3, _ = group_and_table("S3")
    n = s3.order
    flip = np.arange(n)[::-1]
    group = FiniteGroup(flip[s3.mul[np.ix_(flip, flip)]], name="S3-reversed")
    table = compute_character_table(group)
    assert table.classes.representatives != tuple(range(len(table)))
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


def test_warm_up_compiles_both_kernels():
    for backend in BACKENDS:
        _kernels.warm_up(backend=backend)
