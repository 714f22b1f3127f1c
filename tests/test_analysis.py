"""Occurrence profiles and generator classification."""

import numpy as np
import pytest

from wordfourier import Alphabet, classify, parse_word
from wordfourier.analysis import (
    ABSENT,
    DISMISSIBLE,
    GENERAL,
    SINGLE,
    SQUARE,
    kind,
    occurrences,
)

from corpus import cyclic_shift, invert, random_word


def by_name(profile, name):
    """The profile of the generator called ``name``."""
    return next(g for g in profile.generators if g.name == name)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("[x,y]", {"x": DISMISSIBLE, "y": DISMISSIBLE}),
        ("{x,y}", {"x": SQUARE, "y": DISMISSIBLE}),
        ("x*y*x^-1", {"x": DISMISSIBLE, "y": SINGLE}),
        ("x^-2*y", {"x": SQUARE, "y": SINGLE}),
        ("x^3", {"x": GENERAL}),
        ("x^2*y*x^-1", {"x": GENERAL, "y": SINGLE}),
    ],
)
def test_classification_examples(text, expected):
    profile = classify(parse_word(text))
    for name, cls in expected.items():
        assert by_name(profile, name).classification == cls


def test_absent_generator():
    profile = classify(parse_word("x", Alphabet(("x", "z"))))
    assert by_name(profile, "z").classification == ABSENT


def test_defensive_reduction_is_recorded():
    profile = classify(parse_word("x*y*y^-1"))
    assert profile.reduction_changed
    assert by_name(profile, "x").classification == SINGLE
    assert by_name(profile, "y").classification == ABSENT
    assert not classify(parse_word("x*y")).reduction_changed


def test_occurrences_scan_the_word_as_given():
    # classify reduces first; the scan the reduction rules read does not
    word = parse_word("x*y*y^-1", Alphabet(("x", "y", "z")))
    occ = occurrences(word)
    assert occ == [[(0, 1)], [(1, 1), (2, -1)], []]
    assert [kind(o) for o in occ] == [SINGLE, DISMISSIBLE, ABSENT]
    assert by_name(classify(word), "y").classification == ABSENT


def test_positions_and_count_sum():
    profile = classify(parse_word("{x,y}"))
    x = by_name(profile, "x")
    assert x.positions == (0, 2)
    assert (x.positive_count, x.negative_count) == (2, 0)
    counts = [g.positive_count + g.negative_count for g in profile.generators]
    assert sum(counts) == len(profile.word)


@pytest.mark.parametrize("seed", range(6))
def test_invert_swaps_counts_and_keeps_classes(seed):
    rng = np.random.default_rng(seed)
    word = random_word(rng, Alphabet(("a", "b", "c")), int(rng.integers(0, 12)))
    direct = classify(word)
    flipped = classify(invert(direct.word))
    for g in direct.word.alphabet.names:
        d, f = by_name(direct, g), by_name(flipped, g)
        assert (d.positive_count, d.negative_count) == (f.negative_count, f.positive_count)
        assert d.classification == f.classification


@pytest.mark.parametrize("seed", range(6))
def test_cyclic_shift_invariance(seed):
    # shifts of a cyclically reduced word keep every classification
    rng = np.random.default_rng(100 + seed)
    alphabet = Alphabet(("a", "b", "c"))
    while True:
        word = classify(random_word(rng, alphabet, 8)).word
        if word.letters and word.letters[0] != (word.letters[-1][0], -word.letters[-1][1]):
            break
    base = classify(word)
    for k in range(len(word)):
        shifted = classify(cyclic_shift(word, k))
        for g in alphabet.names:
            assert by_name(shifted, g).classification == by_name(base, g).classification
