"""Occurrence scan: where each generator occurs in a word, and its class.

A generator is *single* when it occurs exactly once in the word (with
either sign), a *square* when it occurs exactly twice with the same sign,
and *dismissible* when it occurs once positively and once negatively.
Everything with three or more occurrences, or a mixed two-plus-one
pattern, is *general*; generators with no occurrence are *absent*.

This module owns that case split.  :func:`occurrences` scans a word once
and :func:`kind` classifies one generator from the scan, through
:func:`tally_kind`, which decides from the occurrence count and the sum of
the signs alone.  :func:`reduction.normalize` classifies its input's
generators once through :func:`tally_kind` and tracks the changes from
there, :func:`reduction.split_dismissible` reads :func:`occurrences` and
classifies its two-letter generators through :func:`tally_kind`, and
:func:`classify`, which builds the per-generator profile the CLI prints,
reads :func:`occurrences` and :func:`kind`.

Classification concerns the freely reduced word, so :func:`classify`
reduces its input defensively and records whether that changed anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, free_reduce

ABSENT = "absent"
SINGLE = "single"
SQUARE = "square"
DISMISSIBLE = "dismissible"
GENERAL = "general"

# (position, sign) of each occurrence of one generator, in word order
Occurrences = list[tuple[int, int]]


def occurrences(word: Word) -> list[Occurrences]:
    """For each generator index, its occurrences in the word as given."""
    occ: list[Occurrences] = [[] for _ in range(word.alphabet.rank)]
    for i, (g, s) in enumerate(word.letters):
        occ[g].append((i, s))
    return occ


def kind(occ: Occurrences) -> str:
    """Classification of a generator from its occurrences."""
    return tally_kind(len(occ), sum(s for _, s in occ))


def tally_kind(count: int, sign_sum: int) -> str:
    """Classification of a generator occurring ``count`` times with signs
    adding up to ``sign_sum``: two occurrences are a square when their
    signs agree and dismissible when they cancel."""
    if count == 0:
        return ABSENT
    if count == 1:
        return SINGLE
    if count == 2:
        return DISMISSIBLE if sign_sum == 0 else SQUARE
    return GENERAL


@dataclass(frozen=True)
class GeneratorProfile:
    name: str
    positive_count: int
    negative_count: int
    positions: tuple[int, ...]
    classification: str


@dataclass(frozen=True)
class OccurrenceProfile:
    """Per-generator occurrence data for a freely reduced word."""

    word: Word  # the reduced word the profile describes
    generators: tuple[GeneratorProfile, ...]
    reduction_changed: bool  # input was not freely reduced


def classify(word: Word) -> OccurrenceProfile:
    """Profile every generator of the word's alphabet.

    The word is freely reduced first; ``reduction_changed`` reports whether
    that altered the letter sequence.
    """
    reduced = free_reduce(word)
    profiles = []
    for name, occ in zip(word.alphabet.names, occurrences(reduced)):
        positive = sum(1 for _, s in occ if s > 0)
        profiles.append(
            GeneratorProfile(
                name=name,
                positive_count=positive,
                negative_count=len(occ) - positive,
                positions=tuple(i for i, _ in occ),
                classification=kind(occ),
            )
        )
    # free reduction only ever removes letters
    changed = len(reduced) != len(word)
    return OccurrenceProfile(reduced, tuple(profiles), reduction_changed=changed)
