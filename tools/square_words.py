"""Seeded long words for the square rule, as text over an explicit alphabet.

``tests/test_reduction.py`` checks ``normalize`` against its step-by-step
reference on these words, and ``tools/contract_runs.py`` lists ``reduce``,
``classify`` and ``genus`` runs on them.  Nothing here imports the package.

* :func:`twice_word`: every generator occurs twice, with random signs (the
  shape of the benchmark's reduce words) or, for an orientable word, once
  with each sign.
* :func:`cascade_word`: blocks a*t*y*v*b*t*y*v*c around one square y each.
  Splicing y out cancels t at the first join (w1 and w2 end in t) and v at
  the second (w2 and w3 start with v); when b is empty w2 is gone, and a
  meets c.  Every generator of t and v occurs twice more outside the
  blocks, so its count drops from four to two and it becomes a square or
  dismissible.  The segments a and c draw from a few pool generators that
  occur many times, in runs of up to three letters.

The alphabet lists the y first, so each block's square goes before any
other, and ends with names that no letter uses, some of them with "^" in
them.

:data:`SINGLE_AFTER_SQUARE` holds short words in which a generator occurs
three times, and a square step cancels one pair of its letters at a
splice join: the single rule fires only after the square rule.
"""

from __future__ import annotations

import random

# names no letter uses; "x^-1" and "y0^2" read like rendered powers
UNUSED_NAMES = ("x^-1", "y0^2", "unused")

Letters = list[tuple[str, int]]

# (text, the alphabet it infers); the square y goes first in each
SINGLE_AFTER_SQUARE = (
    # w1 and w2 end in a
    ("a*y*a*y*a^-1*b^3", ("a", "y", "b")),
    # w2 and w3 start with a, and b is left a square
    ("y*a*b^2*y*a*c^3*a", ("y", "a", "b", "c")),
    # w2 is empty, and w1 and w3 meet at x*x^-1
    ("x*b*x*y^2*x^-1*b^2", ("x", "b", "y")),
    # w2 is empty, and c cancels out too: it is dropped before x is single
    ("x*b*x*c*y^2*c^-1*x^-1*b^2", ("x", "b", "c", "y")),
)


def text(letters: Letters) -> str:
    return "*".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


def _signed(rng: random.Random, names) -> Letters:
    return [(name, rng.choice((1, -1))) for name in names]


def twice_word(
    rng: random.Random, n: int, orientable: bool = False
) -> tuple[str, tuple[str, ...]]:
    """A word of 2n letters in which each of x1..xn occurs twice: once with
    each sign if ``orientable``, so that every letter is dismissible."""
    names = tuple(f"x{i + 1}" for i in range(n))
    if orientable:
        letters = [(name, sign) for name in names for sign in (1, -1)]
    else:
        letters = _signed(rng, names * 2)
    rng.shuffle(letters)
    return text(letters), names + UNUSED_NAMES


def cascade_word(rng: random.Random, blocks: int) -> tuple[str, tuple[str, ...]]:
    """A word of ``blocks`` cascade blocks, with the pairs that lift their
    t and v generators to four occurrences between the blocks."""
    pool = [f"p{i}" for i in range(3)]
    squares = [f"y{k}" for k in range(blocks)]
    others: list[str] = []
    body: list[Letters] = []
    outside: Letters = []

    def fresh(prefix: str, k: int, count: int) -> list[str]:
        names = [f"{prefix}{k}_{j}" for j in range(count)]
        others.extend(names)
        return names

    def pool_segment() -> Letters:
        segment: Letters = []
        for _ in range(rng.randint(0, 3)):
            segment += [(rng.choice(pool), rng.choice((1, -1)))] * rng.randint(1, 3)
        return segment

    for k, y in enumerate(squares):
        t = _signed(rng, fresh("t", k, rng.randint(1, 3)))
        v = _signed(rng, fresh("v", k, rng.randint(1, 3)))
        b = _signed(rng, fresh("b", k, rng.choice((0, 0, 1, 2))))
        sign = rng.choice((1, -1))
        body.append(
            pool_segment() + t + [(y, sign)] + v + b + t + [(y, sign)] + v + pool_segment()
        )
        outside += _signed(rng, [name for name, _ in t + v] * 2) + _signed(
            rng, [name for name, _ in b]
        )
    rng.shuffle(outside)
    cuts = sorted(rng.randint(0, len(outside)) for _ in range(blocks))
    letters: Letters = []
    for block, lo, hi in zip(body, [0, *cuts], cuts):
        letters += outside[lo:hi] + block
    letters += outside[cuts[-1] :] if cuts else outside
    return text(letters), tuple(squares + others + pool) + UNUSED_NAMES


def square_words(seed: int = 0) -> list[tuple[str, tuple[str, ...]]]:
    """(text, alphabet) of 100 to 400 letters: three two-occurrence words
    and five cascade words."""
    rng = random.Random(seed)
    words = [twice_word(rng, n) for n in (50, 100, 200)]
    words += [cascade_word(rng, blocks) for blocks in (5, 7, 9, 12, 16)]
    return words
