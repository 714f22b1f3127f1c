"""Enumeration kernels for the oracle and the formula routes.

Assignments of group elements to the d generators are enumerated in
mixed-radix order: generator 0 is the most significant digit, the last
generator ticks fastest.

``element_counts`` (the oracle) has a numba-jitted loop and a numpy
fallback that walk the same order, chosen by the ``WORDFOURIER_BACKEND``
environment variable: "auto" (default; numba when importable), "numba",
or "numpy".

``split_character_sum`` (the formula) is numpy only.  It makes one walk
per reduced form and yields the residual sum of every character row at
once.  Each term is a product of class functions, so it is unchanged when
every generator is conjugated by the same element: generator 0 runs over
the class representatives, weighted by class size, and the walk covers
k * |G|^(rank - 1) assignments instead of |G|^rank.
"""

from __future__ import annotations

import os

import numpy as np

ENV_VAR = "WORDFOURIER_BACKEND"
_CHUNK = 1 << 16

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - mirror environments without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def deco(fn):
            return fn

        return deco


def active_backend() -> str:
    """Resolve the backend the kernels will use for this call."""
    requested = os.environ.get(ENV_VAR, "auto").strip().lower()
    if requested in ("numpy", "python", "fallback"):
        return "numpy"
    if requested == "numba":
        if not HAS_NUMBA:
            raise RuntimeError(f"{ENV_VAR}=numba but numba is not importable")
        return "numba"
    if requested in ("", "auto"):
        return "numba" if HAS_NUMBA else "numpy"
    raise ValueError(f"unrecognized {ENV_VAR} value {requested!r}")


# ---------------------------------------------------------------------------
# numba kernels

@njit(cache=True)
def _counts_njit(mul, inv, identity, gens, signs, rank, order, total):
    counts = np.zeros(order, dtype=np.int64)
    digits = np.zeros(rank, dtype=np.int64)
    nletters = gens.shape[0]
    for _ in range(total):
        acc = identity
        for j in range(nletters):
            x = digits[gens[j]]
            if signs[j] < 0:
                x = inv[x]
            acc = mul[acc, x]
        counts[acc] += 1
        k = rank - 1
        while k >= 0:
            digits[k] += 1
            if digits[k] == order:
                digits[k] = 0
                k -= 1
            else:
                break
    return counts


# ---------------------------------------------------------------------------
# numpy fallback: same mixed-radix walk, vectorized over chunks

def _chunk_digits(start, stop, strides, radix):
    idx = np.arange(start, stop, dtype=np.int64)
    return (idx[:, None] // strides[None, :]) % radix


def _counts_numpy(mul, inv, identity, gens, signs, rank, order, total):
    counts = np.zeros(order, dtype=np.int64)
    strides = order ** np.arange(rank - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        digits = _chunk_digits(start, stop, strides, order)
        acc = np.full(stop - start, identity, dtype=np.int64)
        for j in range(gens.shape[0]):
            x = digits[:, gens[j]]
            if signs[j] < 0:
                x = inv[x]
            acc = mul[acc, x]
        counts += np.bincount(acc, minlength=order)
    return counts


# ---------------------------------------------------------------------------
# entry points

def _as_letter_arrays(letters):
    gens = np.array([g for g, _ in letters], dtype=np.int64)
    signs = np.array([s for _, s in letters], dtype=np.int64)
    return gens, signs


def element_counts(group, letters, rank, backend: str | None = None) -> np.ndarray:
    """Count, per group element, the assignments under which the word hits it."""
    backend = backend or active_backend()
    gens, signs = _as_letter_arrays(letters)
    total = group.order**rank
    impl = _counts_njit if backend == "numba" else _counts_numpy
    return impl(
        group.mul, group.inv, group.identity, gens, signs, rank, group.order, total
    )


def split_character_sum(group, word_letter_lists, rank, classes, chibar) -> np.ndarray:
    """Per row of ``chibar``, the sum over all |G|^rank assignments of the
    product of that row's values at the classes of the words' values.

    ``chibar`` is a (characters x classes) array of class-function values.
    With rank 0 the only assignment sends every word to the identity.
    """
    chibar = np.asarray(chibar, dtype=np.complex128)
    if rank == 0:
        return chibar[:, classes.identity_class] ** len(word_letter_lists)
    order = group.order
    mul, inv = group.mul, group.inv
    class_of = np.asarray(classes.class_of)
    reps = np.asarray(classes.representatives, dtype=np.int64)
    sizes = np.asarray(classes.sizes, dtype=np.float64)
    words = [_as_letter_arrays(letters) for letters in word_letter_lists]
    radix = np.array([len(reps)] + [order] * (rank - 1), dtype=np.int64)
    strides = order ** np.arange(rank - 1, -1, -1, dtype=np.int64)
    total = len(reps) * order ** (rank - 1)
    # one chunk holds a (characters x rows) product: keep it near _CHUNK cells
    rows = max(1, _CHUNK // max(1, chibar.shape[0]))
    sums = np.zeros(chibar.shape[0], dtype=np.complex128)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        digits = _chunk_digits(start, stop, strides, radix)
        weights = sizes[digits[:, 0]]
        digits[:, 0] = reps[digits[:, 0]]
        prod = np.ones((chibar.shape[0], stop - start), dtype=np.complex128)
        for gens, signs in words:
            acc = np.full(stop - start, group.identity, dtype=np.int64)
            for j in range(gens.shape[0]):
                x = digits[:, gens[j]]
                if signs[j] < 0:
                    x = inv[x]
                acc = mul[acc, x]
            prod *= chibar[:, class_of[acc]]
        sums += prod @ weights
    return sums


def warm_up(backend: str | None = None) -> None:
    """Run both kernels once on a tiny input so timings exclude JIT compilation
    and first-call setup."""
    from .groups import conjugacy_classes, group_from_generators

    tiny = group_from_generators([(1, 0)], name="warmup")
    element_counts(tiny, [(0, 1), (0, -1)], 1, backend=backend)
    classes = conjugacy_classes(tiny)
    split_character_sum(tiny, [[(0, 1)], [(0, -1)]], 1, classes, np.ones((1, 2)))
