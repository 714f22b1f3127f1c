"""Letter-elimination rules and the pipeline normalizing a word.

Every reduced form stands for a symbolic claim about the coefficient of an
irreducible character chi in the distribution the original word induces::

    coeff = |G|^a / chi(1)^b * FS^s * sum over assignments of
            prod_i chibar(W_i(assignment))

where FS is the Frobenius-Schur indicator of chi and W_1..W_r are the
residual words over the residual alphabet.  The untouched word w starts at
a = -1, b = s = 0 with residual (w,); each rule is one trace step whose
delta is added to the exponents, so a form's (a, b, s) is (-1, 0, 0) plus
the sum of its trace deltas:

* dropping an unused generator adds 1 to a;
* a generator occurring exactly once in a word of current rank d makes the
  word map uniform and collapses the whole claim to
  ``|G|^(a+d) * delta[chi trivial]``, adding d to a;
* a square letter (two occurrences, equal sign) is removed at the cost of
  one factor |G|/chi(1)*FS, replacing w1*y*w2*y*w3 by w1*w2^-1*w3;
* the dismissible letters (one occurrence of each sign) are eliminated in
  one simultaneous split that rewrites the claim over the residual words
  W_1..W_r produced by the pairing permutation below, adding n to both a
  and b.

The split pairs the 2n dismissible slots by the involution tau (slot i is
paired with the slot carrying its inverse), sets sigma(k) = tau(k) + 1
(mod 2n), and concatenates the inter-slot segments along each cycle of
sigma.  Reading order: the cycle through segment 0 comes first and ends
with the trailing segment; the remaining cycles start at their smallest
unread segment index.

Which rule applies to a generator is read from :mod:`analysis`, which
owns the occurrence scan (:func:`analysis.occurrences`) and the case split
(:func:`analysis.kind`); this module defines no scan of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .analysis import ABSENT, DISMISSIBLE, SINGLE, SQUARE, kind, occurrences
from .errors import ReductionError
from .words import (
    Alphabet,
    Word,
    concat_all,
    free_reduce,
    word_to_str,
)


@dataclass(frozen=True)
class TraceStep:
    rule: str                     # "free-reduce" | "absent" | "single" | "square" | "split"
    generator: str | None         # generator(s) the rule consumed
    delta: tuple[int, int, int]   # contribution to (a, b, s)
    detail: str                   # resulting word(s), human-readable

    def __str__(self) -> str:
        da, db, ds = self.delta
        gen = f" {self.generator}" if self.generator else ""
        return f"{self.rule}{gen}: delta(a,b,s)=({da},{db},{ds}) -> {self.detail}"


@dataclass(frozen=True)
class SplitDecomposition:
    """Outcome of eliminating dismissible letters from a word."""

    word: Word                           # input word
    n: int                               # dismissible letters eliminated
    shift: int                           # canonical cyclic shift applied
    segments: tuple[Word, ...]           # 2n segments of the shifted word
    slots: tuple[tuple[str, int], ...]   # 2n signed dismissible slots
    tau: tuple[int, ...]                 # fixed-point-free involution on slots
    sigma: tuple[int, ...]               # sigma(k) = tau(k) + 1 mod 2n
    cycles: tuple[tuple[int, ...], ...]  # disjoint cycles of sigma
    split_words: tuple[Word, ...]        # W_1..W_r, freely reduced
    residual_alphabet: Alphabet

    @property
    def r(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class ReducedForm:
    """Symbolic prefactor plus residual word tuple (see module docstring).

    The exponents (a, b, s) are (-1, 0, 0) plus the sum of the trace deltas.
    """

    trivial_only: bool
    residual_alphabet: Alphabet
    residual_words: tuple[Word, ...]
    trace: tuple[TraceStep, ...]
    word: Word                            # original input
    split: SplitDecomposition | None = field(default=None, compare=False)

    def _exponent(self, i: int) -> int:
        return sum(step.delta[i] for step in self.trace)

    @property
    def g_exponent(self) -> int:
        return self._exponent(0) - 1

    @property
    def deg_exponent(self) -> int:
        return self._exponent(1)

    @property
    def fs_exponent(self) -> int:
        return self._exponent(2)

    @property
    def residual_rank(self) -> int:
        return self.residual_alphabet.rank

    def summation_count(self, order: int) -> int:
        """Size |G|^rank of the claim's residual sum (0 when it is closed-form).

        This is the sum the claim stands for; the walk that evaluates it
        runs over orbits of simultaneous conjugation and is smaller
        (``_kernels.walked_assignments``: P*|G|^(rank-2) for P orbits on
        pairs, one factor |G| fewer when a generator is summed out through
        its fiber table).
        """
        if self.trivial_only or self.residual_rank == 0:
            return 0
        return order**self.residual_rank


def prefactor_str(form: ReducedForm) -> str:
    a, b, s = form.g_exponent, form.deg_exponent, form.fs_exponent
    if form.trivial_only:
        power = "" if a == 1 else f"^{a}"
        return "delta[chi=1]" if a == 0 else f"|G|{power} * delta[chi=1]"
    num = [] if a == 0 else [f"|G|^{a}" if a != 1 else "|G|"]
    if s:
        num.append(f"FS^{s}" if s != 1 else "FS")
    head = "*".join(num) if num else "1"
    if b == 0:
        return head
    return f"{head}/chi(1)^{b}" if b != 1 else f"{head}/chi(1)"


def closed_form_str(form: ReducedForm) -> str | None:
    """Folded value when nothing is left to enumerate.

    A rank-0 residual sums over the single empty assignment, where each
    empty residual word contributes chi(1); folding those into the
    prefactor gives a closed form like "|G|^3/chi(1)^3" or "FS".
    """
    if (
        form.trivial_only
        or form.residual_rank != 0
        or any(w.letters for w in form.residual_words)
    ):
        return None
    a = form.g_exponent
    b = form.deg_exponent - len(form.residual_words)
    s = form.fs_exponent
    num, den = [], []
    if a > 0:
        num.append("|G|" if a == 1 else f"|G|^{a}")
    elif a < 0:
        den.append("|G|" if a == -1 else f"|G|^{-a}")
    if b > 0:
        den.append("chi(1)" if b == 1 else f"chi(1)^{b}")
    elif b < 0:
        num.append("chi(1)" if b == -1 else f"chi(1)^{-b}")
    if s:
        num.append("FS" if s == 1 else f"FS^{s}")
    head = "*".join(num) if num else "1"
    if not den:
        return head
    if len(den) == 1:
        return f"{head}/{den[0]}"
    return f"{head}/({'*'.join(den)})"


def format_trace(form: ReducedForm) -> str:
    lines = [str(step) for step in form.trace]
    return "\n".join(lines) if lines else "(no reduction steps)"


def _restrict(alphabet: Alphabet, drop) -> tuple[Alphabet, dict[int, int]]:
    """The alphabet without the generators named in ``drop``, and the map
    from each kept generator's index to its index in that alphabet."""
    restricted = alphabet.without(drop)
    position = {name: i for i, name in enumerate(restricted.names)}
    return restricted, {
        g: position[name] for g, name in enumerate(alphabet.names) if name in position
    }


def _drop_generators(word: Word, names) -> Word:
    alphabet, remap = _restrict(word.alphabet, names)
    return Word(alphabet, tuple((remap[g], s) for g, s in word.letters))


def split_dismissible(word: Word, dismissibles=None) -> SplitDecomposition:
    """Eliminate dismissible letters simultaneously via the slot pairing.

    ``dismissibles`` names the generators to eliminate (default: every
    generator occurring exactly once with each sign); a name given twice
    counts once.  Occurrence counts are taken on the word as given; the
    word need not be freely reduced.
    """
    occ = occurrences(word)
    names = word.alphabet.names

    if dismissibles is None:
        chosen = [g for g, o in enumerate(occ) if kind(o) == DISMISSIBLE]
    else:
        chosen = []
        for name in dict.fromkeys(dismissibles):  # each name once, in order
            g = word.alphabet.index(name)
            if kind(occ[g]) != DISMISSIBLE:
                raise ReductionError(f"generator {name!r} is not dismissible in {word}")
            chosen.append(g)
    if not chosen:
        raise ReductionError(f"no dismissible letter in {word}")

    residual_alphabet, remap = _restrict(word.alphabet, (names[g] for g in chosen))

    letters = word.letters
    slot_positions = sorted(p for g in chosen for p, _ in occ[g])
    twon = len(slot_positions)
    n = twon // 2

    def segment(lo: int, hi: int) -> Word:
        return Word(
            residual_alphabet, tuple((remap[g], s) for g, s in letters[lo:hi])
        )

    # 2n+1 segments of the unshifted word; the trailing one wraps into
    # segment 0 once the canonical shift puts a slot last
    raw_segments: list[Word] = []
    slots: list[tuple[str, int]] = []
    prev = 0
    for p in slot_positions:
        raw_segments.append(segment(prev, p))
        g, s = letters[p]
        slots.append((names[g], s))
        prev = p + 1
    trailing = segment(prev, len(letters))

    # tau pairs the two slots of each chosen generator
    slot_of = {p: k for k, p in enumerate(slot_positions)}
    tau = [-1] * twon
    for g in chosen:
        (p, _), (q, _) = occ[g]
        tau[slot_of[p]], tau[slot_of[q]] = slot_of[q], slot_of[p]
    sigma = tuple((tau[k] + 1) % twon for k in range(twon))

    seen = [False] * twon
    cycles: list[tuple[int, ...]] = []
    for start in range(twon):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = sigma[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = sigma[nxt]
        cycles.append(tuple(cycle))

    split_words = []
    for cycle in cycles:
        factors = [raw_segments[c] for c in cycle]
        if cycle[0] == 0:
            # the cycle through segment 0 reads to the end of the word
            factors.append(trailing)
        split_words.append(free_reduce(concat_all(residual_alphabet, factors)))

    shift = (slot_positions[-1] + 1) % len(letters)
    canonical_segments = (
        concat_all(residual_alphabet, (trailing, raw_segments[0])),
        *raw_segments[1:],
    )
    return SplitDecomposition(
        word=word,
        n=n,
        shift=shift,
        segments=canonical_segments,
        slots=tuple(slots),
        tau=tuple(tau),
        sigma=sigma,
        cycles=tuple(cycles),
        split_words=tuple(split_words),
        residual_alphabet=residual_alphabet,
    )


def square_reduce(word: Word, generator: str) -> tuple[Word, tuple[int, int, int]]:
    """Remove one square letter: w1*y*w2*y*w3 becomes w1*w2^-1*w3.

    A generator occurring twice negatively gives the same residual, since
    sending it to its inverse preserves the distribution.  Returns the
    freely reduced residual word over the alphabet without the generator,
    and the exponent delta (1, 1, 1): one factor |G|/chi(1)*FS.
    """
    g = word.alphabet.index(generator)
    occ = occurrences(word)[g]
    if kind(occ) != SQUARE:
        raise ReductionError(f"generator {generator!r} is not a square in {word}")
    (p1, _), (p2, _) = occ
    alphabet, remap = _restrict(word.alphabet, (generator,))
    letters = word.letters
    spliced = (
        letters[:p1]
        + tuple((h, -s) for h, s in reversed(letters[p1 + 1 : p2]))
        + letters[p2 + 1 :]
    )
    residual = Word(alphabet, tuple((remap[h], s) for h, s in spliced))
    return free_reduce(residual), (1, 1, 1)


def eliminate_single(word: Word, generator: str) -> ReducedForm:
    """A generator occurring exactly once makes the word map uniform.

    The distribution is the constant |G|^(d-1) for ambient rank d, i.e.
    coefficient |G|^(d-1) on the trivial character and 0 elsewhere.
    """
    g = word.alphabet.index(generator)
    if kind(occurrences(word)[g]) != SINGLE:
        raise ReductionError(f"generator {generator!r} is not single in {word}")
    rank = word.alphabet.rank
    step = TraceStep("single", generator, (rank, 0, 0), f"constant |G|^{rank - 1}")
    return ReducedForm(
        trivial_only=True,
        residual_alphabet=Alphabet(()),
        residual_words=(),
        trace=(step,),
        word=word,
    )


def form_from_split(split: SplitDecomposition) -> ReducedForm:
    """Claim obtained by eliminating the split's dismissible letters alone."""
    detail = ", ".join(
        f"W{i + 1}={word_to_str(w)}" for i, w in enumerate(split.split_words)
    )
    split_names = {name for name, _ in split.slots}
    step = TraceStep(
        "split",
        ",".join(n for n in split.word.alphabet.names if n in split_names),
        (split.n, split.n, 0),
        f"r={split.r}: {detail}",
    )
    return ReducedForm(
        trivial_only=False,
        residual_alphabet=split.residual_alphabet,
        residual_words=split.split_words,
        trace=(step,),
        word=split.word,
        split=split,
    )


def normalize(word: Word) -> ReducedForm:
    """Run the full pipeline: reduce, drop unused letters, stop at a single
    letter, eliminate squares exhaustively, then split all dismissible
    letters at once.

    The single and split cases are :func:`eliminate_single` and
    :func:`form_from_split` on the word the earlier steps left, with those
    steps prepended to the trace.
    """
    trace: list[TraceStep] = []
    current = free_reduce(word)
    if current.letters != word.letters:
        trace.append(TraceStep("free-reduce", None, (0, 0, 0), word_to_str(current)))

    while True:
        # generator names by kind, in alphabet order
        by_kind: dict[str, list[str]] = {}
        for name, occ in zip(current.alphabet.names, occurrences(current)):
            by_kind.setdefault(kind(occ), []).append(name)
        if ABSENT in by_kind:
            dropped = by_kind[ABSENT]
            current = _drop_generators(current, dropped)
            trace.append(
                TraceStep(
                    "absent",
                    ",".join(dropped),
                    (len(dropped), 0, 0),
                    f"alphabet {current.alphabet}",
                )
            )
        elif SINGLE in by_kind:
            form = eliminate_single(current, by_kind[SINGLE][0])
            break
        elif SQUARE in by_kind:
            generator = by_kind[SQUARE][0]
            current, delta = square_reduce(current, generator)
            trace.append(TraceStep("square", generator, delta, word_to_str(current)))
        elif DISMISSIBLE in by_kind:
            form = form_from_split(split_dismissible(current, by_kind[DISMISSIBLE]))
            break
        else:
            form = ReducedForm(
                trivial_only=False,
                residual_alphabet=current.alphabet,
                residual_words=(current,),
                trace=(),
                word=current,
            )
            break
    return replace(form, trace=tuple(trace) + form.trace, word=word)


def genus(word: Word) -> int:
    """Genus (n - r + 1) / 2 of a word whose split words are all empty.

    Requires :func:`normalize` to end in a split whose residual words are
    all empty (the admissible case); anything else is an error.
    """
    return _genus_of_form(normalize(word))


def _genus_of_form(form: ReducedForm) -> int:
    """:func:`genus` of the word that ``form`` is the normal form of."""
    word = form.word
    if form.trivial_only:
        raise ReductionError(f"{word} is not admissible: it has a single letter")
    if any(w.letters for w in form.residual_words):
        raise ReductionError(f"{word} is not admissible: nonempty residual words")
    if form.split is None:
        raise ReductionError(f"{word} is not admissible: no dismissible letters")
    n = form.split.n
    r = form.split.r
    if (n - r + 1) % 2:
        raise ReductionError(f"parity violation for {word}: n={n}, r={r}")
    return (n - r + 1) // 2
