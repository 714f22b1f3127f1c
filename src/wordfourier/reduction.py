"""Letter-elimination rules and the pipeline normalizing a word.

Every reduced form stands for a symbolic claim about the coefficient of an
irreducible character chi in the distribution the original word induces::

    coeff = |G|^a / chi(1)^b * FS^s * sum over assignments of
            prod_i chibar(W_i(assignment))

where FS is the Frobenius-Schur indicator of chi and W_1..W_r are the
residual words over the residual alphabet.  The untouched word w starts at
a = -1, b = s = 0 with residual (w,); each rule is one trace step whose
delta is added to the exponents, so a form's (a, b, s), which it stores,
is (-1, 0, 0) plus the sum of its trace deltas:

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

Which rule applies to a generator is decided by
:func:`analysis.tally_kind`, from its occurrence count and sign sum.
:func:`normalize` is the only code that applies the unused, single and
square rules: it classifies each generator once, and then keeps the
occurrence counts and one bitset per kind.  :func:`split_dismissible`
reads the occurrence scan of :func:`analysis.occurrences`.  A square step
splices through the inverse word: with w^-1 kept beside the letters,
w1*w2^-1*w3 and its inverse are each one slice assignment, and so are the
per-letter tokens (x, x^-1) the trace is rendered from.  The kinds change
only for the generators with one letter between the two y, and for those
of the pairs that cancel, so each step does work linear in the word.  A
square step keeps its letters and tokens, and a trace step's detail is
rendered when it is first read, a square step's with one join: ``reduce``
prints every intermediate word, so its output grows with the square of
the word length, while ``expand`` and ``genus`` never render the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .analysis import (
    ABSENT,
    DISMISSIBLE,
    GENERAL,
    SINGLE,
    SQUARE,
    kind,
    occurrences,
    tally_kind,
)
from .errors import ReductionError
from .words import Alphabet, Word, _render, _spell, _word, free_reduce

# exponent delta of one square step: one factor |G|/chi(1)*FS
_SQUARE_DELTA = (1, 1, 1)


@dataclass(frozen=True)
class TraceStep:
    """One rule applied by the pipeline."""

    rule: str                     # "free-reduce" | "absent" | "single" | "square" | "split"
    generator: str | None         # generator(s) the rule consumed
    delta: tuple[int, int, int]   # contribution to (a, b, s)
    template: str                 # detail, with "{}" for each of the values
    values: tuple = ()            # resulting word(s), alphabet or number

    @cached_property
    def detail(self) -> str:
        """The resulting word(s), human-readable; rendered when first read,
        so callers that never print the trace never render it."""
        return self.template.format(*self.values)

    def __str__(self) -> str:
        da, db, ds = self.delta
        gen = f" {self.generator}" if self.generator else ""
        return f"{self.rule}{gen}: delta(a,b,s)=({da},{db},{ds}) -> {self.detail}"


class _Spelled(NamedTuple):
    """A word as its letters and their tokens (see :func:`words._render`);
    the detail of a square step."""

    letters: tuple
    names: tuple[str, ...]
    tokens: tuple[str, ...]

    def __str__(self) -> str:
        return _render(self.tokens, self.letters, self.names)


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

    The exponents (a, b, s) are worked out from the trace when the form is
    built: (-1, 0, 0) plus the sum of the trace deltas.
    """

    trivial_only: bool
    residual_alphabet: Alphabet
    residual_words: tuple[Word, ...]
    trace: tuple[TraceStep, ...]
    word: Word                                  # original input
    g_exponent: int = field(init=False)         # a
    deg_exponent: int = field(init=False)       # b
    fs_exponent: int = field(init=False)        # s
    split: SplitDecomposition | None = field(default=None, compare=False)

    def __post_init__(self):
        deltas = [step.delta for step in self.trace]
        a, b, s = map(sum, zip((-1, 0, 0), *deltas))
        object.__setattr__(self, "g_exponent", a)
        object.__setattr__(self, "deg_exponent", b)
        object.__setattr__(self, "fs_exponent", s)

    @property
    def residual_rank(self) -> int:
        return self.residual_alphabet.rank

    def summation_count(self, order: int) -> int:
        """Size |G|^rank of the claim's residual sum (0 when it is closed-form).

        This is the sum the claim stands for; the walk that evaluates it
        runs over orbits of simultaneous conjugation and is smaller
        (``_kernels.walked_assignments``: R*|G|^(rank-d) for R orbits of
        the first d = 2 or 3 generators, one factor |G| fewer when a
        generator is summed out through its fiber table).
        """
        if self.trivial_only or self.residual_rank == 0:
            return 0
        return order**self.residual_rank


def _power(base: str, e: int) -> str:
    return base if e == 1 else f"{base}^{e}"


def prefactor_str(form: ReducedForm) -> str:
    a, b, s = form.g_exponent, form.deg_exponent, form.fs_exponent
    if form.trivial_only:
        return "delta[chi=1]" if a == 0 else f"{_power('|G|', a)} * delta[chi=1]"
    num = [] if a == 0 else [_power("|G|", a)]
    if s:
        num.append(_power("FS", s))
    head = "*".join(num) if num else "1"
    return head if b == 0 else f"{head}/{_power('chi(1)', b)}"


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
        num.append(_power("|G|", a))
    elif a < 0:
        den.append(_power("|G|", -a))
    if b > 0:
        den.append(_power("chi(1)", b))
    elif b < 0:
        num.append(_power("chi(1)", -b))
    if s:
        num.append(_power("FS", s))
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
    return _word(alphabet, tuple((remap[g], s) for g, s in word.letters))


def split_dismissible(word: Word) -> SplitDecomposition:
    """Eliminate every dismissible letter (a generator occurring exactly
    once with each sign) simultaneously via the slot pairing.

    Occurrence counts are taken on the word as given; the word need not be
    freely reduced.
    """
    occ = occurrences(word)
    names = word.alphabet.names
    chosen = [g for g, o in enumerate(occ) if kind(o) == DISMISSIBLE]
    if not chosen:
        raise ReductionError(f"no dismissible letter in {word}")

    residual_alphabet, remap = _restrict(word.alphabet, (names[g] for g in chosen))

    # letters over the residual alphabet; the slots' own are never read
    letters = tuple([(remap.get(g), s) for g, s in word.letters])
    slot_positions = sorted(p for g in chosen for p, _ in occ[g])
    twon = len(slot_positions)
    slots = [(names[word.letters[p][0]], word.letters[p][1]) for p in slot_positions]
    # 2n+1 segments of the unshifted word; the trailing one wraps into
    # segment 0 once the canonical shift puts a slot last
    bounds = [-1, *slot_positions, len(letters)]
    raw_segments = [letters[lo + 1 : hi] for lo, hi in zip(bounds, bounds[1:])]
    trailing = raw_segments.pop()

    # tau pairs the two slots of each chosen generator
    slot_of = {p: k for k, p in enumerate(slot_positions)}
    tau = [-1] * twon
    for g in chosen:
        (p, _), (q, _) = occ[g]
        tau[slot_of[p]], tau[slot_of[q]] = slot_of[q], slot_of[p]
    sigma = tuple((tau[k] + 1) % twon for k in range(twon))

    seen: set[int] = set()
    cycles: list[tuple[int, ...]] = []
    for start in range(twon):
        if start not in seen:
            cycle = [start]
            while sigma[cycle[-1]] != start:
                cycle.append(sigma[cycle[-1]])
            seen.update(cycle)
            cycles.append(tuple(cycle))

    split_words = []
    for cycle in cycles:
        factors = [letter for c in cycle for letter in raw_segments[c]]
        if cycle[0] == 0:
            # the cycle through segment 0 reads to the end of the word
            factors += trailing
        split_words.append(free_reduce(_word(residual_alphabet, tuple(factors))))

    shift = (slot_positions[-1] + 1) % len(letters)
    raw_segments[0] = trailing + raw_segments[0]
    return SplitDecomposition(
        word=word,
        n=twon // 2,
        shift=shift,
        segments=tuple(_word(residual_alphabet, seg) for seg in raw_segments),
        slots=tuple(slots),
        tau=tuple(tau),
        sigma=sigma,
        cycles=tuple(cycles),
        split_words=tuple(split_words),
        residual_alphabet=residual_alphabet,
    )


def _lowest(bits: int) -> int:
    """The smallest generator in a bitset (bit g set for generator g)."""
    return (bits & -bits).bit_length() - 1


def _inverse(letters) -> list:
    return [(g, -s) for g, s in reversed(letters)]


def _square_cut(letters, back, p1: int, p2: int) -> tuple[int, int, int, int]:
    """Where the square rule cuts w1*y*w2*y*w3, y at positions p1 < p2 and
    ``back`` the inverse word, so that w1*w2^-1*w3 has its inverse pairs
    cancelled at the two joins (it is freely reduced when ``letters`` is).

    Returns (i, lo, hi, q): the kept letters are w1 = letters[:i], w2 =
    letters[lo:hi] and w3 = letters[q:], and letters[i:p1] and
    letters[p1 + 1 : lo] hold one letter of each cancelled pair.
    """
    n = len(letters)
    i, hi = p1, p2
    # w1 against w2^-1: a pair cancels where w1 and w2 end in the same letter
    while i and hi > p1 + 1 and letters[i - 1] == letters[hi - 1]:
        i -= 1
        hi -= 1
    # w2^-1 against w3: a pair cancels where w2 and w3 start with the same letter
    lo, q = p1 + 1, p2 + 1
    while lo < hi and q < n and letters[lo] == letters[q]:
        lo += 1
        q += 1
    if lo == hi:  # w2 is gone: w1 against w3
        while i and q < n and back[n - i] == letters[q]:
            i -= 1
            q += 1
    return i, lo, hi, q


def _splice(word: list, back: list, cut: tuple[int, int, int, int]) -> None:
    """Apply the cut of :func:`_square_cut` in place to a per-letter list
    of w and the same list of w^-1, ``back``: they become w1*w2^-1*w3 and
    its inverse w3^-1*w2*w1^-1, one slice assignment each."""
    i, lo, hi, q = cut
    n = len(word)
    middle = word[lo:hi]
    word[i:q] = back[n - hi : n - lo]
    back[n - q : n - i] = middle


def _split_step(split: SplitDecomposition) -> TraceStep:
    """The trace step of eliminating the split's dismissible letters."""
    words = ", ".join(f"W{i}={{}}" for i in range(1, split.r + 1))
    split_names = {name for name, _ in split.slots}
    return TraceStep(
        "split",
        ",".join(n for n in split.word.alphabet.names if n in split_names),
        (split.n, split.n, 0),
        "r={}: " + words,
        (split.r, *split.split_words),
    )


def normalize(word: Word) -> ReducedForm:
    """Run the full pipeline: reduce, drop unused letters, stop at a single
    letter, eliminate squares exhaustively, then split all dismissible
    letters at once.

    The loop keeps the letters in the input's generator indexing, each
    generator's occurrence count, and one bitset per kind, classified once
    from the counts and sign sums.  The first square step builds the
    inverse word w^-1 beside the letters, and the per-letter tokens of
    both.  Each square step then cuts w1*y*w2*y*w3 where the pairs at
    the two joins cancel, and makes w1*w2^-1*w3 and its inverse
    w3^-1*w2*w1^-1 by one slice assignment each, from w and w^-1; the
    tokens are spliced the same way.
    A generator occurring twice switches between square and dismissible
    exactly when one of its letters lies between the two y, so one pass
    over the generators there updates the bitsets, and only the
    generators of cancelled pairs are reclassified from their counts.  So
    each step does work linear in the word, and apart from the cancelled
    pairs, that pass is its only Python loop over letters.  A square
    step's trace entry keeps the letters and tokens its splice built, over
    the input's alphabet, and renders them with one join when first read.
    When the loop ends, a single letter adds one step with the rank that
    is left, and the form has no residual words.  Otherwise the alphabet
    is restricted once, and the dismissible letters of that word are split
    by :func:`split_dismissible`.  The form is built once, at the end.
    """
    alphabet = word.alphabet
    names = alphabet.names
    trace: list[TraceStep] = []
    current = free_reduce(word)
    letters = current.letters
    if len(letters) != len(word.letters):
        trace.append(TraceStep("free-reduce", None, (0, 0, 0), "{}", (current,)))

    count = [0] * alphabet.rank
    sign_sum = [0] * alphabet.rank
    for g, s in letters:
        count[g] += 1
        sign_sum[g] += s
    # one bitset per kind: bit g is set when generator g is of that kind
    kinds = dict.fromkeys((ABSENT, SINGLE, SQUARE, DISMISSIBLE, GENERAL), 0)
    for g, (c, s) in enumerate(zip(count, sign_sum)):
        kinds[tally_kind(c, s)] |= 1 << g
    absent, single, square, dismissible = (
        kinds[k] for k in (ABSENT, SINGLE, SQUARE, DISMISSIBLE)
    )
    removed: set[int] = set()
    back = None  # the inverse word, built with the tokens on the first square step

    while True:
        if absent:
            dropped = [g for g in range(absent.bit_length()) if absent >> g & 1]
            absent = 0
            removed.update(dropped)
            kept = Alphabet(tuple(n for g, n in enumerate(names) if g not in removed))
            trace.append(
                TraceStep(
                    "absent",
                    ",".join(names[g] for g in dropped),
                    (len(dropped), 0, 0),
                    "alphabet {}",
                    (kept,),
                )
            )
            continue
        if single or not square:
            break
        if back is None:
            back = _inverse(letters)
            inverse: dict[int, str] = {}  # shared, so w and w^-1 share tokens
            tokens = _spell(letters, names, inverse)
            tokens_back = _spell(back, names, inverse)
            gens = [h for h, _ in letters]  # each letter's generator
            letters = list(letters)
            bit = [1 << h for h in range(alphabet.rank)]
        g = _lowest(square)
        square ^= bit[g]
        removed.add(g)
        p1 = gens.index(g)
        p2 = gens.index(g, p1 + 1)
        # the splice inverts the letters between the two y, so a generator
        # occurring twice switches between square and dismissible when one
        # of its letters lies in there: an odd number of them
        odd = 0
        for h in gens[p1 + 1 : p2]:
            odd ^= bit[h]
        switched = odd & (square | dismissible)
        square ^= switched
        dismissible ^= switched
        cut = _square_cut(letters, back, p1, p2)
        i, lo, hi, q = cut
        cancelled = gens[i:p1] + gens[p1 + 1 : lo]  # one per cancelled pair
        _splice(letters, back, cut)
        _splice(tokens, tokens_back, cut)
        gens[i:q] = gens[lo:hi][::-1]
        # counts change only where pairs cancel
        for h in cancelled:
            count[h] -= 2
        for h in set(cancelled):
            square &= ~bit[h]
            dismissible &= ~bit[h]
            if count[h] == 0:
                absent |= bit[h]
            elif count[h] == 1:
                single |= bit[h]
            elif count[h] == 2:
                p = gens.index(h)
                if letters[p] == letters[gens.index(h, p + 1)]:
                    square |= bit[h]
                else:
                    dismissible |= bit[h]
        spelled = _Spelled(tuple(letters), names, tuple(tokens))
        trace.append(TraceStep("square", names[g], _SQUARE_DELTA, "{}", (spelled,)))

    split = None
    if single:
        # the word map is uniform: |G|^(rank-1) on the trivial character
        rank = alphabet.rank - len(removed)
        generator = names[_lowest(single)]
        trace.append(
            TraceStep("single", generator, (rank, 0, 0), "constant |G|^{}", (rank - 1,))
        )
        residual_alphabet, residual_words = Alphabet(()), ()
    else:
        current = _word(alphabet, tuple(letters))
        if removed:
            current = _drop_generators(current, (names[g] for g in removed))
        if dismissible:
            split = split_dismissible(current)
            trace.append(_split_step(split))
            residual_alphabet, residual_words = split.residual_alphabet, split.split_words
        else:
            residual_alphabet, residual_words = current.alphabet, (current,)
    return ReducedForm(
        trivial_only=bool(single),
        residual_alphabet=residual_alphabet,
        residual_words=residual_words,
        trace=tuple(trace),
        word=word,
        split=split,
    )


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
