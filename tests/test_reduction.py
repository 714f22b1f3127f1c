"""Split decomposition, the pipeline, its step-by-step reference, and genus.

The reference (:func:`rebuild`) applies the unused, single and square
rules on its own, by plain slicing, and ``normalize`` must agree with it
step by step."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordfourier import (
    Alphabet,
    ReducedForm,
    ReductionError,
    Word,
    genus,
    normalize,
    parse_word,
    word_to_str,
)
from wordfourier.analysis import ABSENT, DISMISSIBLE, SINGLE, SQUARE, kind, occurrences
from wordfourier.groups import conjugacy_classes
from wordfourier.reduction import format_trace, prefactor_str, split_dismissible
from wordfourier.words import free_reduce

from corpus import corpus_word, evaluate, form_from_split, split_tambour
from group_builders import build_builtin
from square_words import SINGLE_AFTER_SQUARE, UNUSED_NAMES, square_words, twice_word

INTRO_ALPHABET = Alphabet(("x1", "x2", "x3", "y1", "y2", "y3"))


def intro_word():
    return corpus_word("intro")


def slot_word(pattern, nletters):
    """Word made of slots only: pattern is a list of (letter index, sign)."""
    alphabet = Alphabet(tuple(f"y{i}" for i in range(nletters)))
    return Word(alphabet, tuple(pattern))


def random_slot_pattern(rng, n):
    """Random pairing and signs of 2n slots over n letters."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    pattern = [None] * (2 * n)
    for letter in range(n):
        i, j = slots[2 * letter], slots[2 * letter + 1]
        sign = int(rng.choice((1, -1)))
        pattern[i] = (letter, sign)
        pattern[j] = (letter, -sign)
    return pattern


class TestSplit:
    def test_commutator(self):
        split = split_dismissible(parse_word("[y1,y2]"))
        assert (split.n, split.r) == (2, 1)
        assert split.split_words == (Word(Alphabet(()), ()),)
        assert split.residual_alphabet.rank == 0

    def test_intro_example_words(self):
        split = split_dismissible(intro_word())
        residual = split.residual_alphabet
        assert residual.names == ("x1", "x2", "x3")
        expected1 = parse_word("x1^4*x3", residual)
        expected2 = parse_word("x1*x2*x3*x2*x1", residual)
        assert split.split_words == (expected1, expected2)
        assert (split.n, split.r) == (3, 2)

    def test_intro_example_permutations(self):
        split = split_dismissible(intro_word())
        assert split.tau == (2, 4, 0, 5, 1, 3)
        assert split.sigma == (3, 5, 1, 0, 2, 4)
        assert split.cycles == ((0, 3), (1, 5, 4, 2))

    def test_conjugating_letter(self):
        w = parse_word("a*y*b*y^-1", Alphabet(("a", "b", "y")))
        split = split_dismissible(w)
        assert [word_to_str(s) for s in split.split_words] == ["a", "b"]

    def test_unreduced_slots_are_allowed(self):
        split = split_dismissible(parse_word("y*y^-1", Alphabet(("y",))))
        assert (split.n, split.r) == (1, 2)

    def test_no_dismissible_letter(self):
        with pytest.raises(ReductionError, match="no dismissible"):
            split_dismissible(parse_word("x^2"))

    @pytest.mark.parametrize("seed", range(8))
    def test_structure_invariants_on_random_patterns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        word = slot_word(random_slot_pattern(rng, n), n)
        split = split_dismissible(word)
        twon = 2 * n
        assert sorted(i for c in split.cycles for i in c) == list(range(twon))
        for i in range(twon):
            assert split.tau[i] != i
            assert split.tau[split.tau[i]] == i
            assert split.sigma[i] == (split.tau[i] + 1) % twon
        assert split.r % 2 != n % 2
        assert split.cycles[0][0] == 0
        starts = [c[0] for c in split.cycles]
        assert starts == sorted(starts)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_split_claim_matches_oracle(self, seed):
        # random segment letters with dismissible pairs inserted anywhere;
        # the split-only claim must reproduce the brute-force coefficients
        from corpus import group_and_table, oracle_coefficients
        from wordfourier import coefficient_formula

        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 3))
        seg_names = ("a", "b")
        dis_names = tuple(f"y{i}" for i in range(n))
        alphabet = Alphabet(seg_names + dis_names)
        letters = [
            (int(rng.integers(2)), int(rng.choice((1, -1))))
            for _ in range(int(rng.integers(0, 7)))
        ]
        for i in range(n):
            sign = int(rng.choice((1, -1)))
            for s in (sign, -sign):
                pos = int(rng.integers(0, len(letters) + 1))
                letters.insert(pos, (2 + i, s))
        word = Word(alphabet, tuple(letters))
        split = split_dismissible(word)
        form = form_from_split(split)
        for group_name in ("Z4", "S3"):
            group, table = group_and_table(group_name)
            oracle = oracle_coefficients(word, group_name)
            formula = coefficient_formula(form, group, table)
            assert np.max(np.abs(formula - oracle)) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_cycle_products_agree_with_split_words_up_to_conjugacy(self, seed):
        # the canonical-shift cycle product and the reading-order word may
        # differ by a rotation, so they evaluate to conjugate elements
        rng = np.random.default_rng(300 + seed)
        alphabet = Alphabet(("a", "b", "y", "z"))
        text = "a*y*b*z*a^-1*y^-1*b*z^-1"
        word = parse_word(text, alphabet)
        split = split_dismissible(word)
        group = build_builtin("S4")
        classes = conjugacy_classes(group)
        assignment = {
            name: int(rng.integers(group.order))
            for name in split.residual_alphabet.names
        }
        for cycle, reading in zip(split.cycles, split.split_words):
            product = group.identity
            for c in cycle:
                value = evaluate(split.segments[c], assignment, group)
                product = int(group.mul[product, value])
            direct = evaluate(reading, assignment, group)
            assert classes.class_of[product] == classes.class_of[direct]


class TestNormalize:
    @pytest.mark.parametrize("k", (1, 2))
    def test_commutator_products(self, k):
        text = "".join(f"[a{i},b{i}]" for i in range(k))
        form = normalize(parse_word(text))
        assert not form.trivial_only
        assert (form.g_exponent, form.deg_exponent) == (2 * k - 1, 2 * k)
        assert form.residual_words == (Word(Alphabet(()), ()),)

    def test_empty_word(self):
        form = normalize(parse_word("1"))
        assert (form.g_exponent, form.deg_exponent, form.fs_exponent) == (-1, 0, 0)
        assert form.residual_words == (Word(Alphabet(()), ()),)
        assert form.trace == ()

    def test_single_letter_trivializes(self):
        form = normalize(parse_word("x*y*x", Alphabet(("x", "y"))))
        assert form.trivial_only and form.g_exponent == 1
        assert form.trace[-1].delta == (2, 0, 0)

    def test_unused_generator_adds_exactly_one(self):
        small = normalize(parse_word("[x,y]", Alphabet(("x", "y"))))
        padded = normalize(parse_word("[x,y]", Alphabet(("x", "y", "z"))))
        assert padded.g_exponent == small.g_exponent + 1
        assert padded.deg_exponent == small.deg_exponent
        assert padded.fs_exponent == small.fs_exponent
        assert [w.letters for w in padded.residual_words] == [
            w.letters for w in small.residual_words
        ]

    def test_squares_cascade_until_exhausted(self):
        # both generators of {x,y} disappear through two square steps
        form = normalize(parse_word("{x,y}"))
        rules = [step.rule for step in form.trace]
        assert rules.count("square") == 2
        assert (form.g_exponent, form.deg_exponent, form.fs_exponent) == (1, 2, 2)
        assert form.residual_words == (Word(Alphabet(()), ()),)

    def test_square_step_can_create_absents_and_singles(self):
        # removing the square x from a*x*a*x cancels the two a letters too
        form = normalize(parse_word("a*x*a*x", Alphabet(("a", "x"))))
        assert not form.trivial_only
        assert [w.letters for w in form.residual_words] == [()]
        rules = [step.rule for step in form.trace]
        assert "absent" in rules

    def test_dismissible_first_keeps_squares_in_residual(self):
        word = corpus_word("mixed-square-dismissible")
        form = form_from_split(split_dismissible(word))
        assert form.fs_exponent == 0
        assert "y" in form.residual_alphabet.names
        # taking squares first always enumerates fewer generators
        square_first = normalize(word)
        assert square_first.residual_rank < form.residual_rank

    def test_intro_word_dismissible_first_matches_plain_split(self):
        word = intro_word()
        form = form_from_split(split_dismissible(word))
        assert prefactor_str(form) == "|G|^2/chi(1)^3"
        assert [word_to_str(w) for w in form.residual_words] == [
            "x1^4*x3",
            "x1*x2*x3*x2*x1",
        ]

    def test_trace_is_serializable(self):
        form = normalize(intro_word())
        text = format_trace(form)
        assert "square" in text and "split" in text
        assert "delta(a,b,s)" in text

    @pytest.mark.parametrize(
        "text",
        ("{x,y}", "a*b*c*a*d*b*e*c*d*e*b*f*f", "a*x*b*y*x^-1*a*y*b", "a*y*a*y*a^-1*b^3"),
    )
    def test_forms_and_steps_are_equal_by_value(self, text):
        # two runs of normalize, on one word and on the word parsed again,
        # give equal forms and equal trace steps with equal hashes, whether
        # or not a detail has been rendered
        word = parse_word(text)
        forms = (normalize(word), normalize(word), normalize(parse_word(text)))
        assert any(step.rule == "square" for step in forms[0].trace)
        forms[1].trace[0].detail
        for form in forms[1:]:
            assert form == forms[0] and hash(form) == hash(forms[0])
            for step, first in zip(form.trace, forms[0].trace, strict=True):
                assert step == first and hash(step) == hash(first)

    def test_exponents_are_read_from_the_trace(self):
        # a form works (a, b, s) out from its trace; the constructor takes
        # no exponents, so none can disagree with the trace
        form = normalize(intro_word())
        fields = {
            name: getattr(form, name)
            for name in ("trivial_only", "residual_alphabet", "residual_words", "word")
        }
        rebuilt = ReducedForm(trace=form.trace, split=form.split, **fields)
        assert rebuilt == form
        assert (form.g_exponent, form.deg_exponent, form.fs_exponent) == (3, 4, 3)
        shorter = ReducedForm(trace=form.trace[:-1], **fields)
        assert (shorter.g_exponent, shorter.deg_exponent, shorter.fs_exponent) == (2, 3, 3)
        assert shorter != form
        with pytest.raises(TypeError):
            ReducedForm(trace=form.trace, g_exponent=0, **fields)

    def test_square_details_read_in_any_order(self):
        # each square step keeps its own word; reading backwards, or
        # skipping ahead, gives the details an in-order read gives
        text = "a*b*c*a*d*b*e*c*d*e*b*f*f"
        in_order = [step.detail for step in normalize(parse_word(text)).trace]
        trace = normalize(parse_word(text)).trace
        assert sum(step.rule == "square" for step in trace) >= 4
        backwards = [step.detail for step in reversed(trace)][::-1]
        assert backwards == in_order
        trace = normalize(parse_word(text)).trace
        order = (3, 1, 4, 0, 2)
        assert [trace[i].detail for i in order] == [in_order[i] for i in order]


class TestFormFromSplit:
    def test_exponents_follow_the_split(self):
        split = split_dismissible(intro_word())
        form = form_from_split(split)
        assert (form.g_exponent, form.deg_exponent, form.fs_exponent) == (2, 3, 0)
        assert form.residual_words == split.split_words


class TestTambour:
    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (4, 1), (5, 2)])
    def test_split_counts(self, n, r):
        got_r, form = split_tambour(n)
        assert got_r == r
        assert all(w.letters == () for w in form.residual_words)
        assert (form.g_exponent, form.deg_exponent) == (n - 1, n)

    def test_n_one_collapses_by_free_reduction(self):
        r, form = split_tambour(1)
        assert r == 1
        assert form.split is None
        assert form.residual_words[0].letters == ()
        assert form.g_exponent == 0


class TestGenus:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[y1,y2]", 1),
            ("y1*y2*y3*y1^-1*y2^-1*y3^-1", 1),
            ("y1*y2*y3*y4*y1^-1*y2^-1*y3^-1*y4^-1", 2),
            ("[y1,y2][y3,y4]", 2),
        ],
    )
    def test_values(self, text, expected):
        assert genus(parse_word(text)) == expected

    def test_single_letter_rejected(self):
        with pytest.raises(ReductionError, match="not admissible"):
            genus(parse_word("x"))

    def test_square_only_word_rejected(self):
        with pytest.raises(ReductionError, match="not admissible"):
            genus(parse_word("x^2"))

    def test_nonempty_residual_rejected(self):
        with pytest.raises(ReductionError, match="not admissible"):
            genus(corpus_word("conjugate-loop"))


class TestPrefactorDisplay:
    def test_plain_forms(self):
        assert prefactor_str(normalize(parse_word("[x,y]"))) == "|G|/chi(1)^2"
        assert prefactor_str(normalize(parse_word("1"))) == "|G|^-1"
        assert prefactor_str(normalize(parse_word("x"))) == "delta[chi=1]"
        assert prefactor_str(normalize(parse_word("xy", Alphabet(("x", "y"))))) == (
            "|G| * delta[chi=1]"
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[x,y]", "|G|/chi(1)"),
            ("[x1,x2][x3,x4]", "|G|^3/chi(1)^3"),
            ("1", "chi(1)/|G|"),
            ("x^2", "FS"),
            ("{x,y}", "|G|*FS^2/chi(1)"),
            ("y1*y2*y3*y1^-1*y2^-1*y3^-1", "|G|^2/chi(1)"),
        ],
    )
    def test_closed_forms_fold_empty_residuals(self, text, expected):
        from wordfourier import closed_form_str

        assert closed_form_str(normalize(parse_word(text))) == expected

    def test_no_closed_form_with_residual_generators(self):
        from wordfourier import closed_form_str

        assert closed_form_str(normalize(corpus_word("cube"))) is None
        assert closed_form_str(normalize(parse_word("x"))) is None


def drop(word, names):
    """The word over its alphabet without ``names``, which it must not use."""
    alphabet = Alphabet(tuple(n for n in word.alphabet.names if n not in names))
    index = [alphabet.names.index(n) if n in alphabet.names else None for n in word.alphabet]
    return Word(alphabet, tuple((index[g], s) for g, s in word.letters))


def square_reduce(word, generator):
    """The square rule by plain slicing: w1*y*w2*y*w3 becomes w1*w2^-1*w3,
    over the alphabet without y and freely reduced; returned with the
    exponent delta (1, 1, 1), one factor |G|/chi(1)*FS.  A y occurring
    twice negatively gives the same word, since sending y to its inverse
    keeps the distribution."""
    g = word.alphabet.index(generator)
    occ = occurrences(word)[g]
    if kind(occ) != SQUARE:
        raise ReductionError(f"generator {generator!r} is not a square in {word}")
    (p1, _), (p2, _) = occ
    letters = word.letters
    middle = tuple((h, -s) for h, s in reversed(letters[p1 + 1 : p2]))
    spliced = Word(word.alphabet, letters[:p1] + middle + letters[p2 + 1 :])
    return free_reduce(drop(spliced, (generator,))), (1, 1, 1)


def eliminate_single(word, generator):
    """The single rule's step (rule, generator, delta, detail): a generator
    occurring once makes the word map uniform, the constant |G|^(d-1) for
    ambient rank d, so the claim is |G|^(d-1) on the trivial character."""
    if kind(occurrences(word)[word.alphabet.index(generator)]) != SINGLE:
        raise ReductionError(f"generator {generator!r} is not single in {word}")
    rank = word.alphabet.rank
    return ("single", generator, (rank, 0, 0), f"constant |G|^{rank - 1}")


def rebuild(word):
    """normalize one rule at a time, with the unused, single and square
    rules above: the (rule, generator, delta, detail) of each step, and
    the residual alphabet, words and split."""
    steps = []
    current = free_reduce(word)
    if current.letters != word.letters:
        steps.append(("free-reduce", None, (0, 0, 0), word_to_str(current)))
    while True:
        kinds = [kind(occ) for occ in occurrences(current)]
        names = {k: [n for n, got in zip(current.alphabet.names, kinds) if got == k]
                 for k in (ABSENT, SINGLE, SQUARE, DISMISSIBLE)}
        if names[ABSENT]:
            current = drop(current, names[ABSENT])
            dropped = ",".join(names[ABSENT])
            delta = (len(names[ABSENT]), 0, 0)
            steps.append(("absent", dropped, delta, f"alphabet {current.alphabet}"))
        elif names[SINGLE]:
            steps.append(eliminate_single(current, names[SINGLE][0]))
            return steps, (Alphabet(()), (), None)
        elif names[SQUARE]:
            current, delta = square_reduce(current, names[SQUARE][0])
            steps.append(("square", names[SQUARE][0], delta, word_to_str(current)))
        elif names[DISMISSIBLE]:
            form = form_from_split(split_dismissible(current))
            steps += [(step.rule, step.generator, step.delta, step.detail) for step in form.trace]
            return steps, (form.residual_alphabet, form.residual_words, form.split)
        else:
            return steps, (current.alphabet, (current,), None)


class TestSquare:
    def test_plain_square_collapses(self):
        residual, delta = square_reduce(parse_word("x*x"), "x")
        assert residual.letters == () and residual.alphabet.rank == 0
        assert delta == (1, 1, 1)

    def test_brace_reduces_to_inverse_square(self):
        residual, _ = square_reduce(parse_word("{x,y}"), "x")
        assert word_to_str(residual) == "y^-2"

    def test_negative_square_uses_inversion(self):
        residual, _ = square_reduce(parse_word("x^-1*y*x^-1"), "x")
        assert word_to_str(residual) == "y^-1"

    def test_middle_segment_is_inverted(self):
        w = parse_word("a*x*b*c*x*d", Alphabet(("a", "b", "c", "d", "x")))
        residual, _ = square_reduce(w, "x")
        assert word_to_str(residual) == "a*c^-1*b^-1*d"

    def test_mixed_pattern_turns_other_square(self):
        # w1 x w2 y w3 x^-1 w4 y w5: removing y leaves x twice positive
        w = parse_word("a*x*b*y*x^-1*a*y*b", Alphabet(("a", "b", "x", "y")))
        residual, _ = square_reduce(w, "y")
        signs = [s for g, s in residual.letters if residual.alphabet.names[g] == "x"]
        assert signs == [1, 1]

    def test_not_a_square(self):
        with pytest.raises(ReductionError, match="not a square"):
            square_reduce(parse_word("[x,y]"), "x")


class TestEliminateSingle:
    def test_rank_one(self):
        step = eliminate_single(parse_word("x"), "x")
        assert step == ("single", "x", (1, 0, 0), "constant |G|^0")

    @pytest.mark.parametrize("names, exponent", [(("x", "y"), 1), (("x", "y", "z"), 2)])
    def test_ambient_rank_matters(self, names, exponent):
        _, _, (a, b, s), detail = eliminate_single(parse_word("xy", Alphabet(names)), "x")
        assert (a - 1, b, s) == (exponent, 0, 0)
        assert detail == f"constant |G|^{exponent}"

    def test_not_single(self):
        with pytest.raises(ReductionError, match="not single"):
            eliminate_single(parse_word("x^2"), "x")


REFERENCE_NAMES = ("a", "b", "c", "d", "e", "y")


@st.composite
def reduction_words(draw):
    """Words over up to six generators, some of them unused: random
    letters, words in which every letter occurs twice, and words
    u*v*y*v*y*u^-1*w, whose square y cancels across both splice joins."""
    shape = draw(st.sampled_from(("random", "twice", "cascade")))
    rank = draw(st.integers(2 if shape == "cascade" else 1, len(REFERENCE_NAMES)))
    letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    if shape == "random":
        letters = draw(st.lists(letter, max_size=16))
    elif shape == "twice":
        used = draw(st.integers(0, rank))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=2 * used, max_size=2 * used))
        letters = draw(st.permutations([(i // 2, s) for i, s in enumerate(signs)]))
    else:
        y = rank - 1
        other = st.tuples(st.integers(0, rank - 2), st.sampled_from((1, -1)))
        u, v, w = (draw(st.lists(other, max_size=5)) for _ in range(3))
        sign = draw(st.sampled_from((1, -1)))
        u_inv = [(g, -s) for g, s in reversed(u)]
        letters = u + v + [(y, sign)] + v + [(y, sign)] + u_inv + w
    return Word(Alphabet(REFERENCE_NAMES[:rank]), tuple(letters))


def assert_normalize_equals_the_rebuild(word):
    form = normalize(word)
    steps, (alphabet, residual_words, split) = rebuild(word)
    assert [(s.rule, s.generator, s.delta, s.detail) for s in form.trace] == steps
    assert form.trivial_only == (bool(steps) and steps[-1][0] == "single")
    assert form.residual_alphabet == alphabet
    assert form.residual_words == residual_words
    assert form.split == split
    assert form.word == word
    a, b, c = (sum(delta[i] for _, _, delta, _ in steps) for i in range(3))
    assert (form.g_exponent, form.deg_exponent, form.fs_exponent) == (a - 1, b, c)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(word=reduction_words())
def test_normalize_equals_the_step_by_step_rebuild(word):
    assert_normalize_equals_the_rebuild(word)


SQUARE_WORDS = square_words()


@pytest.mark.parametrize(
    "text, names", SQUARE_WORDS, ids=[f"{text.count('*') + 1}-letters" for text, _ in SQUARE_WORDS]
)
def test_normalize_equals_the_rebuild_on_long_words(text, names):
    # 100 to 400 letters: two-occurrence words, and cascades that cancel at
    # both joins, drop general letters to two occurrences and build runs
    assert_normalize_equals_the_rebuild(parse_word(text, Alphabet(names)))


@pytest.mark.parametrize("n", (20, 50, 100, 200))
def test_orientable_twice_words_are_dismissible_and_have_a_genus(n):
    # each letter once with each sign, as in the contract's long words
    text, names = twice_word(random.Random(f"long:{n}"), n, orientable=True)
    word = parse_word(text, Alphabet(names))
    kinds = [kind(occ) for occ in occurrences(word)]
    assert kinds == [DISMISSIBLE] * n + [ABSENT] * len(UNUSED_NAMES)
    assert 0 < genus(word) <= n // 2
    assert_normalize_equals_the_rebuild(word)


@pytest.mark.parametrize("unused", ((), UNUSED_NAMES), ids=("inferred", "unused-names"))
@pytest.mark.parametrize(
    "text, names", SINGLE_AFTER_SQUARE, ids=[text for text, _ in SINGLE_AFTER_SQUARE]
)
def test_single_after_a_square_step_matches_the_rebuild(text, names, unused):
    # a generator occurring three times keeps one letter once a square step
    # cancels a pair of its letters at a splice join
    word = parse_word(text, Alphabet(names + unused) if unused else None)
    assert word.alphabet.names[: len(names)] == names
    assert SINGLE not in [kind(occ) for occ in occurrences(word)]
    rules = [step.rule for step in normalize(word).trace]
    assert rules[-1] == "single" and "square" in rules
    assert_normalize_equals_the_rebuild(word)
