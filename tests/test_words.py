"""Parser, free reduction, inversion, shifts, and word-map evaluation."""

import os
import random
import re
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

import wordfourier
from wordfourier import (
    Alphabet,
    Word,
    WordSyntaxError,
    normalize,
    parse_word,
    word_to_str,
)
from wordfourier.words import MAX_POWER_LETTERS, free_reduce

from corpus import concat, cyclic_shift, evaluate, invert, random_word
from group_builders import build_builtin, cycle_notation, group_from_generators, perm_from_cycles


def letters_of(text, alphabet=None):
    return parse_word(text, alphabet).letters


class TestParser:
    def test_commutator_sugar(self):
        w = parse_word("[x,y]")
        assert w.alphabet.names == ("x", "y")
        assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))

    def test_brace_sugar(self):
        w = parse_word("{x,y}")
        assert w.letters == ((0, 1), (1, 1), (0, 1), (1, -1))

    def test_negative_exponent_expands(self):
        w = parse_word("x^-3")
        assert w.letters == ((0, -1),) * 3

    def test_exponent_on_group(self):
        assert letters_of("(xy)^2", Alphabet(("x", "y"))) == (
            (0, 1), (1, 1), (0, 1), (1, 1),
        )

    def test_exponent_binds_to_last_symbol_of_run(self):
        assert letters_of("xy^2", Alphabet(("x", "y"))) == ((0, 1), (1, 1), (1, 1))

    def test_one_is_the_empty_word(self):
        assert parse_word("1").letters == ()
        assert parse_word("x*1*y").letters == ((0, 1), (1, 1))

    def test_inferred_alphabet_order(self):
        w = parse_word("b*a*b")
        assert w.alphabet.names == ("b", "a")

    def test_juxtaposition_against_explicit_alphabet(self):
        w = parse_word("xyx", Alphabet(("x", "y")))
        assert w.letters == ((0, 1), (1, 1), (0, 1))

    def test_longest_name_wins(self):
        w = parse_word("x1y", Alphabet(("x1", "y")))
        assert [w.alphabet.names[g] for g, _ in w.letters] == ["x1", "y"]

    def test_nested_sugar(self):
        w = parse_word("[[x,y],z]")
        assert len(w) == 10
        assert w.alphabet.names == ("x", "y", "z")

    def test_zero_exponent_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x^0")

    def test_unknown_symbol_with_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("x*q", Alphabet(("x",)))
        assert err.value.position == 2

    def test_trailing_garbage(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x)")

    def test_unclosed_bracket(self):
        with pytest.raises(WordSyntaxError):
            parse_word("[x,y")

    def test_empty_input_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("   ")

    def test_partial_run_is_an_error(self):
        with pytest.raises(WordSyntaxError):
            parse_word("x1", Alphabet(("x",)))

    def test_power_past_the_letter_cap_is_a_syntax_error(self):
        assert len(parse_word(f"x^-{MAX_POWER_LETTERS}")) == MAX_POWER_LETTERS
        for text, position in (
            (f"y*x^{MAX_POWER_LETTERS + 1}", 4),
            (f"(x*y)^{MAX_POWER_LETTERS // 2 + 1}", 6),
            ("x^99999999999999999999", 2),  # used to die with OverflowError
            ("x^" + "9" * 5000, 2),  # past int()'s digit limit
        ):
            with pytest.raises(WordSyntaxError) as err:
                parse_word(text)
            assert err.value.position == position

    def test_exponent_digits_are_the_ones_int_reads(self):
        # "²" is a digit to str.isdigit but not to int(); "٣" is both
        for text, message, position in (
            ("x^²", "expected an integer exponent", 2),
            ("x^2²", "expected a generator symbol", 3),
        ):
            with pytest.raises(WordSyntaxError, match=message) as err:
                parse_word(text)
            assert err.value.position == position
        assert parse_word("x^٣") == parse_word("x^3")

    @pytest.mark.parametrize("setting", (None, "0", "640"), ids=("unset", "0", "640"))
    def test_exponent_errors_ignore_the_int_digit_limit(self, setting):
        # int() refuses more digits than PYTHONINTMAXSTRDIGITS allows; the
        # parser's messages read the same under every setting
        program = (
            "from wordfourier import WordSyntaxError, parse_word\n"
            "for digits in (1000, 5000):\n"
            "    try:\n"
            "        parse_word('x^' + '9' * digits)\n"
            "    except WordSyntaxError as exc:\n"
            "        print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(wordfourier.__file__).parents[1]))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if setting is not None:
            env["PYTHONINTMAXSTRDIGITS"] = setting
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.stdout.splitlines() == [
            f"power expands past {MAX_POWER_LETTERS} letters (at position 2)",
            "exponent has too many digits (at position 2)",
        ]

    def test_bracket_past_the_letter_cap_is_a_syntax_error(self):
        half = MAX_POWER_LETTERS // 2
        # [[...[x,y],y]...,y] nested k deep has 3*2^k - 2 letters, so the
        # 19th bracket from the inside is the first past the cap
        nested = "[" * 30 + "x" + ",y]" * 30
        for text, position in ((f"y*[x^{half},y]", 2), (nested, 11)):
            with pytest.raises(WordSyntaxError, match="bracket") as err:
                parse_word(text)
            assert err.value.position == position

    def test_word_past_the_letter_cap_is_a_syntax_error(self):
        # each power is within the cap, but the word they make is not
        power = f"(x^{MAX_POWER_LETTERS})"
        for text, position in ((power * 2, 11), (f"y*{power}", 2), (f"[y,x]({power})", 5)):
            with pytest.raises(WordSyntaxError, match="word expands") as err:
                parse_word(text)
            assert err.value.position == position

    @pytest.mark.parametrize(
        "text, names, alphabet, letters",
        [
            ("x ^ -2", ("x",), None, ((0, -1), (0, -1))),  # whitespace around "^"
            ("x^+2", ("x",), None, ((0, 1), (0, 1))),
            ("x^0007", ("x",), None, ((0, 1),) * 7),
            ("*x", ("x",), None, ((0, 1),)),  # a leading, trailing or doubled "*"
            ("x*", ("x",), None, ((0, 1),)),
            ("x**y", ("x", "y"), None, ((0, 1), (1, 1))),
            ("1x", ("x",), None, ((0, 1),)),
            ("x*1", ("x",), None, ((0, 1),)),
            ("x y", ("x", "y"), None, ((0, 1), (1, 1))),
            ("x y", ("x", "y"), ("x", "y"), ((0, 1), (1, 1))),
            ("α*β^-1", ("α", "β"), None, ((0, 1), (1, -1))),  # letters are Unicode letters
            ("x_1*x_1", ("x_1",), None, ((0, 1), (0, 1))),
            ("x1y", ("x", "x1", "y"), ("x", "x1", "y"), ((1, 1), (2, 1))),
            ("[x,y]^-1", ("x", "y"), None, ((1, 1), (0, 1), (1, -1), (0, -1))),
            ("1^99999999999999999999", (), None, ()),  # used to die with OverflowError
        ],
    )
    def test_accepted_edges(self, text, names, alphabet, letters):
        word = parse_word(text, alphabet and Alphabet(alphabet))
        assert (word.alphabet.names, word.letters) == (names, letters)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x^- 2", "expected an integer exponent", 2),  # no space after the sign
            ("x*y^0", "zero exponent", 4),
            ("x^3*y^0", "zero exponent", 6),
            ("x^-0", "zero exponent", 2),
            ("x^2^3", "expected a generator symbol", 3),
            ("(x)^2^3", "expected a generator symbol", 5),
            ("_x", "expected a generator symbol", 0),
            ("x,y", "expected a generator symbol", 1),
            ("()", "empty word", 1),
            ("[,x]", "empty word", 1),
            (f"x*y^{MAX_POWER_LETTERS}", "word expands", 2),
            ("x^12345678", "power expands", 2),  # eight digits
        ],
    )
    def test_rejected_edges(self, text, message, position):
        with pytest.raises(WordSyntaxError, match=message) as err:
            parse_word(text)
        assert err.value.position == position


# Over an explicit alphabet these juxtapose unambiguously: no name is a
# longer name's prefix followed by the start of another name.
DRAW_NAMES = ("x", "y", "z", "x1", "y2", "α", "β_1")


def invert_letters(letters):
    return [(name, -sign) for name, sign in reversed(letters)]


class GrammarDraw:
    """Seeded word texts, each drawn together with the (name, sign) letters
    it must parse to.  Half the texts are flat: no "()", "[,]" or "{,}".
    Half are plain: ASCII names with powers, joined by "*", where an
    exponent has no "+", no leading zero and no whitespace.  The rest adds
    Unicode names, "1", whitespace, juxtaposition, a doubled, leading or
    trailing "*", a "+" and leading zeros, up to eight digits.  Groups nest
    two deep, and over an explicit alphabet a term may also be a juxtaposed
    run of names, whose power binds to its last name."""

    def __init__(self, seed, explicit):
        self.rng = random.Random(seed)
        self.explicit = explicit
        self.order = []  # names in order of first appearance in the text
        self.flat = self.plain = False

    def noisy(self):
        return not self.plain and self.rng.random() < 0.3

    def space(self):
        return self.rng.choice((" ", "  ", "\t")) if self.noisy() else ""

    def name(self):
        name = self.rng.choice(DRAW_NAMES[:5] if self.plain else DRAW_NAMES)
        if name not in self.order:
            self.order.append(name)
        return name

    def power(self, text, letters):
        rng = self.rng
        if rng.random() < 0.5:
            return text, letters
        exponent = rng.choice((1, 2, 3)) * rng.choice((1, -1))
        sign = "-" if exponent < 0 else "+" if self.noisy() else ""
        digits = "0" * (rng.choice((2, 7)) if self.noisy() else 0) + str(abs(exponent))
        text += self.space() + "^" + self.space() + sign + digits
        if exponent < 0:
            letters = invert_letters(letters)
        return text, letters * abs(exponent)

    def term(self, depth):
        kinds = ["name", "name", "name"] + ([] if self.plain else ["one"])
        if self.explicit:
            kinds.append("run")
        if depth < 2 and not self.flat:
            kinds += ["()", "[]", "{}"]
        kind = self.rng.choice(kinds)
        if kind == "name":
            name = self.name()
            return self.power(name, [(name, 1)])
        if kind == "run":
            names = [self.name() for _ in range(self.rng.randint(2, 3))]
            tail, letters = self.power(names[-1], [(names[-1], 1)])
            return "".join(names[:-1]) + tail, [(n, 1) for n in names[:-1]] + letters
        if kind == "one":
            return self.power("1", [])
        left, a = self.word(depth + 1)
        if kind == "()":
            return self.power(f"({left})", a)
        right, b = self.word(depth + 1)
        if kind == "[]":
            letters = a + b + invert_letters(a) + invert_letters(b)
        else:
            letters = a + b + a + invert_letters(b)
        return self.power(f"{kind[0]}{left},{right}{kind[1]}", letters)

    def word(self, depth=0):
        rng = self.rng
        parts, letters = [], []
        for _ in range(rng.randint(1, 5 - depth)):
            text, more = self.term(depth)
            if parts:
                joints = ["*", " * ", "**", " "]
                if parts[-1][-1] in ")]}" or text[0] in "([{":
                    joints.append("")
                parts.append(rng.choice(joints) if self.noisy() else "*")
            parts.append(text)
            letters += more
        text = "".join(parts)
        if self.noisy():
            text = "*" + text
        if self.noisy():
            text += "*"
        return self.space() + text + self.space(), letters

    def draw(self):
        """(text, alphabet or None, alphabet names, letters)"""
        self.order = []
        self.flat = self.rng.random() < 0.5
        self.plain = self.rng.random() < 0.5
        text, letters = self.word()
        if self.explicit:
            names = list(DRAW_NAMES)
            self.rng.shuffle(names)
            names = tuple(names)
        else:
            names = tuple(self.order)
        spelled = tuple((names.index(name), sign) for name, sign in letters)
        return text, Alphabet(names) if self.explicit else None, names, spelled


def drawn_texts(seed, count=50):
    draw = GrammarDraw(seed, explicit=seed % 2 == 1)
    return [draw.draw() for _ in range(count)]


class TestSeededGrammar:
    @pytest.mark.parametrize("seed", range(8))
    def test_parse_gives_the_drawn_letters(self, seed):
        for text, alphabet, names, letters in drawn_texts(seed):
            word = parse_word(text, alphabet)
            assert (word.alphabet.names, word.letters) == (names, letters), text

    def test_draws_cover_the_grammar(self):
        texts = [text for seed in range(8) for text, *_ in drawn_texts(seed)]
        for piece in (
            r"\(", r"\[", r"\{", r"\^-", r"\^\+", r"\^\s*\d{8}", r"\s\^", r"\^\s",
            r"\*\*", r"^\*", r"\*$", r"\w\s+\w", r"[)\]}]\w",
        ):
            assert any(re.search(piece, text) for text in texts), piece
        explicit = [text for seed in range(1, 8, 2) for text, *_ in drawn_texts(seed)]
        assert any("xy" in text or "zx" in text for text in explicit)
        # flat texts both within and past the plain "name^int*name" shape
        flat = [text for text in texts if not set(text) & set("([{")]
        plain = re.compile(r"\w+(\^-?[1-9]\d{0,6})?(\*\w+(\^-?[1-9]\d{0,6})?)*")
        shapes = [bool(plain.fullmatch(text)) for text in flat]
        assert shapes.count(True) > 50 and shapes.count(False) > 50


class TestAlphabet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("x", "x"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(("x", ""))

    def test_letters_validated_against_rank(self):
        with pytest.raises(ValueError):
            Word(Alphabet(("x",)), ((1, 1),))
        with pytest.raises(ValueError):
            Word(Alphabet(("x",)), ((0, 2),))


class TestFreeReduce:
    def test_cancellation(self):
        assert free_reduce(parse_word("x*x^-1")).letters == ()

    def test_inner_cancellation(self):
        assert word_to_str(free_reduce(parse_word("x*y*y^-1*x"))) == "x^2"

    def test_already_reduced_is_identical(self):
        w = parse_word("x*y*x")
        assert free_reduce(w) is w

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_and_fully_reduced(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet(("a", "b", "c"))
        w = random_word(rng, alphabet, 30)
        once = free_reduce(w)
        assert free_reduce(once).letters == once.letters
        for (g1, s1), (g2, s2) in zip(once.letters, once.letters[1:]):
            assert not (g1 == g2 and s1 == -s2)


class TestInvertAndShift:
    def test_invert_reverses_and_flips(self):
        assert word_to_str(invert(parse_word("xy", Alphabet(("x", "y"))))) == "y^-1*x^-1"

    def test_invert_empty(self):
        assert invert(parse_word("1")).letters == ()

    def test_commutator_inverse(self):
        assert invert(parse_word("[x,y]")) == parse_word("[y,x]", Alphabet(("x", "y")))

    def test_shift_examples(self):
        w = parse_word("x*y*z")
        assert word_to_str(cyclic_shift(w, 1)) == "y*z*x"
        assert cyclic_shift(w, 3) == w
        assert cyclic_shift(parse_word("1"), 5).letters == ()


class TestEvaluate:
    def test_empty_word_gives_identity(self):
        group = build_builtin("S3")
        w = parse_word("1", Alphabet(("x",)))
        assert evaluate(w, {"x": 3}, group) == group.identity

    def test_commuting_elements_commutator(self):
        group = build_builtin("Z6")
        w = parse_word("[x,y]")
        assert evaluate(w, {"x": 2, "y": 5}, group) == group.identity

    def test_s3_commutator_of_transpositions_is_a_3_cycle(self):
        # left-to-right composition: [(1 2), (1 3)] maps 1->3, 3->2, 2->1
        group, elements = group_from_generators(
            [perm_from_cycles(3, [(1, 2)]), perm_from_cycles(3, [(1, 2, 3)])], name="S3"
        )
        names = [cycle_notation(p) for p in elements]
        x = names.index("(1 2)")
        y = names.index("(1 3)")
        got = evaluate(parse_word("[x,y]"), {"x": x, "y": y}, group)
        assert names[got] == "(1 3 2)"

    @pytest.mark.parametrize("seed", range(4))
    def test_concatenation_is_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        group = build_builtin("S3")
        alphabet = Alphabet(("a", "b"))
        w1 = random_word(rng, alphabet, 5)
        w2 = random_word(rng, alphabet, 4)
        assignment = {"a": int(rng.integers(6)), "b": int(rng.integers(6))}
        product = group.mul[
            evaluate(w1, assignment, group), evaluate(w2, assignment, group)
        ]
        assert evaluate(concat(w1, w2), assignment, group) == product

    def test_concat_requires_matching_alphabets(self):
        with pytest.raises(ValueError):
            concat(parse_word("x"), parse_word("y"))


def test_word_to_str_round_trip():
    for text in ("1", "x^2*y^-3*x", "a*b*a^-1"):
        w = parse_word(text)
        assert word_to_str(parse_word(word_to_str(w), w.alphabet)) == word_to_str(w)


def reference_str(word):
    """word_to_str letter by letter: each run of one letter is one power."""
    if not word.letters:
        return "1"
    names = word.alphabet.names
    parts = []
    for (g, s), run in groupby(word.letters):
        count = len(list(run))
        if count == 1:
            parts.append(names[g] if s > 0 else names[g] + "^-1")
        else:
            parts.append(f"{names[g]}^{s * count}")
    return "*".join(parts)


class TestRender:
    @pytest.mark.parametrize(
        "letters, expected",
        [
            ((), "1"),
            (((0, 1),), "x"),
            (((0, -1),), "x^-1"),
            (((0, 1),) * 5, "x^5"),  # one whole run
            (((0, -1),) * 4, "x^-4"),
            (((0, 1),) * 3 + ((1, -1),), "x^3*y^-1"),  # run at the start
            (((1, 1), (0, -1), (0, -1), (0, -1)), "y*x^-3"),  # inverse run at the end
            (((1, 1), (0, 1), (0, 1), (0, 1), (1, 1)), "y*x^3*y"),
            (((0, 1), (0, -1), (0, 1)), "x*x^-1*x"),  # signs alternate: no run
            (((0, 1),) * 2 + ((1, 1),) * 3 + ((0, -1),) * 2, "x^2*y^3*x^-2"),
        ],
    )
    def test_runs_fold_into_powers(self, letters, expected):
        word = Word(Alphabet(("x", "y")), letters)
        assert word_to_str(word) == expected == reference_str(word)

    def test_a_name_that_prefixes_another(self):
        word = Word(Alphabet(("x1", "x11")), ((0, 1), (1, 1), (1, 1), (0, 1), (0, 1), (1, -1)))
        assert word_to_str(word) == "x1*x11^2*x1^2*x11^-1"

    def test_names_that_read_like_powers(self):
        # an explicit alphabet may hold names with "^" in them; a run's power
        # comes from its letters, and two letters whose tokens read alike
        # are still two letters
        alphabet = Alphabet(("x", "x^-1", "x^2"))
        assert word_to_str(Word(alphabet, ((0, 1), (0, 1)))) == "x^2"
        assert word_to_str(Word(alphabet, ((0, -1),) * 3)) == "x^-3"
        assert word_to_str(Word(alphabet, ((0, -1), (1, 1)))) == "x^-1*x^-1"
        assert word_to_str(Word(alphabet, ((1, 1), (1, 1), (2, -1)))) == "x^-1^2*x^2^-1"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_words_match_the_letter_by_letter_reference(self, seed):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet(("x1", "x11", "y", "y^2"))
        letters = []
        while len(letters) < 60:  # runs of one to four letters over the used names
            letter = (int(rng.integers(3)), int(rng.choice((1, -1))))
            letters += [letter] * int(rng.integers(1, 5))
        word = Word(alphabet, tuple(letters))
        assert word_to_str(word) == reference_str(word)

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("x*y*x^-1*y", "x^2"),  # w1*w2^-1 = x*x
            ("y*x*y*x^-1", "x^-2"),  # w2^-1*w3 = x^-1*x^-1
            ("x*x*y*x^-1*y", "x^3"),  # the seam extends a run
            ("x^-1*y*z*x*y*z", "x^-2"),  # x^-1*x^-1 once z^-1*z cancels
        ],
    )
    def test_a_square_splice_makes_a_run_at_a_seam(self, text, detail):
        step = normalize(parse_word(text)).trace[0]
        assert (step.rule, step.generator, step.detail) == ("square", "y", detail)
