"""Fast paths against the references they replace.

``cli._expand_json`` writes the ``expand`` document, and ``cli._json`` the
scalars in it; each must be byte for byte what ``json.dumps(doc,
sort_keys=True, indent=2)`` writes, which every other command prints
itself.  ``parse_word`` reads its text in one tokenizing pass; it must
give the Word, or the WordSyntaxError message and position, that
``ReferenceParser``, a descent that steps through the text one character
at a time, gives.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordfourier import FiniteGroup, WordSyntaxError, cli, words
from wordfourier.groups import save_group
from wordfourier.words import Alphabet, Word, parse_word

import contract_runs
from corpus import group_and_table

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def test_expand_writes_what_json_dumps_writes_on_every_contract_run(
    monkeypatch, capsys, tmp_path
):
    docs = []
    emit = cli._expand_json
    monkeypatch.setattr(cli, "_expand_json", lambda doc: docs.append(doc) or emit(doc))
    runs = [
        argv
        for argv in contract_runs.runs(tmp_path)
        if argv[:1] == ["expand"] and argv[-2:] == ["--format", "json"]
    ]
    written = 0
    for argv in runs:
        docs.clear()
        code = cli.main(argv)
        out = capsys.readouterr().out
        if not docs:  # an error
            assert code and not out, argv
            continue
        (doc,) = docs
        assert out == reference(doc) + "\n", argv
        written += 1
    assert written


SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | st.sampled_from(SPECIAL_FLOATS + (math.nan, math.inf, -math.inf))
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)


@SETTINGS
@given(value=scalars)
def test_the_emitter_writes_what_json_dumps_writes(value):
    assert cli._json(value) == reference(value)


def test_the_emitter_refuses_what_json_dumps_refuses():
    for bad in (np.int64(1), object(), {1j}):
        with pytest.raises(TypeError):
            reference(bad)
        with pytest.raises(TypeError):
            cli._json(bad)


# the expand document: scalars at the top and in each row, [real, imag]
# pairs, a null or a string rational, and the keys --verify adds
expand_floats = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(SPECIAL_FLOATS + (-5e-324, 1.5e308, -1.5e308, math.inf, math.nan))
)
expand_pairs = st.lists(expand_floats, min_size=2, max_size=2)


@st.composite
def expand_documents(draw):
    verify = draw(st.booleans())
    rows = []
    for chi in range(draw(st.integers(1, 6))):
        row = {
            "chi": chi,
            "degree": draw(st.integers(1, 10)),
            "fs": draw(st.sampled_from((-1, 0, 1))),
            "coefficient": draw(expand_pairs),
            "display": draw(st.text()),
            "rational": draw(st.none() | st.text()),
        }
        if verify:
            row["oracle"] = draw(expand_pairs)
            row["delta"] = draw(expand_floats)
        rows.append(row)
    doc = {
        "command": "expand",
        "word": draw(st.text()),
        "group": draw(st.text()),
        "order": draw(st.integers(1, 2**70)),
        "prefactor": draw(st.text()),
        "backend": "numpy",
        "rows": rows,
    }
    if verify:
        doc["max_delta"] = draw(expand_floats)
    return doc


@SETTINGS
@given(doc=expand_documents())
def test_the_expand_writer_writes_what_json_dumps_writes(doc):
    assert cli._expand_json(doc) == reference(doc)


def test_the_expand_writer_on_the_documents_expand_prints(monkeypatch, capsys, tmp_path):
    docs = []
    emit = cli._expand_json
    monkeypatch.setattr(cli, "_expand_json", lambda doc: docs.append(doc) or emit(doc))
    group, _ = group_and_table("S3")
    named = tmp_path / "named.grp"
    save_group(FiniteGroup(group.mul, name='S3"quoted\\slashed'), named)
    runs = {
        # non-ASCII generator names, and a rational on every row
        "unicode": ("[\u03b1,\u03b2]*\u03b3^3", "--group", "S3"),
        # x^3 over Z7 is not annotated at --tol 0: its floats are not exact
        "rational-null": ("x^3", "--group", "Z7", "--tol", "0"),
        "group-name": ("[x,y]*x^3", "--group-file", str(named)),
        "negative-zero": ("x^2*y^3", "--group", "Q8"),  # row 4 is -0.0 + 0.0i
    }
    for label, argv in runs.items():
        for verify in ((), ("--verify",)):
            docs.clear()
            code = cli.main(["expand", *argv, *verify, "--format", "json"])
            # --verify at --tol 0 fails on the float noise, after printing
            assert code == (2 if verify and "--tol" in argv else 0), label
            out = capsys.readouterr().out
            (doc,) = docs
            assert out == reference(doc) + "\n", label
            assert ("max_delta" in doc) == bool(verify)
            if label == "rational-null":
                assert None in [row["rational"] for row in doc["rows"]]
            if label == "group-name":
                assert doc["group"] == 'S3"quoted\\slashed'
                assert '"group": "S3\\"quoted\\\\slashed"' in out
            if label == "unicode":
                assert "\\u03b1" in out and None not in [row["rational"] for row in doc["rows"]]
            if label == "negative-zero":
                parts = [part for row in doc["rows"] for part in row["coefficient"]]
                assert any(math.copysign(1, part) < 0 for part in parts if part == 0)


class ReferenceParser:
    """The word grammar read one character at a time, each step skipping
    whitespace first."""

    def __init__(self, text, alphabet):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet
        names = () if alphabet is None else alphabet.names
        self.index = {name: i for i, name in enumerate(names)}

    def fail(self, message, position=None):
        raise WordSyntaxError(message, self.pos if position is None else position)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        letters = self.word_body(stoppers="")
        alphabet = self.alphabet or Alphabet(tuple(self.index))
        return Word(alphabet, tuple(letters))

    def word_body(self, stoppers):
        out, saw_term = [], False
        while (ch := self.peek()) and ch not in stoppers:
            if ch == "*":
                self.pos += 1
                continue
            at = self.pos
            out.extend(self.term())
            if len(out) > words.MAX_POWER_LETTERS:
                self.fail(f"word expands past {words.MAX_POWER_LETTERS} letters", at)
            saw_term = True
        if not saw_term:
            self.fail('empty word (write "1" for the identity)')
        return out

    def term(self):
        if self.peek().isalpha():  # the exponent binds to the last symbol of a run
            gens = self.symbols()
            return [(g, 1) for g in gens[:-1]] + self.exponent([(gens[-1], 1)])
        return self.exponent(self.factor())

    def exponent(self, letters):
        if self.peek() != "^":
            return letters
        self.pos += 1
        at = start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.fail("expected an integer exponent", start)
        try:
            exponent = int(self.text[start : self.pos])
        except ValueError:
            self.fail("exponent has too many digits", start)
        if exponent == 0:
            self.fail("zero exponent is not allowed", at)
        if len(letters) * abs(exponent) > words.MAX_POWER_LETTERS:
            self.fail(f"power expands past {words.MAX_POWER_LETTERS} letters", at)
        if exponent < 0:
            letters = [(g, -s) for g, s in reversed(letters)]
        return letters * abs(exponent)

    def factor(self):
        ch = self.peek()
        if ch == "1":
            self.pos += 1
            return []
        if ch == "(":
            self.pos += 1
            body = self.word_body(stoppers=")")
            self.expect(")")
            return body
        if ch in ("[", "{"):
            closing = "]" if ch == "[" else "}"
            at = self.pos
            self.pos += 1
            left = self.word_body(stoppers=",")
            self.expect(",")
            right = self.word_body(stoppers=closing)
            self.expect(closing)
            if 2 * (len(left) + len(right)) > words.MAX_POWER_LETTERS:
                self.fail(f"bracket expands past {words.MAX_POWER_LETTERS} letters", at)
            left_inv = [(g, -s) for g, s in reversed(left)]
            right_inv = [(g, -s) for g, s in reversed(right)]
            if ch == "[":
                return left + right + left_inv + right_inv
            return left + right + left + right_inv
        self.fail("expected a generator symbol, '1', '(', '[' or '{'")

    def symbols(self):
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        run = self.text[start : self.pos]
        if run in self.index:
            return [self.index[run]]
        if self.alphabet is None:
            self.index[run] = len(self.index)
            return [self.index[run]]
        gens, rest = [], run
        while rest:  # split greedily, longest name first
            match = max((n for n in self.index if rest.startswith(n)), key=len, default=None)
            if match is None:
                self.fail(f"unknown generator {run!r}", start)
            gens.append(self.index[match])
            rest = rest[len(match) :]
        return gens


# pieces of word text: flat ones, and ones with anything else the grammar reads or refuses
FLAT_NAMES = ("x", "y1", "ab_c", "X", "xy")
FLAT_POWERS = ("", "", "^2", "^-1", "^-3", "^0", "^-0", "^01", "^20", "^21", "^-41",
               "^12345678")
NAMES = FLAT_NAMES + ("é", "xé", "ß2", "_x", "2x", "²y", "x²y", "½")
POWERS = FLAT_POWERS + ("^+2", "^", "^²", "^ 2", " ^ -2", "^- 2", "^^2", "^ ")
JOINS = ("*", "", " ", "**", "\t", "(", ")", "[", ",", "]", "{", "}", "1", "^2")
EXPLICIT = Alphabet(("x", "y1", "ab_c", "X", "xy", "²y"))


@st.composite
def word_texts(draw, names, powers, joins):
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        parts.append(draw(st.sampled_from(joins)) if parts else "")
        parts.append(draw(st.sampled_from(names)) + draw(st.sampled_from(powers)))
    return "".join(parts)


texts = word_texts(FLAT_NAMES, FLAT_POWERS, ("*",)) | word_texts(NAMES, POWERS, JOINS)


def outcome(text, alphabet, parse):
    try:
        return parse(text, alphabet)
    except WordSyntaxError as exc:
        return str(exc), exc.position


@SETTINGS
@given(text=texts, explicit=st.booleans())
def test_parse_word_agrees_with_the_reference_descent(text, explicit):
    alphabet = EXPLICIT if explicit else None
    # a small cap, so that words and powers past it are cheap to try
    with mock.patch.object(words, "MAX_POWER_LETTERS", 40):
        got = outcome(text, alphabet, parse_word)
        expected = outcome(text, alphabet, lambda t, a: ReferenceParser(t, a).parse())
    assert got == expected


def test_the_flat_parse_enforces_the_letter_cap():
    with mock.patch.object(words, "MAX_POWER_LETTERS", 40):
        assert len(parse_word("x^20*y^-20")) == 40
        for text, message in (
            ("x^41", "power expands past 40 letters (at position 2)"),
            ("x^20*y^21", "word expands past 40 letters (at position 5)"),
        ):
            with pytest.raises(WordSyntaxError) as err:
                parse_word(text)
            assert str(err.value) == message
