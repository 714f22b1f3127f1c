"""Fast paths against the references they replace.

``cli._json`` writes every ``--format json`` document; it must be byte for
byte ``json.dumps(doc, sort_keys=True, indent=2)``.  ``parse_word`` reads
a flat word with an inferred alphabet in one pass; it must give the Word,
or the WordSyntaxError message and position, that the recursive-descent
``_Parser`` gives.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordfourier import WordSyntaxError, cli, words
from wordfourier.words import Alphabet, _Parser, parse_word

from test_symbolic_output import EXPAND_GROUPS
from test_symbolic_output import words as corpus_words

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def command_runs():
    """Every command on the corpus and tambour words, over EXPAND_GROUPS
    for expand (with and without --verify) and S3 for bench."""
    for label, argv in corpus_words():
        for command in ("classify", "reduce", "genus"):
            yield f"{command} {label}", (command, *argv)
        for group in EXPAND_GROUPS:
            for verify in ((), ("--verify",)):
                yield f"expand {label}/{group}", ("expand", *argv, "--group", group, *verify)
        yield f"bench {label}", ("bench", *argv, "--group", "S3")


def test_every_command_writes_what_json_dumps_writes(monkeypatch, capsys):
    docs = []
    emit = cli._json

    def recording(value, indent="\n"):
        if indent == "\n":  # the whole document, not a nested value
            docs.append(value)
        return emit(value, indent)

    monkeypatch.setattr(cli, "_json", recording)
    written = set()
    for label, argv in command_runs():
        docs.clear()
        code = cli.main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        if code != 0:  # genus of a word that is not admissible prints nothing
            assert not docs and not out, label
            continue
        (doc,) = docs
        assert out == reference(doc) + "\n", label
        written.add(argv[0])
    assert written == {"classify", "reduce", "genus", "expand", "bench"}


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
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


@SETTINGS
@given(doc=documents)
def test_the_emitter_writes_what_json_dumps_writes(doc):
    assert cli._json(doc) == reference(doc)


def test_the_emitter_refuses_what_json_dumps_refuses():
    for bad in ({"a": np.int64(1)}, [object()], {"a": {1j}}):
        with pytest.raises(TypeError):
            reference(bad)
        with pytest.raises(TypeError):
            cli._json(bad)


# pieces of word text: flat ones, and ones that send the text to _Parser
FLAT_NAMES = ("x", "y1", "ab_c", "X", "xy")
FLAT_POWERS = ("", "", "^2", "^-1", "^-3", "^0", "^-0", "^01", "^20", "^21", "^-41",
               "^12345678")
NAMES = FLAT_NAMES + ("é", "xé", "ß2", "_x", "2x")
POWERS = FLAT_POWERS + ("^+2", "^", "^²", "^ 2")
JOINS = ("*", "", " ", "**", "\t", "(", ")", "[", ",", "]", "1")
EXPLICIT = Alphabet(("x", "y1", "ab_c", "X", "xy"))


@st.composite
def word_texts(draw, names, powers, joins):
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        parts.append(draw(st.sampled_from(joins)) if parts else "")
        parts.append(draw(st.sampled_from(names)) + draw(st.sampled_from(powers)))
    return "".join(parts)


# flat words, which mostly take the fast path, and words with anything else
texts = word_texts(FLAT_NAMES, FLAT_POWERS, ("*",)) | word_texts(NAMES, POWERS, JOINS)


def outcome(text, alphabet, parse):
    try:
        return parse(text, alphabet)
    except WordSyntaxError as exc:
        return str(exc), exc.position


@SETTINGS
@given(text=texts, explicit=st.booleans())
def test_the_flat_parse_agrees_with_the_parser(text, explicit):
    alphabet = EXPLICIT if explicit else None
    # a small cap, so that words and powers past it are cheap to try
    with mock.patch.object(words, "MAX_POWER_LETTERS", 40):
        fast = outcome(text, alphabet, parse_word)
        slow = outcome(text, alphabet, lambda t, a: _Parser(t, a).parse())
    assert fast == slow


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
