"""Free-group words over an explicit ambient alphabet.

A word is a finite sequence of signed generator letters.  The ambient
alphabet is carried explicitly by every word because the number of
generators it contains changes the distribution the word induces on a
finite group, even for generators that never occur in the word.

Grammar accepted by :func:`parse_word`::

    WORD   := TERM+
    TERM   := FACTOR ("^" SIGNED_INT)?
    FACTOR := "1" | SYMBOL | "(" WORD ")" | "[" WORD "," WORD "]"
            | "{" WORD "," WORD "}"
    SYMBOL := letter followed by letters, digits or underscores

Juxtaposition or "*" denotes concatenation and whitespace is ignored.
"[a,b]" expands to a b a^-1 b^-1, "{a,b}" expands to a b a b^-1, and "1"
denotes the empty word.  A zero exponent is rejected, and so is a power,
a bracket or a whole word that would expand to more than
``MAX_POWER_LETTERS`` letters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from operator import is_
from typing import Iterable

from .errors import WordSyntaxError

# A letter is (generator index, sign) with sign +1 or -1.
Letter = tuple[int, int]

# Longest expansion one exponent, bracket or word may produce, so that
# "x^99999999999999", brackets nested thirty deep, or "(x^1000000)"
# repeated, are a syntax error instead of an attempt to build that many
# letters.
MAX_POWER_LETTERS = 10**6

# a flat word: ASCII names joined by "*", each with an optional exponent of 1-7 digits
_FLAT_WORD = re.compile(r"[A-Za-z]\w*(?:\^-?\d{1,7})?(?:\*[A-Za-z]\w*(?:\^-?\d{1,7})?)*", re.ASCII)


@dataclass(frozen=True)
class Alphabet:
    """Ordered, distinct generator names of the ambient free group."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if any(not n for n in names):
            raise ValueError("generator names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def without(self, drop: Iterable[str]) -> "Alphabet":
        gone = set(drop)
        return Alphabet(tuple(n for n in self.names if n not in gone))

    def __iter__(self):
        return iter(self.names)

    def __str__(self) -> str:
        return "(" + ",".join(self.names) + ")"


@dataclass(frozen=True)
class Word:
    """An unreduced sequence of signed letters over an ambient alphabet."""

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        letters = tuple((int(g), int(s)) for g, s in self.letters)
        object.__setattr__(self, "letters", letters)
        rank = self.alphabet.rank
        for g, s in letters:
            if not 0 <= g < rank:
                raise ValueError(f"letter index {g} outside alphabet {self.alphabet}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return word_to_str(self)


def _word(alphabet: Alphabet, letters: tuple[Letter, ...]) -> Word:
    """A word from letters known to be valid: int indices inside the
    alphabet and signs +1 or -1.  Skips ``Word``'s per-letter check, for
    the words this package builds out of valid ones."""
    word = object.__new__(Word)
    object.__setattr__(word, "alphabet", alphabet)
    object.__setattr__(word, "letters", letters)
    return word


def word_to_str(word: Word) -> str:
    """Render with "*" separators, collapsing runs into powers: x*y^-2."""
    names = word.alphabet.names
    return _render(_spell(word.letters, names, {}), word.letters, names)


def _spell(letters, names: tuple[str, ...], inverse: dict[int, str]) -> list[str]:
    """Each letter's token: its generator's name, or for an inverse letter
    name^-1, made once per generator and kept in ``inverse``, so equal
    letters get the same string object, also across calls sharing
    ``inverse``."""
    return [
        names[g] if s > 0 else inverse.get(g) or inverse.setdefault(g, names[g] + "^-1")
        for g, s in letters
    ]


def _render(tokens, letters, names: tuple[str, ...]) -> str:
    """The tokens of ``letters`` joined by "*", each run of one letter folded
    into a power.  A run is found by identity, since equal letters share one
    token object, and its power is read from its letters, not its tokens."""
    if not tokens:
        return "1"
    parts: list[str] = []
    done = 0  # tokens[:done] are in parts
    # each start where tokens[start] and tokens[start + 1] are one letter
    for start in compress(count(), map(is_, tokens, tokens[1:])):
        if start < done:  # inside the run just folded
            continue
        end = start + 2
        while end < len(tokens) and tokens[end] is tokens[start]:
            end += 1
        g, s = letters[start]
        parts += tokens[done:start]
        parts.append(f"{names[g]}^{s * (end - start)}")
        done = end
    parts += tokens[done:]
    return "*".join(parts)


class _Parser:
    """Recursive-descent parser for the word grammar.

    Letters are (generator index, sign) from the start: ``index`` maps each
    name to its index, the explicit alphabet's or, when the alphabet is
    inferred, the order of first appearance.
    """

    def __init__(self, text: str, alphabet: Alphabet | None):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet
        names = () if alphabet is None else alphabet.names
        self.index = {name: i for i, name in enumerate(names)}
        # greedy splitting of a symbol run tries the longest name first
        self.by_length = sorted(names, key=len, reverse=True)

    def fail(self, message: str, position: int | None = None):
        raise WordSyntaxError(message, self.pos if position is None else position)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Word:
        letters = self.word_body(stoppers="")
        if self.peek() != "":
            self.fail("unexpected trailing input")
        alphabet = self.alphabet
        if alphabet is None:
            alphabet = Alphabet(tuple(self.index))
        return _word(alphabet, tuple(letters))

    def word_body(self, stoppers: str) -> list[Letter]:
        out: list[Letter] = []
        saw_term = False
        while True:
            ch = self.peek()
            if ch == "" or ch in stoppers:
                break
            if ch == "*":
                self.pos += 1
                continue
            at = self.pos
            out.extend(self.term())
            if len(out) > MAX_POWER_LETTERS:
                self.fail(f"word expands past {MAX_POWER_LETTERS} letters", at)
            saw_term = True
        if not saw_term:
            self.fail('empty word (write "1" for the identity)')
        return out

    def term(self) -> list[Letter]:
        ch = self.peek()
        if ch.isalpha():
            # a run of juxtaposed generators; the exponent binds to the last
            gens = self.symbols()
            letters = [(g, 1) for g in gens[:-1]]
            tail = [(gens[-1], 1)]
            return letters + self._apply_exponent(tail)
        return self._apply_exponent(self.factor())

    def _apply_exponent(self, letters: list[Letter]) -> list[Letter]:
        if self.peek() != "^":
            return letters
        self.pos += 1
        at = self.pos
        exponent = self.signed_int()
        if exponent == 0:
            self.fail("zero exponent is not allowed", at)
        if len(letters) * abs(exponent) > MAX_POWER_LETTERS:
            self.fail(f"power expands past {MAX_POWER_LETTERS} letters", at)
        if exponent < 0:
            letters = [(g, -s) for g, s in reversed(letters)]
            exponent = -exponent
        return letters * exponent

    def factor(self) -> list[Letter]:
        ch = self.peek()
        if ch == "1":
            self.pos += 1
            return []
        if ch == "(":
            self.pos += 1
            body = self.word_body(stoppers=")")
            self.expect(")")
            return body
        if ch in "[{":
            closing = "]" if ch == "[" else "}"
            at = self.pos
            self.pos += 1
            left = self.word_body(stoppers=",")
            self.expect(",")
            right = self.word_body(stoppers=closing)
            self.expect(closing)
            if 2 * (len(left) + len(right)) > MAX_POWER_LETTERS:
                self.fail(f"bracket expands past {MAX_POWER_LETTERS} letters", at)
            left_inv = [(g, -s) for g, s in reversed(left)]
            right_inv = [(g, -s) for g, s in reversed(right)]
            if ch == "[":  # [a,b] -> a b a^-1 b^-1
                return left + right + left_inv + right_inv
            return left + right + left + right_inv  # {a,b} -> a b a b^-1
        self.fail("expected a generator symbol, '1', '(', '[' or '{'")

    def symbols(self) -> list[int]:
        """Read one maximal symbol run and resolve it to generator indices.

        Against an explicit alphabet the run is split greedily into known
        names, longest first (so "xy" over (x, y) means x*y); with an
        inferred alphabet the whole run is a single generator.
        """
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        run = self.text[start : self.pos]
        index = self.index
        if run in index:  # no longer name can be a prefix of the run
            return [index[run]]
        if self.alphabet is None:
            index[run] = len(index)
            return [index[run]]
        gens = []
        rest = run
        while rest:
            match = next((n for n in self.by_length if rest.startswith(n)), None)
            if match is None:
                self.fail(f"unknown generator {run!r}", start)
            gens.append(index[match])
            rest = rest[len(match) :]
        return gens

    def signed_int(self) -> int:
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.fail("expected an integer exponent", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past Python's limit on digits in int()
            self.fail("exponent has too many digits", start)


def parse_word(text: str, alphabet: Alphabet | None = None) -> Word:
    """Parse word text; returns the literal (unreduced) word.

    With an explicit alphabet every symbol must belong to it; otherwise
    the alphabet is inferred as the distinct symbols in order of first
    appearance.
    """
    if alphabet is None and _FLAT_WORD.fullmatch(text):
        # in one pass; a zero exponent or a word past the cap is left to _Parser
        index: dict[str, int] = {}
        letters: list[Letter] = []
        for name, _, power in (term.partition("^") for term in text.split("*")):
            exponent = int(power or 1)
            if not exponent or len(letters) + abs(exponent) > MAX_POWER_LETTERS:
                break
            g = index.setdefault(name, len(index))
            letters += [(g, 1)] * exponent if exponent > 0 else [(g, -1)] * -exponent
        else:
            return _word(Alphabet(tuple(index)), tuple(letters))
    return _Parser(text, alphabet).parse()


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    out: list[Letter] = []
    for g, s in word.letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    if len(out) == len(word.letters):
        return word
    return _word(word.alphabet, tuple(out))
