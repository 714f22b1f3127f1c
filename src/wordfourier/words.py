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

Juxtaposition or "*" denotes concatenation, and a leading, trailing or
doubled "*" is allowed.  A letter is a Unicode letter.  SIGNED_INT is an
optional "+" or "-" and decimal digits, with no whitespace between the
sign and the digits; whitespace is ignored everywhere else, "^" included.
"[a,b]" expands to a b a^-1 b^-1, "{a,b}" expands to a b a b^-1, and "1"
denotes the empty word.  A zero exponent is rejected, and so is a power,
a bracket or a whole word that would expand to more than
``MAX_POWER_LETTERS`` letters, and an exponent of more digits than
``sys.int_info.default_max_str_digits``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import is_

from .errors import WordSyntaxError

# A letter is (generator index, sign) with sign +1 or -1.
Letter = tuple[int, int]

# Longest expansion one exponent, bracket or word may produce, so that
# "x^99999999999999", brackets nested thirty deep, or "(x^1000000)"
# repeated, are a syntax error instead of an attempt to build that many
# letters.
MAX_POWER_LETTERS = 10**6

# One token of word text: a run of word characters that starts with
# neither a decimal digit nor "_", "1", or a closing bracket, each with the
# "^" and signed integer after it if there is one; or any other character
# but whitespace and "*", which fall between tokens.  An integer may have
# whitespace before its sign but none after it; a "^" with no integer
# after it is kept, so that the error lands just past it.
_TOKEN = re.compile(r"(?:[^\W\d_]\w*|1|[)\]}])(?:\s*\^\s*[+-]?\d*)?|[^\s*]")


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


def _alphabet(names: tuple[str, ...]) -> Alphabet:
    """An alphabet of names known to be distinct and non-empty, such as
    some of a valid alphabet's.  Skips ``Alphabet``'s checks."""
    alphabet = object.__new__(Alphabet)
    object.__setattr__(alphabet, "names", names)
    return alphabet


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


_CLOSING = {"(": ")", "[": "]", "{": "}"}


class _Parser:
    """Recursive descent over the tokens of one text, which
    ``_TOKEN.findall`` reads in one pass.  Every nested body reads on from
    the one ``tokens`` iterator of (number, token) pairs.  A token's offset
    in the text is worked out again only to report an error.

    Letters are (generator index, sign) from the start: ``index`` maps each
    name to its index, the explicit alphabet's or, when the alphabet is
    inferred, the order of first appearance.
    """

    def __init__(self, text: str, alphabet: Alphabet | None):
        self.text = text
        self.tokens = enumerate(_TOKEN.findall(text))
        self.alphabet = alphabet
        self.index = {}
        if alphabet is not None:
            # the names a token can be: a symbol run starts with a letter and has no "^"
            names = enumerate(alphabet.names)
            self.index = {n: i for i, n in names if n[0].isalpha() and "^" not in n}

    def fail(self, message: str, k: int | None = None, past_caret: bool = False):
        """Raise at token ``k``, or just past its "^" if ``past_caret``;
        with ``k`` None, at the end of the text."""
        position = len(self.text)
        if k is not None:
            match = next(islice(_TOKEN.finditer(self.text), k, None))
            position = match.start()
            if past_caret:
                position += match.group().index("^") + 1
        raise WordSyntaxError(message, position)

    def parse(self) -> Word:
        letters = self.body(None)[0]
        return _word(self.alphabet or Alphabet(tuple(self.index)), tuple(letters))

    def body(self, stop: str | None) -> tuple:
        """The letters of the terms up to the token ``stop``, or to the end
        of the text for None, with that token's number, "^" and digits."""
        out: list[Letter] = []
        saw_term = False  # a term may spell no letters: "1"
        index = self.index
        inferred = self.alphabet is None
        cap = MAX_POWER_LETTERS
        for k, token in self.tokens:
            name, caret, digits = token.partition("^")
            g = index.get(name)
            if g is None:
                name = name.rstrip()  # any whitespace before "^"
                if inferred and name[:1].isalpha():  # a new name, or one before whitespace
                    g = index.setdefault(name, len(index))
            if g is None:
                if name == stop:
                    break
                out += self.term(name, k, caret, digits)
                saw_term = True
            elif digits == "-1":  # an inverse letter, as word_to_str writes it
                out.append((g, -1))
            elif caret:
                out += _power([(g, 1)], self.exponent(k, digits, 1))
            else:
                out.append((g, 1))
            if len(out) > cap:
                self.fail(f"word expands past {cap} letters", k)
        else:  # the end of the text
            k = caret = digits = None
        if not (saw_term or out):
            self.fail('empty word (write "1" for the identity)', k)
        if k is None and stop:
            self.fail(f"expected {stop!r}")
        return out, k, caret, digits

    def term(self, head: str, k: int, caret: str, digits: str) -> list[Letter]:
        """The letters of token ``k``, a term other than one name and its
        exponent: "1", a bracket, or a symbol run over an explicit alphabet."""
        if head in _CLOSING:
            return self.group(head, k)
        if head[:1].isalpha():  # the exponent binds to the last name
            gens = self.symbols(head, k)
            letters = [(g, 1) for g in gens[:-1]]
            tail = [(gens[-1], 1)]
        elif head == "1":
            letters = tail = []
        else:
            self.fail("expected a generator symbol, '1', '(', '[' or '{'", k)
        if caret:
            tail = _power(tail, self.exponent(k, digits, len(tail)))
        return letters + tail

    def group(self, opening: str, k: int) -> list[Letter]:
        """The letters of "(w)", "[a,b]" or "{a,b}" opened by token ``k``,
        with the exponent on its closing bracket."""
        if opening == "(":
            letters, end, caret, digits = self.body(")")
        else:
            left = self.body(",")[0]
            right, end, caret, digits = self.body(_CLOSING[opening])
            if 2 * (len(left) + len(right)) > MAX_POWER_LETTERS:
                self.fail(f"bracket expands past {MAX_POWER_LETTERS} letters", k)
            if opening == "[":  # [a,b] -> a b a^-1 b^-1
                letters = left + right + _power(left, -1) + _power(right, -1)
            else:  # {a,b} -> a b a b^-1
                letters = left + right + left + _power(right, -1)
        if caret:
            letters = _power(letters, self.exponent(end, digits, len(letters)))
        return letters

    def exponent(self, k: int, digits: str, length: int) -> int:
        """The exponent ``digits`` of token ``k``, on a term of ``length`` letters.

        The errors depend on the digits alone, not on the interpreter's
        limit on digits in ``int()`` (``PYTHONINTMAXSTRDIGITS``): more
        digits than that limit's default are too many, and ``int()`` reads
        at most as many significant digits as ``MAX_POWER_LETTERS`` has.
        Any more stand for ``MAX_POWER_LETTERS + 1``, past the cap on a term
        of one letter or more; a power of an empty term is empty.
        """
        number = digits.lstrip().lstrip("+-")  # whitespace may come before the sign
        width = len(str(MAX_POWER_LETTERS))
        if len(number) > width:
            if len(number) > sys.int_info.default_max_str_digits:
                self.fail("exponent has too many digits", k, past_caret=True)
            # drop leading zeros, of any script int() reads
            number = number[next((i for i, c in enumerate(number) if int(c)), -1) :]
        elif not number:
            self.fail("expected an integer exponent", k, past_caret=True)
        exponent = int(number) if len(number) <= width else MAX_POWER_LETTERS + 1
        if not exponent:
            self.fail("zero exponent is not allowed", k, past_caret=True)
        if length * exponent > MAX_POWER_LETTERS:
            self.fail(f"power expands past {MAX_POWER_LETTERS} letters", k, past_caret=True)
        return -exponent if "-" in digits else exponent

    def symbols(self, run: str, k: int) -> list[int]:
        """Split the symbol run of token ``k`` greedily into names of the
        explicit alphabet, longest first (so "xy" over (x, y) means x*y).
        With an inferred alphabet a whole run is one name, which ``body``
        reads itself."""
        names = self.alphabet.names
        by_length = sorted(names, key=len, reverse=True)
        gens = []
        rest = run
        while rest:
            match = next((n for n in by_length if rest.startswith(n)), None)
            if match is None:
                self.fail(f"unknown generator {run!r}", k)
            gens.append(names.index(match))
            rest = rest[len(match) :]
        return gens


def _inverse(letters) -> list[Letter]:
    """The letters of the inverse word: reversed, each sign flipped."""
    return [(g, -s) for g, s in reversed(letters)]


def _power(letters: list[Letter], exponent: int) -> list[Letter]:
    """``letters`` repeated ``exponent`` times, inverted if it is negative."""
    if exponent > 0:
        return letters * exponent
    return _inverse(letters) * -exponent


def parse_word(text: str, alphabet: Alphabet | None = None) -> Word:
    """Parse word text; returns the literal (unreduced) word.

    With an explicit alphabet every symbol must belong to it; otherwise
    the alphabet is inferred as the distinct symbols in order of first
    appearance.
    """
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
