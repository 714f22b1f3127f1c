"""Shared test corpus and cached oracles.

The corpus spans every reduction shape: closed forms, squares, dismissible
letters, cascades where one rule creates work for another, and words with
general letters that survive into the residual alphabet.  Oracle
distributions are cached per (word, group) because several suites compare
against the same brute-force counts; built-in groups and tables are shared
by the library itself, ``class_total`` sums a distribution over the
group, and ``form_from_split`` is the claim of a split alone.  The word
moves the tests apply (``invert``, ``cyclic_shift``, ``concat``) live
here, and ``evaluate``, like ``python_distribution``, multiplies letter
by letter without the kernels.
"""

from itertools import product

from wordfourier import (
    ReducedForm,
    builtin_group,
    builtin_table,
    distribution,
    normalize,
    parse_word,
    project,
)
from wordfourier.reduction import _split_step
from wordfourier.words import Alphabet, Word

ORDERS = {
    "Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "Z7": 7,
    "Z8": 8, "Z9": 9, "Z10": 10, "Z11": 11, "Z12": 12,
    "S3": 6, "S4": 24, "D4": 8, "D5": 10, "Q8": 8, "A4": 12,
}

# (id, text, alphabet names); ranks stay small enough for exact oracles
CORPUS = (
    ("empty", "1", ()),
    ("single", "x", ("x",)),
    ("pair-rank2", "xy", ("x", "y")),
    ("pair-rank3", "xy", ("x", "y", "z")),
    ("square", "x^2", ("x",)),
    ("cube", "x^3", ("x",)),
    ("commutator", "[x,y]", ("x", "y")),
    ("comm-product", "[x1,x2][x3,x4]", ("x1", "x2", "x3", "x4")),
    ("brace", "{x,y}", ("x", "y")),
    ("conjugate-loop", "a*y*b*y^-1", ("a", "b", "y")),
    ("conjugate-loop2", "(a*b)*y*(b*a^-1)*y^-1", ("a", "b", "y")),
    ("tambour3", "y1*y2*y3*y1^-1*y2^-1*y3^-1", ("y1", "y2", "y3")),
    ("tambour4", "y1*y2*y3*y4*y1^-1*y2^-1*y3^-1*y4^-1", ("y1", "y2", "y3", "y4")),
    ("admissible-scramble", "y1*y2*y1^-1*y3*y2^-1*y3^-1", ("y1", "y2", "y3")),
    (
        "intro",
        "x1*y1*x1*x2*y3*x2*x1*y1^-1*x1^3*y2*x3^-1*y3^-1*x3^2*y2^-1*x3",
        ("x1", "x2", "x3", "y1", "y2", "y3"),
    ),
    ("nonnested-squares", "a*x*b*x*y*a*y*b", ("a", "b", "x", "y")),
    ("nested-squares", "a*x*b*y*x*a*y*b", ("a", "b", "x", "y")),
    ("mixed-square-dismissible", "a*x*b*y*x^-1*a*y*b", ("a", "b", "x", "y")),
    ("general-square", "x^2*y*x^-1*y", ("x", "y")),
    ("nested-commutator", "[[x,y],z]", ("x", "y", "z")),
    ("quartic-bracket", "[a,b]*d*[a,c]*d^-1", ("a", "b", "c", "d")),
    ("quartic-brace", "{a,b}*d*{a,c}*d^-1", ("a", "b", "c", "d")),
)

CORPUS_BY_ID = {entry[0]: entry for entry in CORPUS}

# keeps the full corpus-x-groups oracle sweep at desk scale
MASTER_CAP = 400_000

_dist_cache: dict[tuple, object] = {}


def corpus_word(word_id):
    _, text, names = CORPUS_BY_ID[word_id]
    return parse_word(text, Alphabet(tuple(names)))


def group_and_table(name):
    group = builtin_group(name)
    return group, builtin_table(group)


def oracle_distribution(word, group_name, budget=MASTER_CAP + 1):
    key = (word.alphabet.names, word.letters, group_name)
    if key not in _dist_cache:
        group, table = group_and_table(group_name)
        _dist_cache[key] = distribution(
            word, group, classes=table.classes, budget=budget
        )
    return _dist_cache[key]


def oracle_coefficients(word, group_name):
    _, table = group_and_table(group_name)
    return project(oracle_distribution(word, group_name), table)


def master_pairs(cap=MASTER_CAP):
    """(word_id, group_name) pairs whose exact oracle fits the cap."""
    pairs = []
    for word_id, _, names in CORPUS:
        for group_name, order in ORDERS.items():
            if order ** len(names) <= cap:
                pairs.append((word_id, group_name))
    return pairs


def python_distribution(word, group):
    """Dict-and-loop reference oracle, independent of the numpy kernels."""
    counts = [0] * group.order
    rank = word.alphabet.rank
    mul, inv = group.mul.tolist(), group.inv.tolist()
    for assigned in product(range(group.order), repeat=rank):
        acc = group.identity
        for g, s in word.letters:
            x = assigned[g]
            if s < 0:
                x = inv[x]
            acc = mul[acc][x]
        counts[acc] += 1
    return counts


def form_from_split(split):
    """Claim obtained by eliminating the split's dismissible letters alone,
    with the split step :func:`normalize` records."""
    return ReducedForm(
        trivial_only=False,
        residual_alphabet=split.residual_alphabet,
        residual_words=split.split_words,
        trace=(_split_step(split),),
        word=split.word,
        split=split,
    )


def class_total(function):
    """Sum of a class function over the group: each class's value times
    the class size (for a distribution, every assignment it counts)."""
    sizes = function.classes.sizes
    return sum(size * int(value) for size, value in zip(sizes, function.values))


def invert(word):
    """Reverse the letter sequence and flip every sign."""
    return Word(word.alphabet, tuple((g, -s) for g, s in reversed(word.letters)))


def cyclic_shift(word, k):
    """Rotate the letters left by k (mod length); empty words are fixed."""
    if not word.letters:
        return word
    k %= len(word.letters)
    if k == 0:
        return word
    return Word(word.alphabet, word.letters[k:] + word.letters[:k])


def concat(first, second):
    if first.alphabet != second.alphabet:
        raise ValueError(
            f"cannot concatenate words over {first.alphabet} and {second.alphabet}"
        )
    return Word(first.alphabet, first.letters + second.letters)


def evaluate(word, assignment, group):
    """Left-to-right product of the assigned elements in the group.

    The assignment maps every generator name of the word's alphabet to an
    element index of ``group``.  The empty word evaluates to the identity.
    """
    values = [assignment[name] for name in word.alphabet.names]
    acc = group.identity
    for g, s in word.letters:
        x = values[g]
        if s < 0:
            x = group.inv[x]
        acc = group.mul[acc, x]
    return int(acc)


def random_word(rng, alphabet, length):
    letters = tuple(
        (int(rng.integers(alphabet.rank)), int(rng.choice((1, -1))))
        for _ in range(length)
    )
    return Word(alphabet, letters)


def split_tambour(n):
    """Split of y1..yn * y1^-1..yn^-1: r = 1 for even n, r = 2 for odd n > 1.

    Returns (r, form).  n = 1 collapses to the empty word by free reduction
    before any split happens; the form then has the single empty residual
    word.
    """
    alphabet = Alphabet(tuple(f"y{i + 1}" for i in range(n)))
    letters = tuple((i, 1) for i in range(n)) + tuple((i, -1) for i in range(n))
    form = normalize(Word(alphabet, letters))
    return len(form.residual_words), form
