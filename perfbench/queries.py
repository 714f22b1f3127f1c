"""Seeded query lists for the three benchmark workloads.

A query is the argv the CLI receives plus what the checker needs to know
the right answer: the reference kind ("surface" for words in which every
letter occurs exactly twice, "oracle" otherwise), the flat letter list
for the surface reference, and the group.  Nothing here imports the
program, so the lists depend on the seed alone.

Sizes are fixed per slot and only the letters are drawn from the seed, so
every seed gives the same mix of costs.  The slot counts are chosen so
that the median of a pass falls well inside one cost class rather than
on a boundary between two.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

# letters are (name, sign) pairs
Letters = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    reference: str  # "surface" or "oracle"
    group: str | None = None
    letters: Letters | None = None  # flat word, for the surface reference

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def word(self) -> str:
        return self.argv[1]


def word_text(letters: Letters) -> str:
    return "*".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


def _flat(spec: str) -> Letters:
    """"x1 x2 x1' x2'" -> ((x1,1),(x2,1),(x1,-1),(x2,-1)); ' marks an inverse."""
    return tuple((t.rstrip("'"), -1 if t.endswith("'") else 1) for t in spec.split())


# Corpus words (tests/corpus.py) whose every letter occurs twice, with the
# letters spelled out so the surface reference does not lean on the parser.
SURFACE_CORPUS = (
    ("[x1,x2][x3,x4]", _flat("x1 x2 x1' x2' x3 x4 x3' x4'")),
    ("y1*y2*y3*y4*y1^-1*y2^-1*y3^-1*y4^-1", _flat("y1 y2 y3 y4 y1' y2' y3' y4'")),
    ("a*x*b*x*y*a*y*b", _flat("a x b x y a y b")),
    ("a*x*b*y*x*a*y*b", _flat("a x b y x a y b")),
    ("a*x*b*y*x^-1*a*y*b", _flat("a x b y x' a y b")),
)

INTRO = "x1*y1*x1*x2*y3*x2*x1*y1^-1*x1^3*y2*x3^-1*y3^-1*x3^2*y2^-1*x3"

# Words whose general letters survive into the residual alphabet, and
# the groups they run over; the intro word's 24^6 oracle check over S4
# would take half a minute, so it skips S4.
RESIDUAL_GROUPS = ("S4", "A4", "D5", "Q8")
RESIDUAL_FIXED = (
    ("[[x,y],[z,w]]", RESIDUAL_GROUPS),
    ("[[x,y],z]", RESIDUAL_GROUPS),
    ("(x*y)^3", RESIDUAL_GROUPS),
    ("[x,y]^2", RESIDUAL_GROUPS),
    ("x^3*y^3", RESIDUAL_GROUPS),
    ("[a,b]*d*[a,c]*d^-1", RESIDUAL_GROUPS),
    (INTRO, ("A4", "D5", "Q8")),
)
RESIDUAL_RANKS = {"S4": 4, "A4": 5, "D5": 5, "Q8": 6}  # ambient rank of seeded words
# Seeded words per (group, letters occurring three times).  Only three
# general letters over S4 enumerate enough to show, so that slot gets nine
# words, so that formula work outweighs the CLI's own time.
RESIDUAL_SEEDED = {
    (group, general): 9 if (group, general) == ("S4", 3) else 3
    for group in RESIDUAL_GROUPS
    for general in (1, 2, 3)
}

# Built-in groups and their orders; the short --verify words visit all.
GROUP_ORDERS = {
    **{f"Z{n}": n for n in range(1, 13)},
    "S3": 6, "S4": 24, "D4": 8, "D5": 10, "Q8": 8, "A4": 12,
}
SHORT_SPACE_CAP = 20_000  # |G|^d of a short --verify query
SHORT_RANK_CAP = 4
SHORT_LENGTHS = (8, 12)
# Vertex count of the long expand words' surface.  The divisor search walks
# sqrt(|G| * chi(1)^b) candidates with b = 2 - chi = n - V + 1, so a free V
# would move a query's cost by sqrt(chi(1)) per vertex from one seed to the
# next; 2 is the most common V at 40 generators.
LONG_EXPAND_VERTICES = 2


def _cyclically_reduced(letters: Letters) -> bool:
    return all(
        not (letters[i][0] == letters[i - 1][0] and letters[i][1] == -letters[i - 1][1])
        for i in range(len(letters))
    )


def surface(letters) -> tuple[int, int, bool]:
    """(V, Euler characteristic, orientable) of the polygon glued along ``letters``.

    Edge i runs from corner i to corner i+1, reversed for an inverse
    letter; the two edges of a letter are glued tail to tail and head to
    head.
    """
    m = len(letters)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges: dict[str, list[tuple[int, int, int]]] = {}
    for i, (name, sign) in enumerate(letters):
        tail, head = (i, (i + 1) % m) if sign > 0 else ((i + 1) % m, i)
        edges.setdefault(name, []).append((tail, head, sign))
    for name, pair in edges.items():
        if len(pair) != 2:
            raise ValueError(f"letter {name!r} occurs {len(pair)} times, not twice")
        (t1, h1, _), (t2, h2, _) = pair
        parent[find(t1)] = find(t2)
        parent[find(h1)] = find(h2)
    vertices = len({find(i) for i in range(m)})
    orientable = all(s1 != s2 for (_, _, s1), (_, _, s2) in edges.values())
    return vertices, vertices - len(edges) + 1, orientable


def two_occurrence_word(rng: random.Random, n: int, vertices: int | None = None) -> Letters:
    """A cyclically reduced word in which each of n letters occurs twice.

    Half the letters (rounded down) are dismissible and the rest squares,
    half of them inverted, so every word of a given n has the same number
    of inverse letters and the same oracle cost.  With ``vertices`` set,
    the glued polygon has that many vertices, which fixes the surface and
    so the closed form's exponents.
    """
    dismissible = n // 2
    squares = n - dismissible
    patterns = (
        [(1, -1)] * dismissible
        + [(1, 1)] * (squares - squares // 2)
        + [(-1, -1)] * (squares // 2)
    )
    rng.shuffle(patterns)
    names = [f"x{i + 1}" for i in range(n)]
    while True:
        slots = [g for g in range(n) for _ in (0, 1)]
        rng.shuffle(slots)
        seen = [0] * n
        letters = []
        for g in slots:
            letters.append((names[g], patterns[g][seen[g]]))
            seen[g] += 1
        letters = tuple(letters)
        if _cyclically_reduced(letters) and vertices in (None, surface(letters)[0]):
            return letters


def residual_word(rng: random.Random, general: int, rank: int) -> Letters:
    """A word with ``general`` letters occurring three times and rank - general
    dismissible letters.

    Each general letter keeps one sign, and the dismissible split moves
    segments without inverting them, so no general letter can cancel: the
    residual alphabet has exactly ``general`` letters for every seed.
    """
    pool = []
    for g in range(rank):
        name = f"x{g + 1}"
        if g < general:
            pool.extend([(name, rng.choice((1, -1)))] * 3)
        else:
            pool.extend([(name, 1), (name, -1)])
    while True:
        rng.shuffle(pool)
        letters = tuple(pool)
        if _cyclically_reduced(letters):
            return letters


def short_word(rng: random.Random, rank: int, length: int) -> Letters:
    """A random word of the given length that uses all rank letters."""
    gens = list(range(rank)) + [rng.randrange(rank) for _ in range(length - rank)]
    rng.shuffle(gens)
    return tuple((f"x{g + 1}", rng.choice((1, -1))) for g in gens)


def _expand(word: str, group: str, verify: bool) -> tuple[str, ...]:
    argv = ("expand", word, "--group", group, "--format", "json")
    return argv + ("--verify",) if verify else argv


def _surface_expand(letters: Letters, group: str, verify: bool) -> Query:
    return Query(_expand(word_text(letters), group, verify), "surface", group, letters)


def oracle_enum(rng: random.Random) -> list[Query]:
    """expand --verify on words that normalize to closed forms.

    Per pass: 24 queries of 24^4 assignments (the five corpus words and
    19 seeded), 12 of 10^6 (D5), 3 of 12^6 (A4) and 1 of 24^5 (S4).  The
    median lands among the 24^4 queries and the tail (p95 of the sends at
    five passes) among the A4 ones.
    """
    corpus = [
        Query(_expand(text, "S4", True), "surface", "S4", letters)
        for text, letters in SURFACE_CORPUS
    ]
    sizes = [("S4", 4)] * 19 + [("D5", 6)] * 12 + [("A4", 6)] * 3 + [("S4", 5)]
    seeded = [
        _surface_expand(two_occurrence_word(rng, rank), group, True)
        for group, rank in sizes
    ]
    rng.shuffle(seeded)
    return corpus + seeded


def formula_residual(rng: random.Random) -> list[Query]:
    """expand without --verify on words with general letters.

    The fixed words come first; [[x,y],[z,w]] over S4 is the heaviest
    query.  Seeded words stay at |G|^d of a few 10^5, which keeps the
    check's oracle cheap.
    """
    fixed = [
        Query(_expand(word, group, False), "oracle", group)
        for word, groups in RESIDUAL_FIXED
        for group in groups
    ]
    seeded = [
        Query(_expand(word_text(residual_word(rng, general, RESIDUAL_RANKS[group])),
                      group, False), "oracle", group)
        for (group, general), count in RESIDUAL_SEEDED.items()
        for _ in range(count)
    ]
    rng.shuffle(seeded)
    return fixed + seeded


def symbolic_mix(rng: random.Random) -> list[Query]:
    """Interleaved reduce, long expand and short expand --verify queries.

    Per pass: reduce on two-occurrence words of 40, 100, six of 200 and
    four of 400 letters; expand on two-occurrence words with 36 and 40
    generators and LONG_EXPAND_VERTICES vertices, where the
    rational-annotation divisor search costs about
    sqrt(|G| * chi(1)^(n - V + 1)); and two short --verify words per built-in group
    plus the commutator over S3.  The median lands among the short
    queries.
    """
    reduce = []
    for n in (20, 50) + (100,) * 6 + (200,) * 4:
        letters = two_occurrence_word(rng, n)
        argv = ("reduce", word_text(letters), "--format", "json")
        reduce.append(Query(argv, "surface", None, letters))
    long_expand = [
        _surface_expand(two_occurrence_word(rng, n, LONG_EXPAND_VERTICES), group, False)
        for group, n in (("S3", 40), ("Q8", 40), ("S3", 36))
    ]
    short = [Query(_expand("[x,y]", "S3", True), "oracle", "S3")]
    for group, order in GROUP_ORDERS.items():
        rank = SHORT_RANK_CAP
        while rank > 1 and order**rank > SHORT_SPACE_CAP:
            rank -= 1
        for length in SHORT_LENGTHS:
            letters = short_word(rng, rank, length)
            short.append(Query(_expand(word_text(letters), group, True), "oracle", group))
    rng.shuffle(short)
    return _interleave(reduce, long_expand, short)


def _interleave(*lists):
    out = []
    for i in range(max(len(x) for x in lists)):
        out.extend(x[i] for x in lists if i < len(x))
    return out


# Wall time of one untraced pass of each workload, measured at the commit
# that defined the benchmark on a 2-vCPU host.  A run's pass count follows
# from these and --seconds alone, so a faster or slower program is measured
# over the same number of sends, and its run takes shorter or longer.
PASS_SECONDS = {
    "oracle-enum": 5.6,
    "formula-residual": 0.65,
    "symbolic-mix": 2.0,
}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


# How a query's sends over the passes reduce to its latency.  On the
# 2-vCPU host above, the Python-bound queries of formula-residual and
# symbolic-mix slow by up to 1.8x in spells of about a second, and their
# fastest send (the convention of timeit) is the steadiest figure over 15
# or more passes.  The numpy enumerations of oracle-enum vary from send to
# send with no such floor, and five sends leave their fastest one noisy;
# their median send is steadier.  perfbench/README.md gives the spreads.
LATENCY_OF_SENDS = {
    "oracle-enum": statistics.median,
    "formula-residual": min,
    "symbolic-mix": min,
}


_BUILDERS = {
    "oracle-enum": oracle_enum,
    "formula-residual": formula_residual,
    "symbolic-mix": symbolic_mix,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[Query]:
    """The query list of one pass of a workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
