"""Byte-stable JSON output of reduce, classify, genus and expand.

Each command runs with ``--format json`` on every corpus word (over its
corpus alphabet) and on the tambour words y1..yn*y1^-1..yn^-1 of
``corpus.split_tambour``; expand runs, with and without ``--verify``, once
per word on each of ``EXPAND_GROUPS``.  Separate digests
(``EXPECTED_LONG``) pin reduce, classify and genus on seeded long words
in which every letter occurs twice (``long_words``), where the square
steps cascade.  A run's record is its exit code and stdout; genus prints
only for admissible words, so for the others the record is the exit code
alone.  The records of one command, in run order, hash to one SHA-256
digest.  The reduce, classify and genus JSON holds no
floats.  Of expand's JSON only the exact fields are kept: the header and,
per row, ``EXPAND_ROW_FIELDS``; the float coefficients, oracle values and
deltas are left out.  So the digests do not depend on the platform.  Each
run also keeps an 8-digit fingerprint, so that a changed digest names the
first run whose output differs.

To record new digests after an intended change of output, run
``PYTHONPATH=src python tests/test_symbolic_output.py`` from the repo root.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from wordfourier.cli import main

from corpus import CORPUS

TAMBOUR_SIZES = range(1, 7)
EXPAND_GROUPS = ("S3", "Q8", "A4", "D5", "Z5")
EXPAND_ROW_FIELDS = ("chi", "degree", "fs", "display", "rational")

# command -> (SHA-256 over all records, fingerprint of each run's record)
EXPECTED = {
    "reduce": (
        "068aa21ea0266b2b988bc1b074b874128e46900bb53ec8b56b10dda3c912095f",
        "d1807c7f 963b670c 6bed4714 f1b257ab 79ce61dd 6c61e3e7 7daa83f9 "
        "233de6a0 b1c125b1 4ec0b95f eb5765a2 a20d8e7a cd29d8f0 dde1d66e "
        "f1826d90 b9de3721 914f14ab cf40d843 d6cd4c64 11b505ca ba8cfc68 "
        "a0b38306 18049c12 5900765a a20d8e7a cd29d8f0 6a0849c8 a9a0a15b",
    ),
    "classify": (
        "df1e82704d2040b1d1bd11230e19464513c02e733865d8c8af7ee7fc4764dc3b",
        "dd836f62 b2842b25 059af3a4 397eeea5 a178cde2 8fa3572b bb9d122c "
        "07bd328a f4f4022b 3b9f517e d2d97bc7 7d0b93ea eabd8ff4 13fe8327 "
        "40ff7eae e6ac0221 186250ce 8fa10b5b eb253946 382e1b02 c3e7ae86 "
        "a6973ec8 7594093d 7df50ad1 7d0b93ea eabd8ff4 77c1d0f0 2045d99f",
    ),
    "expand": (
        "e7e3709f4aa01f01226b2c81aeaf295c7673325b3b3e2d10ad76611f7e1aaf91",
        "ba49c3f7 bcef24ef 6ef367f3 5c38267a 9797a9a3 b253cda6 c4e6bcaa "
        "23eb7eda a83a5540 55261f16 7da213ab f400977c 93562138 89e82a9a "
        "afc6c93e e78fa99c 9ef3f830 29afa677 5f805b6c aadf13d7 e68dcd50 "
        "8da4e349 7b459d36 b9313d9a 9d1628b0 9c52ed67 b6fe6753 90678d10 "
        "d06c2ebf 76db26d2 0a270042 97dc1482 315e38ca 0cda67ae db3178a9 "
        "2e6deaaa aa067cd9 a628000d 52367150 671b7f43 1d82e95c ef7b86c1 "
        "7d38c254 2395eed1 e845a9fa a22f21dd 2053fee3 def7b3dc 1879e0fa "
        "62ba4e28 e8a96355 52d0dd68 9d2f4d3e 2e292041 f51639e7 4c1c9814 "
        "3e16b565 94e74d57 e54a9efa dda2aa6c 8e04c5a4 88f87343 2380e0f1 "
        "780da295 2140fe0e f0ba0425 61fa4305 543cfbb2 023eafa0 27cf444a "
        "1d1dfed5 b519cac6 c07f3985 ed7acb5e 50124d62 2d61f862 0926407a "
        "86e595be fdf2cb1d 65990cce 58df27ce 1e935983 6fdfa225 20874f7f "
        "3ab80d53 72cd5a82 27190ecb 3b9e0f67 e971b369 d47af87b 805e2bd5 "
        "c2a5aab3 176fb382 0764a673 ca2220ca e1c9ba9f 9d25ec12 0891773c "
        "425f35db 8fe9ed21 036ddd97 e867a98b 21950eeb 7099b4f4 a83704c0 "
        "cb41dcbb 0d62637d 272eb4fe 735cec84 5dfc591a e4e87a75 2cc57db1 "
        "fdf23522 2802dced f458638d d9216b02 65d3bfc6 2b12ea9a 765b778d "
        "2f066172 4c1c9814 3e16b565 94e74d57 e54a9efa dda2aa6c 8e04c5a4 "
        "88f87343 2380e0f1 780da295 2140fe0e 739d5829 d751036b 04978ac5 "
        "95b90184 81b931f5 ecc6d86c 63db6635 1c3f1be4 c9269988 1c2d9be2",
    ),
    "genus": (
        "e8f7febc95d98b9c8230e59c6bcabd1c8d6c1ae53125cf3552d24989c64b91f5",
        "4355a46b 4355a46b 4355a46b 4355a46b 4355a46b 4355a46b 850b76db "
        "9b8079ca 4355a46b 4355a46b 4355a46b bf20994c ce097f26 8471b614 "
        "4355a46b 4355a46b 4355a46b 19cd0b26 4355a46b 4355a46b 4355a46b "
        "4355a46b 4355a46b 886edbf6 bf20994c ce097f26 d542c78f 39bc1aa9",
    ),
}
# the same for the long words
EXPECTED_LONG = {
    "reduce": (
        "57b1a48819c23107a90ebdafd889c6aac45eaba1f7ca3a8f96eb5038b5a39dea",
        "90563074 ac0d8485 7c44ad17 904f07dc 3d9e80b2 e4171bfd bc860c9d "
        "eb3fd441 50729a1e 47aa1142 f93c5ed8 1d22be2b",
    ),
    "classify": (
        "1f06c1737efa1a677d67fe50d61ff6f1a6c0bff49c579e9e2f006ad83ddacf9d",
        "b5b5b2fb 449534f1 014f463d d205cfd2 37db4242 b4f2da83 24f0986a "
        "13f39a0d 3aebdebd 59cd4233 5cfe7505 e7ebafe3",
    ),
    "genus": (
        "558a0bba7e1ec7690807970f2bf527ef28c4762fe581fa5e8d665007df41afb3",
        "31d91ea4 4355a46b 2d4d79be c4d5c70d c37b8421 4355a46b 86a89b89 "
        "db041ddf 4355a46b 98a60a73 4355a46b 4355a46b",
    ),
}
# --verify adds only floats to expand's JSON, so its records differ from
# plain expand's only if an exit code does
EXPECTED["expand --verify"] = EXPECTED["expand"]


# generators of the long words: 40, 100, 200 and 400 letters
LONG_SIZES = (20, 50, 100, 200)
LONG_WORDS_PER_SIZE = 3


def two_occurrence_text(rng, n, orientable):
    """Word text in which each of n letters occurs twice.

    An orientable word has only dismissible letters, so it splits at once.
    Otherwise each letter draws its sign pattern, so squares, dismissible
    letters, cancelling neighbours and non-reduced input all occur, and
    the square steps cascade.
    """
    slots = [g for g in range(n) for _ in (0, 1)]
    rng.shuffle(slots)
    choices = ((1, -1), (-1, 1)) if orientable else ((1, -1), (-1, 1), (1, 1), (-1, -1))
    patterns = [rng.choice(choices) for _ in range(n)]
    seen = [0] * n
    parts = []
    for g in slots:
        sign = patterns[g][seen[g]]
        seen[g] += 1
        parts.append(f"x{g + 1}" if sign > 0 else f"x{g + 1}^-1")
    return "*".join(parts)


def long_words():
    """(label, word argv) of the seeded long words, in order."""
    for n in LONG_SIZES:
        rng = random.Random(f"long:{n}")
        for i in range(LONG_WORDS_PER_SIZE):
            text = two_occurrence_text(rng, n, orientable=i == 0)
            yield f"long{2 * n}/{i}", (text,)


def words():
    """(label, word argv) for every word the digests cover, in order."""
    for word_id, text, names in CORPUS:
        yield word_id, (text, "--alphabet", ",".join(names)) if names else (text,)
    for n in TAMBOUR_SIZES:
        ys = [f"y{i + 1}" for i in range(n)]
        yield f"tambour{n}", ("*".join(ys + [f"{y}^-1" for y in ys]),)


def runs(command, source=words):
    """(label, argv) of every run one command's digest covers, in order."""
    name, *flags = command.split()
    for label, word_argv in source():
        if name != "expand":
            yield label, (name, *word_argv, *flags)
            continue
        for group in EXPAND_GROUPS:
            yield f"{label}/{group}", (name, *word_argv, "--group", group, *flags)


def exact_fields(text):
    """expand's JSON without its floats: the header and the exact row fields."""
    doc = json.loads(text)
    doc.pop("max_delta", None)
    doc["rows"] = [{key: row[key] for key in EXPAND_ROW_FIELDS} for row in doc["rows"]]
    return json.dumps(doc, sort_keys=True) + "\n"


def records(command, source=words):
    """(label, record bytes) of every run of one command."""
    out = []
    for label, argv in runs(command, source):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", "json"])
        text = stdout.getvalue()
        if text and argv[0] == "expand":
            text = exact_fields(text)
        out.append((label, f"{code}\n{text}".encode()))
    return out


def digests(command, source=words):
    recs = records(command, source)
    digest = hashlib.sha256(b"".join(rec for _, rec in recs)).hexdigest()
    prints = " ".join(hashlib.sha256(rec).hexdigest()[:8] for _, rec in recs)
    return digest, prints, [label for label, _ in recs]


def check_digest(command, source, expected):
    digest, prints, labels = digests(command, source)
    want_digest, want_prints = expected[command]
    if digest == want_digest:
        return
    changed = [
        label
        for label, got, want in zip(labels, prints.split(), want_prints.split())
        if got != want
    ]
    first = changed[0] if changed else "none of the fingerprints"
    pytest.fail(f"{command} --format json output changed; first differing word: {first}")


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_json_output_matches_the_recorded_digest(command):
    check_digest(command, words, EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED_LONG))
def test_long_word_json_output_matches_the_recorded_digest(command):
    check_digest(command, long_words, EXPECTED_LONG)


if __name__ == "__main__":
    for name, source, expected in (
        ("EXPECTED", words, EXPECTED),
        ("EXPECTED_LONG", long_words, EXPECTED_LONG),
    ):
        print(f"{name}:")
        for command in sorted(expected):
            digest, prints, _ = digests(command, source)
            print(f"{command}:\n  {digest}\n  {prints}")
