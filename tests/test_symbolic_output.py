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
first run whose output differs.  The ``--format human`` output is pinned
the same way, whole (``EXPECTED_HUMAN``, ``EXPECTED_LONG_HUMAN``): reduce,
classify and genus on both word sets, and expand without ``--verify``.

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
        "8847de5c216ae5737663d0401257e86b2ae189405773d916eb5ab8436f874f54",
        "2b90cd18 96e39a4e df29eda7 d573ec52 b25e2374 cef882a6 3ec9643f "
        "f012e1e4 20db8b31 20407d16 056bec52 85263125 0aabed3d aa292359 "
        "654f020f 31074cf0 17e5dba3 94056b8b 46e28726 647c9102 cbde5d76 "
        "a66409e1 dae629d0 90150bd8 a2c68119 b93dc8e5 7caef04b 2ee30c03 "
        "2d97379d 998501ed 2d76bb7b 2f8b6160 6ed4636e 0b6c9a31 8b10bb06 "
        "eb4caff5 eb67d9dc 59067e85 b89a8bea 09098eb2 a8cf0174 65dc3598 "
        "7de66354 3a0b84f7 ba163979 d4fd860a 415ce0de 99f3a7be e0e267eb "
        "c6cb7196 09cc8735 0db80a37 171002ae d1ff2305 e8bbedc8 157d8fff "
        "b6087bc0 d4905158 c086c521 5a8d3976 bf4908cc 1bd74215 f08b9889 "
        "03de38c6 d267bdaa 067d2ba6 15506585 bd1034b4 03ede412 f346c53f "
        "c75b9a04 b24e9700 fb5af6db f5f9bb41 756010cc ccc1fcf8 971bd1f6 "
        "2191ffab 6a6d891b b4e2b3a5 de090c12 ec5639b5 2cc608de 945dc0a1 "
        "060db2e7 2037f378 073d09bc c8b86838 a19d0feb f0932115 3138e055 "
        "eb5ff5d6 d3b052d0 af438771 2fcef9f8 3572b320 88e66ee5 6732fff8 "
        "32a58949 938b5924 e5823113 8650dbb5 379817ff 32bb923c 01026a4c "
        "4e1775be 3e3ba497 53d59fcb 459a4d36 90de9ea6 6dd0a0d7 e6f02e64 "
        "fdc228c3 e8f1cc79 242eb9da 2a87aa39 f14b4493 5e4f56b8 84bfa20f "
        "ae079d01 157d8fff b6087bc0 d4905158 c086c521 5a8d3976 bf4908cc "
        "1bd74215 f08b9889 03de38c6 d267bdaa 75a7aece 6a6f9094 1852bd5c "
        "209a16c1 948f6738 f84717f7 37a777f0 13c64acc 1185e182 6c9b4fa9",
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
# the same for --format human, whole stdout: expand without --verify only,
# since --verify prints the oracle values and deltas
EXPECTED_HUMAN = {
    "classify": (
        "4d30168bfa9d2febf96e872452b36dfc0c611f7b1d2027ccee3204dd14947782",
        "afcd8aa0 c548afda 5598e2e4 61c7323d bb983334 e6ee410d c59a86ea "
        "f1427801 c97dcbe6 c184de9e bb424e41 5d46a3b6 e3d2427a b62d0489 "
        "9ea5f5c0 325ea918 44af2813 20314ddd 5e857250 9e162733 44dcf7f6 "
        "6b0dcadc 2fdff039 761ca474 5d46a3b6 e3d2427a 0c1a077d 79682eed",
    ),
    "expand": (
        "018b83d4456928ea3cf278300cb86a8f7bf61918398e91da0a095e767be6bd49",
        "50ffe8f5 0158b1e7 cf65e588 836575dd dd67e629 8c498262 faeac2f3 "
        "d9871552 b5bf139f 6bc3afc7 2518a352 5aaba13a d52d851e 341feabe "
        "985952f6 7e95743a 37c2a352 23f04d37 20f68423 984b7c77 c3efa787 "
        "c1b0b590 0c3bef6f c19fac9c 59e51042 7828b81d 9e1c5b90 9a56a0a2 "
        "8a15ebe6 2ed488e5 bffea4ac 9406f667 2e48a28c 74c293de e53c2af9 "
        "b91658d3 6a06903e a8e581f6 5da20dc4 8a9dfd05 c56bd604 a5a04fb1 "
        "4ea5e0a6 a8e8eafc 0c8fb5e7 ba341929 ac6aa9a1 a3fa158f 9c2aefa1 "
        "093d6443 7dc1a4df 311c187a 8caa9d2a 681d7e7d be1d79ca 0cc87b49 "
        "f38935e8 ff9ef563 3cf26f58 ad0bd580 70006ea6 00213e94 dd085a57 "
        "b7ba95c0 a0f374e1 4f5fa546 c7d3e295 92392e9f f7eb7ad8 eda2f8f0 "
        "8817ecff ab7fe83c b12273a4 70bca318 4478ca4b 1c64110b a08830ea "
        "3eb7c3ad 89fb32a1 c9a88cd6 4f91d57b 6a14e491 a8c24ae3 5dc72964 "
        "365c7a1f d20c16bb 9b97ccc6 5c644de4 b4289017 3d19a288 59027748 "
        "1844c038 be519f1c 651993a9 1024dc9a 761a74b2 afea9438 6840a776 "
        "54ae7130 6759fd7a 1488fd9e 232ce001 c9d5a6ce fa333a9f be1bac5d "
        "d80dd4b7 9238d81d 252817b8 7580d703 e68c7706 8b8f00c5 6e5413a0 "
        "eea1be0a dd0737d6 218388a2 27b290f7 8a780323 6b1956e9 52622c79 "
        "9c3405c4 0cc87b49 f38935e8 ff9ef563 3cf26f58 ad0bd580 70006ea6 "
        "00213e94 dd085a57 b7ba95c0 a0f374e1 5dbbdaab f7370828 b14a95b3 "
        "aec19bd8 660d86a5 42eb2cba ace469c1 169368ce 11a72a66 cc61dfc8",
    ),
    "genus": (
        "d20cd38a9201c121fa1d40af529b968781d5952811d0c4cb6407855b4849237a",
        "4355a46b 4355a46b 4355a46b 4355a46b 4355a46b 4355a46b 73836e7d "
        "87381701 4355a46b 4355a46b 4355a46b ca798155 8f853a33 59308d37 "
        "4355a46b 4355a46b 4355a46b ec5d0205 4355a46b 4355a46b 4355a46b "
        "4355a46b 4355a46b f490479e ca798155 8f853a33 c4b4bcea 021de2db",
    ),
    "reduce": (
        "8aad02e025f94612bcd812dfd8dc21be886a2bfa204caf7bc1c0df8ed2a0f896",
        "3c55591d 48ad0ef4 3ec4a376 7b5ca1d0 a02c877c 55400a97 7fc9acd7 "
        "1834f258 50c2ce15 9b731435 f84a7d02 1ddde0de 7cdd9d1a ca9479f7 "
        "ff2b39ce ca43034e d5184928 d43ffb71 3537d648 c938935f ca6b03e0 "
        "04ce95a6 23f79215 b5bf1dda 1ddde0de 7cdd9d1a 19416d3a d745e6d4",
    ),
}
EXPECTED_LONG_HUMAN = {
    "classify": (
        "49670805ebdf8e2e9e45e329a8862ae5b711570403a0d1204e019b3b9ff5ac6b",
        "08484084 5fed8a3a 8eeea290 88bba8e6 e7aedea6 8ca0a9e8 53d73756 "
        "e01c9ecb 66701093 fdcd472e b75a4e40 c08acb09",
    ),
    "genus": (
        "0f33acf352c89d5141a6afacbd0ba44773e1c97a95cf1cbcb37863542ef8bd37",
        "518199fd 4355a46b 99c203c0 77c26fb7 a2d2b72f 4355a46b 90b64f68 "
        "396ab0b5 4355a46b c2615463 4355a46b 4355a46b",
    ),
    "reduce": (
        "46686b4348f62f2040404a4dbe2cda571a38f7e5699837ada52d0769b408e4c3",
        "0f3478a1 f89a030a 441cb7b6 9c3c923c 135535a1 810361a6 7cbfe85c "
        "8fe05470 f1cf38de 07b56a22 4e718c18 6e72e9ab",
    ),
}


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


def records(command, source=words, fmt="json"):
    """(label, record bytes) of every run of one command."""
    out = []
    for label, argv in runs(command, source):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", fmt])
        text = stdout.getvalue()
        if text and argv[0] == "expand" and fmt == "json":
            text = exact_fields(text)
        out.append((label, f"{code}\n{text}".encode()))
    return out


def digests(command, source=words, fmt="json"):
    recs = records(command, source, fmt)
    digest = hashlib.sha256(b"".join(rec for _, rec in recs)).hexdigest()
    prints = " ".join(hashlib.sha256(rec).hexdigest()[:8] for _, rec in recs)
    return digest, prints, [label for label, _ in recs]


def check_digest(command, source, expected, fmt="json"):
    digest, prints, labels = digests(command, source, fmt)
    want_digest, want_prints = expected[command]
    if digest == want_digest:
        return
    changed = [
        label
        for label, got, want in zip(labels, prints.split(), want_prints.split())
        if got != want
    ]
    first = changed[0] if changed else "none of the fingerprints"
    pytest.fail(f"{command} --format {fmt} output changed; first differing word: {first}")


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_json_output_matches_the_recorded_digest(command):
    check_digest(command, words, EXPECTED)


@pytest.mark.parametrize("command", sorted(EXPECTED_LONG))
def test_long_word_json_output_matches_the_recorded_digest(command):
    check_digest(command, long_words, EXPECTED_LONG)


@pytest.mark.parametrize("command", sorted(EXPECTED_HUMAN))
def test_human_output_matches_the_recorded_digest(command):
    check_digest(command, words, EXPECTED_HUMAN, "human")


@pytest.mark.parametrize("command", sorted(EXPECTED_LONG_HUMAN))
def test_long_word_human_output_matches_the_recorded_digest(command):
    check_digest(command, long_words, EXPECTED_LONG_HUMAN, "human")


if __name__ == "__main__":
    for name, source, expected, fmt in (
        ("EXPECTED", words, EXPECTED, "json"),
        ("EXPECTED_LONG", long_words, EXPECTED_LONG, "json"),
        ("EXPECTED_HUMAN", words, EXPECTED_HUMAN, "human"),
        ("EXPECTED_LONG_HUMAN", long_words, EXPECTED_LONG_HUMAN, "human"),
    ):
        print(f"{name}:")
        for command in sorted(expected):
            digest, prints, _ = digests(command, source, fmt)
            print(f"{command}:\n  {digest}\n  {prints}")
