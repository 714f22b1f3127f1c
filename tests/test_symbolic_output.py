"""Byte-stable symbolic output of reduce, classify and genus.

Each command runs with ``--format json`` on every corpus word (over its
corpus alphabet) and on the tambour words y1..yn*y1^-1..yn^-1 of
``corpus.split_tambour``.  A word's record is its exit code and stdout;
genus prints only for admissible words, so for the others the record is
the exit code alone.  The records of one command, in word order, hash to
one SHA-256 digest.  The JSON holds no floats, so the digests do not
depend on the platform.  Each word also keeps an 8-digit fingerprint, so
that a changed digest names the first word whose output differs.

To record new digests after an intended change of output, run
``PYTHONPATH=src python tests/test_symbolic_output.py`` from the repo root.
"""

import contextlib
import hashlib
import io

import pytest

from wordfourier.cli import main

from corpus import CORPUS

TAMBOUR_SIZES = range(1, 7)

# command -> (SHA-256 over all records, fingerprint of each word's record)
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
    "genus": (
        "e8f7febc95d98b9c8230e59c6bcabd1c8d6c1ae53125cf3552d24989c64b91f5",
        "4355a46b 4355a46b 4355a46b 4355a46b 4355a46b 4355a46b 850b76db "
        "9b8079ca 4355a46b 4355a46b 4355a46b bf20994c ce097f26 8471b614 "
        "4355a46b 4355a46b 4355a46b 19cd0b26 4355a46b 4355a46b 4355a46b "
        "4355a46b 4355a46b 886edbf6 bf20994c ce097f26 d542c78f 39bc1aa9",
    ),
}


def words():
    """(label, word argv) for every word the digests cover, in order."""
    for word_id, text, names in CORPUS:
        yield word_id, (text, "--alphabet", ",".join(names)) if names else (text,)
    for n in TAMBOUR_SIZES:
        ys = [f"y{i + 1}" for i in range(n)]
        yield f"tambour{n}", ("*".join(ys + [f"{y}^-1" for y in ys]),)


def records(command):
    """(label, record bytes) of every word under one command."""
    out = []
    for label, word_argv in words():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, *word_argv, "--format", "json"])
        out.append((label, f"{code}\n{stdout.getvalue()}".encode()))
    return out


def digests(command):
    recs = records(command)
    digest = hashlib.sha256(b"".join(rec for _, rec in recs)).hexdigest()
    prints = " ".join(hashlib.sha256(rec).hexdigest()[:8] for _, rec in recs)
    return digest, prints, [label for label, _ in recs]


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_json_output_matches_the_recorded_digest(command):
    digest, prints, labels = digests(command)
    want_digest, want_prints = EXPECTED[command]
    if digest == want_digest:
        return
    changed = [
        label
        for label, got, want in zip(labels, prints.split(), want_prints.split())
        if got != want
    ]
    first = changed[0] if changed else "none of the fingerprints"
    pytest.fail(f"{command} --format json output changed; first differing word: {first}")


if __name__ == "__main__":
    for command in sorted(EXPECTED):
        digest, prints, _ = digests(command)
        print(f"{command}:\n  {digest}\n  {prints}")
