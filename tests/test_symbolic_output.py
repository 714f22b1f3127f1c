"""reduce, classify, genus and expand on the corpus, tambour and long
words, checked command by command against the contract record.

The runs are those of ``tools/contract_runs.py``: ``word_runs()`` (every
corpus word over its corpus alphabet and every tambour word; expand over
S3, Q8, A4, D5 and Z5, with and without --verify) and ``long_runs()`` (the
seeded long words in which every letter occurs twice).  Each test takes
one command's runs in one format and checks each run's fingerprint against
``contract_record.txt``, so a failure names the command, the format and
the first argv whose output differs.  ``tests/test_contract.py`` checks the
whole record, says what a run's record leaves out, and records again.
"""

import shlex

import pytest

import contract_runs
from test_contract import RECORD

WORD_COMMANDS = ("classify", "expand", "expand --verify", "genus", "reduce")
LONG_COMMANDS = ("classify", "genus", "reduce")


def check_command(contract, source, command, fmt):
    """Fail on the first run of ``command`` over ``source`` in ``fmt`` whose
    fingerprint is not the recorded one."""
    runs, _ = contract
    want_prints = RECORD.read_text(encoding="ascii").split()[1:]
    if len(runs) != len(want_prints):
        pytest.fail(f"{len(runs)} runs against {len(want_prints)} recorded")
    name, *flags = command.split()
    base = {
        tuple(argv) for argv in source() if argv[0] == name and ("--verify" in argv) == bool(flags)
    }
    checked = 0
    for (argv, got), want in zip(runs, want_prints):
        if argv[-2:] != ["--format", fmt] or tuple(argv[:-2]) not in base:
            continue
        checked += 1
        if got != want:
            pytest.fail(f"{command} --format {fmt} output changed, first on: {shlex.join(argv)}")
    assert base and checked == len(base)


@pytest.mark.parametrize("command", WORD_COMMANDS)
def test_json_output_matches_the_recorded_digest(contract, command):
    check_command(contract, contract_runs.word_runs, command, "json")


@pytest.mark.parametrize("command", LONG_COMMANDS)
def test_long_word_json_output_matches_the_recorded_digest(contract, command):
    check_command(contract, contract_runs.long_runs, command, "json")


@pytest.mark.parametrize("command", ("classify", "expand", "genus", "reduce"))
def test_human_output_matches_the_recorded_digest(contract, command):
    check_command(contract, contract_runs.word_runs, command, "human")


@pytest.mark.parametrize("command", LONG_COMMANDS)
def test_long_word_human_output_matches_the_recorded_digest(contract, command):
    check_command(contract, contract_runs.long_runs, command, "human")
