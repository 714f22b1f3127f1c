import sys
from pathlib import Path

import pytest

# the group builders of tools/group_builders.py, for the tests that build groups
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from corpus import group_and_table  # noqa: E402


@pytest.fixture(scope="session")
def s3():
    return group_and_table("S3")


@pytest.fixture(scope="session")
def z3():
    return group_and_table("Z3")


@pytest.fixture(scope="session")
def q8():
    return group_and_table("Q8")


@pytest.fixture(scope="session")
def contract(tmp_path_factory):
    """(argv, fingerprint) of every run of tools/contract_runs.py, and the
    SHA-256 over all records, as tests/test_contract.py takes them."""
    from test_contract import fingerprints

    return fingerprints(tmp_path_factory.mktemp("contract"))
