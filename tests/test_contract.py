"""The behaviour contract, digested: every run of ``tools/contract_runs.py``.

Each run goes through ``main`` in process, with ``COLUMNS=80``.  A run
that raises, or exits with a code other than 0-3, fails the test at once,
named by its argv.  A run's record is its exit code, stderr and stdout,
less what depends on the platform or on the temporary directory:

* the float fields of expand's JSON: ``coefficient``, ``oracle``,
  ``delta`` and ``max_delta``;
* the oracle and delta columns and the ``max |formula - oracle|`` line of
  expand's human table;
* the delta in ``verification failed: ...``;
* the temporary directory's path.

``contract_record.txt`` holds a SHA-256 over all records and an 8-digit
fingerprint of each, in run order, so that a change names the first run
whose record differs.  To record again after an intended change of
output, run ``PYTHONPATH=src python3 tests/test_contract.py`` from the
repo root, and list the changed runs in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

if __name__ == "__main__":  # conftest puts tools/ on the path for pytest
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import contract_runs
from wordfourier.cli import main

RECORD = Path(__file__).with_name("contract_record.txt")
FLOAT_FIELDS = ("coefficient", "oracle", "delta")
VERIFY_HEADER = "  oracle, delta"
ORACLE_COLUMNS = re.compile(r"  \S+, \S+$")
FAILED_DELTA = re.compile(r"(verification failed: max delta )\S+")


def outputs(argvs):
    """(exit code, stdout, stderr) of each run, in order."""
    results = []
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"main raised {exc!r} on {shlex.join(argv)}")
            if code not in (0, 1, 2, 3):
                pytest.fail(f"main returned {code!r} on {shlex.join(argv)}")
            results.append((code, out.getvalue(), err.getvalue()))
    return results


def record(code, out, err, tmp):
    """One run's record, as bytes: the output less its floats and tmp."""
    if out.startswith("{"):
        doc = json.loads(out)
        doc.pop("max_delta", None)
        for row in doc.get("rows", ()):
            for key in FLOAT_FIELDS:
                row.pop(key, None)
        out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif out.startswith("word: "):
        lines = out.split("\n")
        if len(lines) > 2 and lines[2].endswith(VERIFY_HEADER):  # expand --verify
            rows = [line for line in lines[3:] if not line.startswith("max |formula - oracle|")]
            out = "\n".join(lines[:3] + [ORACLE_COLUMNS.sub("", line) for line in rows])
    err = FAILED_DELTA.sub(r"\1...", err)
    text = json.dumps([code, out.replace(tmp, "TMP"), err.replace(tmp, "TMP")])
    return text.encode() + b"\n"


def fingerprints(tmp):
    """(argv, fingerprint) of every contract run, and the SHA-256 over all
    records."""
    argvs = contract_runs.runs(tmp)
    records = [record(*result, str(tmp)) for result in outputs(argvs)]
    prints = [hashlib.sha256(rec).hexdigest()[:8] for rec in records]
    return list(zip(argvs, prints)), hashlib.sha256(b"".join(records)).hexdigest()


def test_every_contract_run_matches_the_record(contract):
    runs, digest = contract
    want_digest, *want_prints = RECORD.read_text(encoding="ascii").split()
    if digest == want_digest:
        return
    for (argv, got), want in zip(runs, want_prints):
        if got != want:
            pytest.fail(f"output changed, first on: {shlex.join(argv)}")
    pytest.fail(f"{len(runs)} runs against {len(want_prints)} recorded")


def test_the_record_leaves_out_the_floats_of_expand_json():
    argv = ["expand", "[x,y]*x^3", "--group", "S3", "--verify", "--format", "json"]
    ((code, out, err),) = outputs([argv])
    doc = json.loads(out)
    doc["max_delta"] = 1.0
    for row in doc["rows"]:
        row["coefficient"][0] += 1
        row["oracle"][1] -= 1
        row["delta"] = 2.0
    moved = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert record(code, moved, err, "TMP") == record(code, out, err, "TMP")
    doc["rows"][0]["rational"] = "1/7"
    moved = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert record(code, moved, err, "TMP") != record(code, out, err, "TMP")


def test_the_record_leaves_out_the_oracle_columns_of_the_human_table():
    ((code, out, err),) = outputs([["expand", "[x,y]*x^3", "--group", "S3", "--verify"]])
    lines = out.split("\n")
    assert lines[2].endswith(VERIFY_HEADER) and lines[-2].startswith("max |formula - oracle|")
    # every delta, and the maximum, gains a digit
    moved = "\n".join(lines[:3] + [line + "1" for line in lines[3:-1]] + [""])
    assert record(code, moved, err, "TMP") == record(code, out, err, "TMP")
    moved = "\n".join(lines[:3] + [lines[3].replace("  ", "   ", 1)] + lines[4:])
    assert record(code, moved, err, "TMP") != record(code, out, err, "TMP")


def test_the_record_leaves_out_the_failed_delta_and_the_temporary_directory():
    err = "verification failed: max delta 1.000e-03 exceeds tol 1e-06\n"
    assert record(2, "", err, "/a") == record(2, "", err.replace("1.000e-03", "4.2e-01"), "/a")
    assert record(2, "", err, "/a") != record(2, "", err.replace("1e-06", "1e-05"), "/a")
    missing = "error: [Errno 2] No such file or directory: '{}/missing.grp'\n"
    assert record(2, "", missing.format("/a"), "/a") == record(2, "", missing.format("/b/c"), "/b/c")


@pytest.mark.parametrize(
    "broken", (AssertionError(), SystemExit(2), 4, None), ids=("raises", "exits", "4", "None")
)
def test_a_run_that_raises_or_exits_past_3_fails_naming_its_argv(monkeypatch, broken):
    def main(argv):
        if argv[1] != "x^2":
            return 0
        if isinstance(broken, BaseException):
            raise broken
        return broken

    monkeypatch.setattr(sys.modules[__name__], "main", main)
    argvs = [["reduce", "x", "--format", "json"], ["reduce", "x^2", "--format", "human"]]
    with pytest.raises(pytest.fail.Exception, match=re.escape("on reduce 'x^2' --format human")):
        outputs(argvs)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs, digest = fingerprints(Path(tmp))
    RECORD.write_text("\n".join([digest, *(fp for _, fp in runs)]) + "\n", encoding="ascii")
    print(f"{len(runs)} runs recorded in {RECORD.name}")
