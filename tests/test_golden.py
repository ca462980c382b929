"""Recorded CLI outputs.

Each golden file is the JSON of one command; the test reruns the command and
requires the same meta, exact data and floats, bit for bit.  Re-record only
for an intended change of the floats, with

    PYTHONPATH=src python tests/test_golden.py

which rewrites the matrix of every case and refuses to write anything if the
meta or exact data of a case changed.

The stdout of three `torusquant verify` runs, two single suites and the full
run, is pinned byte for byte: a change that keeps the exact data and the
summation order keeps every printed error.
These files are never re-recorded by the script.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from torusquant.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "bks_nontransverse_g2.json": [
        "bks", "--g", "2", "--k", "4",
        "--lagrangian", "1 1 -1 2; 0 2 -1 5",
        "--lagrangian", "3 1 -1 1; 0 2 -1 5",
    ],
    "bks_corrected_g1.json": [
        "bks", "--g", "1", "--k", "4",
        "--lagrangian", "1 2", "--lagrangian", "1 -1",
        "--lift", "1", "3", "--base", "1 0",
    ],
    "rep_gamma_mp_g2.json": ["rep", "--g", "2", "--k", "2", "--kind", "gamma", "--metaplectic"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    assert doc["meta"] == want["meta"]
    assert doc.get("exact") == want.get("exact")
    assert doc["matrix"] == want["matrix"]


VERIFY_STDOUT = {
    "verify_all_seed0.json": ["verify", "--seed", "0"],
    "verify_oracle_seed0.json": ["verify", "--suite", "oracle", "--seed", "0"],
    "verify_tau_seed0.json": ["verify", "--suite", "tau", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(VERIFY_STDOUT))
def test_verify_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("QUANT_SEED", raising=False)
    assert main(VERIFY_STDOUT[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def rerecord_matrices() -> int:
    fresh = {}
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        doc = json.loads(out.getvalue())
        want = json.loads((GOLDEN / name).read_text())
        if doc["meta"] != want["meta"] or doc.get("exact") != want.get("exact"):
            print(f"{name}: meta or exact changed, nothing written", file=sys.stderr)
            return 1
        want["matrix"] = doc["matrix"]
        fresh[name] = want
    for name, doc in fresh.items():
        (GOLDEN / name).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(rerecord_matrices())
