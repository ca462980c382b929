"""CLI outputs recorded before frame changes became monomials.

Each golden file is the JSON of one command; the test reruns the command and
requires the same meta, exact data and floats, bit for bit.  Regenerate a
file only for an intended change of output, with the command next to it.
"""

import json
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
