import json

import numpy as np
import pytest

from torusquant.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasisCommand:
    def test_standard_line(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--g", "1", "--lagrangian", "1 0")
        assert code == 0
        doc = json.loads(out)
        assert doc["w"] == [[1, 0]]
        assert doc["wperp"] == [[0, 1]]
        assert all(doc["invariants"].values())

    def test_slanted_line_invariants(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--g", "1", "--lagrangian", "1 2")
        assert code == 0
        doc = json.loads(out)
        assert doc["w"] == [[1, 2]]
        assert all(doc["invariants"].values())

    def test_malformed_row_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--g", "1", "--lagrangian", "1 0 0")
        assert code == 2
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_invalid_lagrangian_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--g", "1", "--lagrangian", "2 4")
        assert code == 2
        assert json.loads(err)["error"] == "NotPrimitive"

    def test_oversized_g_exits_2_before_parsing(self, capsys):
        # refused before the space is built: no gram, no determinant
        code, _, err = run_cli(capsys, "basis", "--g", "400", "--lagrangian", "1 0")
        assert code == 2
        assert json.loads(err)["error"] == "TooLarge"


class TestBksCommand:
    def test_fourier_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "bks", "--g", "1", "--k", "2",
            "--lagrangian", "1 0", "--lagrangian", "0 1",
        )
        assert code == 0
        doc = json.loads(out)
        m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(m - expect).max() < 1e-14
        assert doc["exact"] is not None

    def test_same_lagrangian_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "bks", "--g", "1", "--k", "4",
            "--lagrangian", "1 0", "--lagrangian", "1 0",
        )
        doc = json.loads(out)
        m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        assert np.abs(m - np.eye(4)).max() == 0

    def test_lifted_pairing(self, capsys):
        code, out, _ = run_cli(
            capsys, "bks", "--g", "1", "--k", "2",
            "--lagrangian", "1 1", "--lagrangian", "0 1",
            "--lift", "1", "1", "--base", "1 0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["corrected"] is True

    def test_round_trip_bit_for_bit(self, capsys):
        args = (
            "bks", "--g", "2", "--k", "2",
            "--lagrangian", "1 0 0 0; 0 1 0 0",
            "--lagrangian", "1 0 0 0; 0 0 0 1",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        doc1 = json.loads(out1)
        code, out2, _ = run_cli(capsys, *args)
        doc2 = json.loads(out2)
        assert doc1 == doc2
        reparsed = json.loads(json.dumps(doc1))
        assert reparsed["matrix"] == doc1["matrix"]


    def test_too_large_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "bks", "--g", "1", "--k", "2",
            "--lagrangian", "1 0", "--lagrangian", "1 1073741824",
        )
        assert code == 2
        assert json.loads(err)["error"] == "TooLarge"

    @pytest.mark.parametrize("flag", ["--seed", "--tolerance"])
    def test_verify_only_flags_rejected(self, capsys, flag):
        # only verify reads a seed or a tolerance
        with pytest.raises(SystemExit) as exc:
            main(["bks", "--lagrangian", "1 0", "--lagrangian", "0 1", flag, "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestMaslovCommand:
    def test_tau_zero_on_repeat(self, capsys):
        code, out, _ = run_cli(
            capsys, "maslov", "--g", "1",
            "--lagrangian", "1 0", "--lagrangian", "1 0", "--lagrangian", "0 1",
        )
        assert json.loads(out)["tau"] == 0

    def test_tau_value_and_sign_flip(self, capsys):
        base_args = ["maslov", "--g", "1"]
        _, out, _ = run_cli(
            capsys, *base_args,
            "--lagrangian", "1 0", "--lagrangian", "1 1", "--lagrangian", "0 1",
        )
        assert json.loads(out)["tau"] == 1
        _, out, _ = run_cli(
            capsys, *base_args,
            "--lagrangian", "0 1", "--lagrangian", "1 1", "--lagrangian", "1 0",
        )
        assert json.loads(out)["tau"] == -1

    def test_mu_coboundary(self, capsys):
        _, out, _ = run_cli(
            capsys, "maslov", "--g", "1",
            "--lagrangian", "1 0", "--lagrangian", "1 1", "--lagrangian", "0 1",
            "--lift", "0", "1", "1", "--base", "1 0",
        )
        doc = json.loads(out)
        assert (doc["mu"]["12"] + doc["mu"]["23"] + doc["mu"]["31"] - doc["tau"]) % 8 == 0


class TestRepCommand:
    def test_gamma_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--g", "1", "--k", "2", "--kind", "gamma")
        doc = json.loads(out)
        m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(m - expect).max() < 1e-14

    def test_beta_needs_matrix(self, capsys):
        code, _, err = run_cli(capsys, "rep", "--g", "1", "--k", "2", "--kind", "beta")
        assert code == 2
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_malformed_matrix_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "rep", "--g", "1", "--k", "4", "--kind", "beta", "--matrix", "x"
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "DimensionMismatch",
            "message": "cannot parse integer row: 'x'",
        }

    def test_metaplectic_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "rep", "--g", "1", "--k", "2", "--kind", "epsilon", "--metaplectic"
        )
        doc = json.loads(out)
        m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        assert np.abs(m + np.eye(2)).max() < 1e-14
        assert doc["meta"]["z"] == 4


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gauss", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert doc["suites"][0]["suite"] == "gauss"
        assert doc["suites"][0]["cases"] == 100

    def test_triple_suite_reports_details(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "triple", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert "details" in doc["suites"][0]
        detail = doc["suites"][0]["details"][0]
        assert {"tau", "arg", "expected_arg"} <= set(detail)

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANT_SEED", "99")
        code, out, _ = run_cli(capsys, "verify", "--suite", "counting", "--seed", "5")
        assert json.loads(out)["seed"] == 99
