"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the span wrappers (every binding replaced, then restored), that
traced call counts repeat for a seed, that inputs follow the seed, and that
the desk replay predicts the pairs the suites really pair.
"""

import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import torusquant  # noqa: E402
import workloads  # noqa: E402
from torusquant import cli, quantize, representations, verify  # noqa: E402
from torusquant.lattice import Lagrangian, SymplecticSpace, adapted_basis  # noqa: E402
from torusquant.maslov import mp_generator  # noqa: E402
from torusquant.representations import mp_operator  # noqa: E402

ORIGINAL_BKS = quantize.bks_matrix
ORIGINAL_SUITE = verify.suite_unitarity
ORIGINAL_BUILD = torusquant.PhaseSum.__dict__["build"]


def test_gamma_operator_anchor_counts():
    space = SymplecticSpace.standard(1)
    basis = adapted_basis(Lagrangian.make(space, [[1, 0]]))
    hs = quantize.HilbertSpace(4, quantize.Polarization.canonical(basis.span()))
    gamma = mp_generator(basis, "gamma")
    tracer = spans.Tracer()
    with tracer:
        # this module's own binding, made by a from-import, is traced too
        rep = mp_operator(gamma, hs)
    assert quantize.unitarity_defect(rep.matrix) < 1e-9
    calls = {name: st[0] for name, st in tracer.stats.items()}
    for name in (
        "representations.mp_operator",
        "representations.sp_operator",
        "representations.sp_pushforward",
        "quantize.rebase_unitary",
        "quantize.bks_matrix",
        "quantize.bks_matrix_transverse",
    ):
        assert calls[name] == 1, name
    # 16 entries assembled, 4 from the frame change
    assert calls["exact.PhaseSum.build"] == 20
    assert calls["quantize.bks_matrix_nontransverse"] == 0


def test_every_binding_is_wrapped_then_restored():
    with spans.Tracer():
        sites = (
            quantize.bks_matrix,
            representations.bks_matrix,
            verify.bks_matrix,
            cli.bks_matrix,
            torusquant.bks_matrix,
            verify.SUITES["unitarity"],
            verify.suite_unitarity,
        )
        assert all(hasattr(fn, "__perfbench_span__") for fn in sites)
        assert hasattr(torusquant.PhaseSum.build.__func__, "__perfbench_span__")
    assert spans.leftover_wrappers() == []
    for fn in (quantize.bks_matrix, representations.bks_matrix, verify.bks_matrix,
               cli.bks_matrix, torusquant.bks_matrix):
        assert fn is ORIGINAL_BKS
    assert verify.SUITES["unitarity"] is ORIGINAL_SUITE
    assert torusquant.PhaseSum.__dict__["build"] is ORIGINAL_BUILD


def test_failed_calls_are_counted_and_wrappers_still_restored():
    tracer = spans.Tracer()
    with pytest.raises(torusquant.OddModulus):
        with tracer:
            torusquant.gauss_reciprocity_check([[1]], 3)
    calls, _, failed = tracer.stats["exact.gauss_reciprocity_check"]
    assert (calls, failed) == (1, 1)
    assert spans.leftover_wrappers() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_and_self_time_fits(workload, capsys):
    first = run.run_traced(workloads, spans, workload, seed=3, passes=1)
    second = run.run_traced(workloads, spans, workload, seed=3, passes=1)
    capsys.readouterr()
    counts = [
        {k: v for k, (v, unit) in res[0].items() if k.endswith((".calls", ".failed"))}
        for res in (first, second)
    ]
    assert counts[0] == counts[1]
    assert sum(v for k, v in counts[0].items() if k.endswith(".calls")) > 0
    for metrics, attempted, failed, warm_ok, digest, extra in (first, second):
        assert failed == 0 and warm_ok
        assert extra["self_s_total"] <= extra["traced_s"]
    assert first[4] == second[4]
    assert spans.leftover_wrappers() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_sets_the_inputs(workload):
    def digest(seed, index=0):
        return workloads.input_digest(workloads.make_pass(workload, seed, index)[0])

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)
    assert digest(1, 0) != digest(1, 1)


@pytest.mark.parametrize("suite", ["unitarity", "triple", "corrected", "heisenberg"])
def test_desk_replay_matches_the_suite(suite):
    class Recorder(spans.Tracer):
        def _wrap(self, name, fn, intertwiner_type):
            inner = super()._wrap(name, fn, intertwiner_type)
            if name != "quantize.bks_matrix":
                return inner

            def record(h1, h2):
                seen.add(frozenset((h1.pol.lag, h2.pol.lag)))
                return inner(h1, h2)

            record.__perfbench_span__ = name
            return record

    seeds = [s for s in range(40) if workloads.desk_terms(suite, s) <= 1024][:4]
    assert seeds
    for seed in seeds:
        seen = set()
        with Recorder():
            getattr(verify, "suite_" + suite)(seed, cases=1)
        _, pairs = workloads.desk_pairs(suite, seed)
        assert seen == {frozenset(p) for p in pairs}


def test_tail_ladder():
    assert run.tail(list(range(40))) == (75.0, 29)
    assert run.tail(list(range(9))) == (50.0, 4)
    assert run.tail(list(range(1000))) == (99.0, 989)


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_sampled_between_calls():
    loop = run.Loop()
    call = workloads.Call("sleep", "sleep", lambda: time.sleep(0.1), lambda out: True)
    for _ in range(6):
        loop.run(call)
    # one sample after the first call, then one per REF_EVERY_S of call time
    assert 2 <= len(loop.refs) <= 3
    assert loop.busy >= 0.6
    ratio = run.REF_NOMINAL_S / statistics.median(loop.refs)
    assert loop.scale == pytest.approx(ratio ** run.REF_ELASTICITY)
