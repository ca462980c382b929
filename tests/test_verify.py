"""The case loop of the verification suites.

Every suite is a seeded stream of draw-and-check cases plus fixed checks that
draw nothing.  These tests pin what callers rely on: the public signatures and
defaults, how many cases a report counts, that rejected draws are redrawn and
not counted, and the triple suite's integer indices on fixed seeds.
"""

import inspect
import random

import pytest

from torusquant import verify

# suite -> (default tolerance, default cases); every suite_<name> takes
# (seed, tolerance, cases) in that order
SIGNATURES = {
    "unitarity": (1e-9, 200),
    "triple": (1e-9, 100),
    "corrected": (1e-9, 100),
    "oracle": (1e-12, 60),
    "gauss": (1e-9, 100),
    "tau": (0.0, 200),
    "mu": (0.0, 100),
    "heisenberg": (1e-9, 60),
    "mp": (1e-9, 40),
    "counting": (0.0, 60),
}
# checks that draw nothing, counted after the drawn cases: oracle's g = 1
# menu of transverse pairs at k in {2, 4}, Heisenberg's irreducibility
# witness and the pinned Mp matrices at k in {2, 4}
FIXED = {"oracle": 112, "heisenberg": 2, "mp": 2}


def test_suite_registry_and_signatures():
    assert list(verify.SUITES) == list(SIGNATURES)
    for name, (tolerance, cases) in SIGNATURES.items():
        fn = getattr(verify, "suite_" + name)
        assert verify.SUITES[name] is fn
        params = inspect.signature(fn).parameters
        assert list(params) == ["seed", "tolerance", "cases"]
        assert params["seed"].default is inspect.Parameter.empty
        assert params["tolerance"].default == tolerance
        assert params["cases"].default == cases


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_report_counts_drawn_and_fixed_cases(name):
    for seed in (0, 1):
        rep = getattr(verify, "suite_" + name)(seed, cases=3)
        assert rep.suite == name
        assert rep.cases == 3 + FIXED.get(name, 0)
        assert rep.failures == 0


def test_rejected_draws_are_redrawn_not_counted():
    # the gauss suite redraws singular forms: seed 8 rejects its first draw
    rng = random.Random(8)
    outcomes = [verify._gauss(rng) for _ in range(4)]
    assert outcomes[0] is None and None not in outcomes[1:]
    rep = verify.suite_gauss(8, cases=3)
    assert rep.cases == 3
    assert rep.max_error == max(outcomes[1:])


def test_run_counts_only_accepted_cases_then_fixed():
    draws = []

    def case(rng):
        x = rng.random()
        draws.append(x)
        return None if x < 0.5 else (x, {"x": x})

    rep = verify._run("toy", 3, 1.0, 4, case, fixed=iter([2.0]))
    accepted = [x for x in draws if x >= 0.5]
    assert len(accepted) == 4 and len(draws) > 4
    assert rep.cases == 5 and rep.failures == 1
    assert rep.details == [{"x": x} for x in accepted]
    assert rep.max_error == 2.0


@pytest.mark.parametrize(
    "seed, taus",
    [
        (0, [0, 2, 1, 0, -1, 0]),
        (1, [0, -2, -1, 1, -1, 0]),
        (2, [1, 0, 1, -1, -1, 1]),
    ],
)
def test_triple_details_pin_the_stream(seed, taus):
    rep = verify.suite_triple(seed, cases=6)
    assert [d["tau"] for d in rep.details] == taus
    assert all(type(d["tau"]) is int for d in rep.details)
