"""Seeded inputs, calls and output checks of the benchmark workloads.

A workload is a stream of passes.  Pass ``i`` of workload ``w`` under seed
``s`` is built from ``random.Random(f"{s}/{w}/{i}")`` alone, so the same seed
gives the same inputs, and no two passes share an input: a cache keyed by
inputs gets no hit that real traffic would not give it.

Each call looks its function up as a module attribute when it runs
(``quantize.bks_matrix``, not a name bound at import), so the span wrappers
of ``spans.Tracer`` see every call the benchmark makes.

- ``pairing``: ROADMAP's fixed (g, k, |det omega21|) grid of ``bks_matrix``
  calls, with its g = 3 baseline row, plus one ``corrected_intertwiner``.  Phase-table and ``PhaseSum``
  assembly do nearly all the work here, lattice set-up almost none.
- ``operators``: Heisenberg, Sp and Mp operators at (g, k) = (2, 8) and
  (1, 64).  They are permutations times phases built as dense matrices and
  frame changes; their inner pairings have |det omega21| = 1.  The mix leans
  on Heisenberg calls so that the dense-operator layers, not
  ``PhaseSum.build``, carry most of the time.
- ``desk``: one-case calls ``verify.suite_<name>(seed_i, cases=1)`` over the
  nine suites whose cost scales with ``cases`` (``oracle`` runs a fixed menu
  worth about 100 ordinary cases whatever ``cases`` is).  Fixed per-call cost
  dominates, and it is the only workload where ``lattice``, ``maslov`` and
  ``verify`` do measurable work.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from torusquant import exact, lattice, quantize, representations, verify

from spans import DESK_SUITES

# Output checks, the tolerances of verify's floating suites and oracle.
UNITARITY_TOL = 1e-9
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class Call:
    label: str  # the call class, for per-class latency in the summary
    key: str  # the call's inputs, written out for the input digest
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _intertwiner_ok(inter) -> bool:
    if quantize.unitarity_defect(inter.matrix) > UNITARITY_TOL:
        return False
    return inter.exact is None or verify.exact_backend_defect(inter) <= EXACT_TOL


def _operator_ok(rep) -> bool:
    return quantize.unitarity_defect(rep.matrix) <= UNITARITY_TOL


def _report_ok(report) -> bool:
    return report.failures == 0


# ---------------------------------------------------------------------------
# pairing

# (label, g, k, corrected, b): the second Lagrangian is spanned by the rows
# a_i e_i + b_i f_i against the first, span(e_1..e_g), so |det omega21| is
# the product of the b_i, and b_i = 0 makes e_i a shared direction.  A seeded
# integer symplectic map then moves both Lagrangians, which keeps |det|.
PAIRING_GRID = (
    ("g1 k64 d5", 1, 64, False, (5,)),
    ("g1 k128 d1", 1, 128, False, (1,)),
    ("g2 k8 d1", 2, 8, False, (1, 1)),
    ("g2 k8 d4", 2, 8, False, (2, 2)),
    ("g2 k8 d9", 2, 8, False, (3, 3)),
    ("g2 k8 nontransverse d2", 2, 8, False, (2, 0)),
    ("g2 k16 d1", 2, 16, False, (1, 1)),
    ("g3 k4 d1", 3, 4, False, (1, 1, 1)),
    ("g2 k8 corrected d4", 2, 8, True, (2, 2)),
)


def _hilbert(k, lag):
    return quantize.HilbertSpace(k, quantize.Polarization.canonical(lag))


def _pairing_call(rng, label, g, k, corrected, bs) -> Call:
    space = lattice.SymplecticSpace.standard(g)
    unit = [[int(i == j) for j in range(2 * g)] for i in range(g)]
    rows = []
    for i, b in enumerate(bs):
        row = [0] * (2 * g)
        row[i] = rng.choice([a for a in range(-2, 3) if math.gcd(a, b) == 1])
        row[g + i] = b
        rows.append(row)
    l1 = lattice.Lagrangian.make(space, unit)
    l2 = lattice.Lagrangian.make(space, rows)
    move = verify.random_sp(rng, lattice.adapted_basis(l1), 3)
    l1, l2 = move.apply_lagrangian(l1), move.apply_lagrangian(l2)
    key = f"{label}|{l1.gens}|{l2.gens}"
    if corrected:
        lift1 = verify.random_lift(rng, l1, l1)
        lift2 = verify.random_lift(rng, l1, l2)
        key += f"|{lift1.lam},{lift2.lam}"
        run = lambda: quantize.corrected_intertwiner(lift1, lift2, k)  # noqa: E731
    else:
        h1, h2 = _hilbert(k, l1), _hilbert(k, l2)
        run = lambda: quantize.bks_matrix(h1, h2)  # noqa: E731
    return Call(label, key, run, _intertwiner_ok)


def _pairing_pass(rng):
    return [_pairing_call(rng, *point) for point in PAIRING_GRID], 0


# ---------------------------------------------------------------------------
# operators

OPERATOR_SIZES = ((2, 8), (1, 64))
# calls per size and pass: Heisenberg, Sp, Mp
OPERATOR_MIX = (40, 3, 1)


def _operators_pass(rng):
    calls = []
    n_heis, n_sp, n_mp = OPERATOR_MIX
    for g, k in OPERATOR_SIZES:
        space = lattice.SymplecticSpace.standard(g)
        pol = quantize.Polarization.canonical(verify.random_lagrangian(rng, space))
        hs = quantize.HilbertSpace(k, pol)
        where = f"g{g} k{k}"
        for _ in range(n_heis):
            n = tuple(rng.randrange(k) for _ in range(2 * g))
            phase = exact.UnitPhase.of(Fraction(rng.randrange(8), 4))
            x = representations.HeisenbergElement(k, phase, n, pol)
            calls.append(
                Call(
                    f"heisenberg_matrix {where}",
                    f"heisenberg|{where}|{pol.lag.gens}|{n}|{phase.t}",
                    lambda x=x, hs=hs: representations.heisenberg_matrix(x, hs),
                    _operator_ok,
                )
            )
        for _ in range(n_sp):
            b = verify.random_sp(rng, pol.basis, rng.randrange(1, 5))
            calls.append(
                Call(
                    f"sp_operator {where}",
                    f"sp|{where}|{pol.lag.gens}|{b.mat}",
                    lambda b=b, hs=hs: representations.sp_operator(b, hs),
                    _operator_ok,
                )
            )
        for _ in range(n_mp):
            w = verify.random_mp_word(rng, pol.basis, rng.randrange(1, 5))
            calls.append(
                Call(
                    f"mp_operator {where}",
                    f"mp|{where}|{pol.lag.gens}|{w.b.mat}|{w.z}",
                    lambda w=w, hs=hs: representations.mp_operator(w, hs),
                    _operator_ok,
                )
            )
    rng.shuffle(calls)
    return calls, 0


# ---------------------------------------------------------------------------
# desk

DESK_PER_SUITE = 10  # one-case calls per suite and pass
# Desk scale is bounded by the phase terms a case assembles.  Without a bound
# one case in ten of triple/corrected draws |det omega21| in the tens to
# hundreds at g = 2, k = 4 and takes 0.2 to 15 s, so a single draw sets a
# run's throughput and tail.  That regime is the pairing workload's.
DESK_TERM_BUDGET = 4096
# pairing matrices assembled per drawn pair: unitarity pairs both ways, and
# corrected rebuilds every entry once more to apply the Maslov phase
_DESK_ASSEMBLIES = {"unitarity": 2, "triple": 1, "corrected": 2, "heisenberg": 1}


def desk_pairs(suite: str, seed: int):
    """(k, pairs of Lagrangians) whose pairing matrices the one-case call
    ``suite_<suite>(seed, cases=1)`` builds from a random pair.

    Replays the suite's first seeded draws without running the suite; the
    self-test checks the replay against the pairs the suite really pairs.
    """
    rng = random.Random(seed)
    space, k = verify._spaces_for(rng)
    if suite in ("unitarity", "heisenberg"):
        return k, [verify.random_pair(rng, space)]
    if suite in ("triple", "corrected"):
        if suite == "corrected":
            verify.random_lagrangian(rng, space)
        l1, _ = verify.random_pair(rng, space)
        l2, l3 = verify.random_pair(rng, space)
        return k, [(l1, l2), (l2, l3), (l3, l1)]
    return k, []


def desk_terms(suite: str, seed: int) -> int:
    """Phase terms the one-case call assembles in its random-pair pairings:
    dim^2 entries of |det omega21| terms each (one term when nontransverse)."""
    k, pairs = desk_pairs(suite, seed)
    total = 0
    for l1, l2 in pairs:
        space = l1.space
        d = abs(exact.det([[space.omega(a, b) for b in l1.gens] for a in l2.gens]))
        total += k ** (2 * space.g) * max(d, 1)
    return total * _DESK_ASSEMBLIES.get(suite, 1)


def _desk_pass(rng):
    seeds = {suite: [] for suite in DESK_SUITES}
    skipped = 0
    for suite in DESK_SUITES:
        while len(seeds[suite]) < DESK_PER_SUITE:
            seed = rng.randrange(2**31)
            if desk_terms(suite, seed) > DESK_TERM_BUDGET:
                skipped += 1
            else:
                seeds[suite].append(seed)
    calls = []
    for r in range(DESK_PER_SUITE):
        for suite in DESK_SUITES:
            seed = seeds[suite][r]
            calls.append(
                Call(
                    suite,
                    f"{suite}|{seed}",
                    lambda fn="suite_" + suite, seed=seed: getattr(verify, fn)(seed, cases=1),
                    _report_ok,
                )
            )
    return calls, skipped


_PASSES = {"pairing": _pairing_pass, "operators": _operators_pass, "desk": _desk_pass}


def make_pass(workload: str, seed: int, index) -> tuple[list[Call], int]:
    """The calls of one pass and the number of candidate inputs it skipped."""
    return _PASSES[workload](random.Random(f"{seed}/{workload}/{index}"))


def input_digest(calls) -> str:
    h = hashlib.sha256()
    for call in calls:
        h.update(call.key.encode())
        h.update(b"\n")
    return h.hexdigest()
