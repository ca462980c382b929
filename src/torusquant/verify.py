"""Randomized verification suites at desk scale (g <= 2, k <= 4).

Every suite draws its instances from a seeded generator, checks one family of
identities (unitarity, composition phases, oracle agreement, index axioms,
group laws, counting), and reports cases / failures / worst error.  The
command line front end serializes the reports; the acceptance tests pin the
case counts and tolerances.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import TorusQuantError
from .exact import (
    UnitPhase,
    coset_reps,
    det,
    gauss_reciprocity_check,
    mat_mul,
    multixgcd,
    right_kernel,
    solve_underdetermined,
    vec_mat,
)
from .lattice import (
    AdaptedBasis,
    Lagrangian,
    SymplecticSpace,
    adapted_basis,
    intersect,
    pair_adapted_bases,
)
from .maslov import (
    LagrangianLift,
    MpElement,
    SpElement,
    _generator,
    maslov_index,
    mp_generator,
    mp_mul,
    triple_index,
    triple_index_transverse,
)
from .quantize import (
    HilbertSpace,
    Polarization,
    bks_matrix,
    bks_matrix_nontransverse,
    corrected_intertwiner,
    frame_potential,
    intersection_points,
    unitarity_defect,
)
from .representations import (
    HeisenbergElement,
    heisenberg_in_frame,
    heisenberg_matrix,
    heisenberg_mul,
    mp_operator,
    sp_operator,
)

UNITARITY_CASES = 200
TRIPLE_CASES = 100
CORRECTED_CASES = 100
GAUSS_CASES = 100
TAU_CASES = 200
MU_CASES = 100
DEFAULT_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-12


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: int = 0
    max_error: float = 0.0
    tolerance: float = DEFAULT_TOLERANCE
    details: list = field(default_factory=list)

    def record(self, err, detail=None) -> None:
        err = float(err)
        self.cases += 1
        if not math.isfinite(err) or err > self.tolerance:
            self.failures += 1
        self.max_error = max(self.max_error, err)
        if detail is not None:
            self.details.append(detail)

    def as_dict(self, with_details: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
        }
        if with_details and self.details:
            out["details"] = self.details
        return out


# ---------------------------------------------------------------------------
# seeded instance generators


def random_primitive_vector(rng: random.Random, n: int, bound: int = 3) -> tuple:
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v) and multixgcd(v)[0] == 1:
            return v


def random_lagrangian(
    rng: random.Random,
    space: SymplecticSpace,
    rank: int | None = None,
    contains=(),
    bound: int = 2,
) -> Lagrangian:
    """A random rational Lagrangian of the given rank through given rows."""
    rank = space.g if rank is None else rank
    rows = [tuple(r) for r in contains]
    while len(rows) < rank:
        if not rows:
            cand = random_primitive_vector(rng, space.dim, bound)
        else:
            kern = right_kernel(mat_mul(rows, [list(r) for r in space.gram]))
            coeffs = [rng.randint(-bound, bound) for _ in kern]
            cand = vec_mat(coeffs, kern) if any(coeffs) else None
        if cand is None or not any(cand):
            continue
        try:
            bigger = Lagrangian.make(space, rows + [cand])
        except TorusQuantError:
            continue
        if bigger.rank == len(rows) + 1:
            rows = list(bigger.gens)
    return Lagrangian.make(space, rows)


def random_pair(rng: random.Random, space: SymplecticSpace):
    """A mixed-transversality pair of full Lagrangians."""
    l1 = random_lagrangian(rng, space)
    kind = rng.random()
    if kind < 0.15:
        return l1, l1
    if kind < 0.5 and space.g > 1:
        shared = [l1.gens[rng.randrange(l1.rank)]]
        return l1, random_lagrangian(rng, space, contains=shared)
    return l1, random_lagrangian(rng, space)


def random_unimodular(rng: random.Random, g: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        if kind == 0 and g > 1:
            i, j = rng.sample(range(g), 2)
            c = rng.choice([-2, -1, 1, 2])
            for col in range(g):
                m[i][col] += c * m[j][col]
        elif kind == 1:
            i = rng.randrange(g)
            for col in range(g):
                m[i][col] = -m[i][col]
        elif g > 1:
            i, j = rng.sample(range(g), 2)
            m[i], m[j] = m[j], m[i]
    return m


def random_symmetric(rng: random.Random, g: int, bound: int = 2) -> list[list[int]]:
    b = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            b[i][j] = b[j][i] = rng.randint(-bound, bound)
    return b


def _random_generators(rng: random.Random, basis: AdaptedBasis, length: int):
    """A seeded word of mp_generator arguments (kind, a, b), drawn in order."""
    g = basis.space.g
    word = []
    for _ in range(length):
        kind = rng.choice(["alpha", "beta", "gamma", "epsilon"])
        a = random_unimodular(rng, g) if kind == "alpha" else None
        b = random_symmetric(rng, g) if kind == "beta" else None
        word.append((kind, a, b))
    return word or [("epsilon", None, None)]


def random_mp_word(
    rng: random.Random, basis: AdaptedBasis, length: int
) -> MpElement:
    word = [mp_generator(basis, *x) for x in _random_generators(rng, basis, length)]
    return functools.reduce(mp_mul, word)


def random_sp(rng: random.Random, basis: AdaptedBasis, length: int = 3) -> SpElement:
    """The map of random_mp_word(rng, basis, length), from the same draws,
    without the central indices."""
    word = [_generator(basis, *x)[0] for x in _random_generators(rng, basis, length)]
    return functools.reduce(operator.mul, word)


def random_lift(
    rng: random.Random, base: Lagrangian, lag: Lagrangian, q: int = 4
) -> LagrangianLift:
    g = base.space.g
    parity = (g - intersect(lag, base).rank) % 2
    return LagrangianLift(base, lag, parity + 2 * rng.randrange(2 * q), q)


def _spaces_for(rng, grid=((1, 2), (1, 4), (2, 2), (2, 4))):
    g, k = grid[rng.randrange(len(grid))]
    return SymplecticSpace.standard(g), k


# ---------------------------------------------------------------------------
# oracle helpers (independent of the closed-form route)


def pairing_oracle_transverse(h1: HilbertSpace, h2: HilbertSpace) -> np.ndarray:
    """Defining-integral route: sum the section pairing over the actual
    Bohr-Sommerfeld intersection points, via the adapted potentials."""
    k = h1.k
    space = h1.pol.space
    b1, b2 = h1.pol.basis, h2.pol.basis
    d = det([[space.omega(a, b) for b in b1.w] for a in b2.w])
    norm = 1.0 / math.sqrt(abs(k**h1.g * d))
    out = np.zeros((h2.dim, h1.dim), dtype=complex)
    for i1, q1 in enumerate(h1.labels):
        for i2, q2 in enumerate(h2.labels):
            acc = 0j
            for x in intersection_points(h1, h2, q1, q2):
                t = 2 * k * (frame_potential(h2.pol, x) - frame_potential(h1.pol, x))
                acc += cmath.exp(1j * math.pi * float(t % 2))
            out[i2, i1] = norm * acc
    return out


def pairing_oracle_nontransverse(h1: HilbertSpace, h2: HilbertSpace) -> np.ndarray:
    """Leafwise-constant route for pair-adapted nontransverse frames: solve
    the label congruence system per coset and evaluate the potentials there."""
    k = h1.k
    space = h1.pol.space
    g = h1.g
    b1, b2 = h1.pol.basis, h2.pol.basis
    l12 = intersect(h1.pol.lag, h2.pol.lag)
    h = g - l12.rank
    red21 = [[space.omega(b2.w[i], b1.w[j]) for j in range(h)] for i in range(h)]
    d = det(red21)
    norm = 1.0 / math.sqrt(abs(k**h * d))
    reps = coset_reps(red21) if h else [()]
    rows = [list(w) for w in b1.w] + [list(b2.w[i]) for i in range(h)]
    system = mat_mul(rows, [list(r) for r in space.gram])
    out = np.zeros((h2.dim, h1.dim), dtype=complex)
    for i1, q1 in enumerate(h1.labels):
        for i2, q2 in enumerate(h2.labels):
            if q1[h:] != q2[h:]:
                continue
            acc = 0j
            for l in reps:
                rhs = [Fraction(q, k) for q in q1]
                rhs += [Fraction(q2[i], k) + l[i] for i in range(h)]
                x = solve_underdetermined(system, rhs)
                t = 2 * k * (frame_potential(h2.pol, x) - frame_potential(h1.pol, x))
                acc += cmath.exp(1j * math.pi * float(t % 2))
            out[i2, i1] = norm * acc
    return out


def brute_force_point_count(h1: HilbertSpace, h2: HilbertSpace, q1, q2) -> int:
    """g = 1 congruence enumeration on the denominator grid (independent of
    the linear-solve route)."""
    space = h1.pol.space
    if space.g != 1:
        raise ValueError("brute force enumeration is a g = 1 oracle")
    k = h1.k
    w1 = h1.pol.basis.w[0]
    w2 = h2.pol.basis.w[0]
    d = abs(space.omega(w2, w1))
    den = k * d
    count = 0
    for i in range(den):
        for j in range(den):
            x = (Fraction(i, den), Fraction(j, den))
            t1 = k * space.omega(w1, x)
            t2 = k * space.omega(w2, x)
            if t1.denominator != 1 or t2.denominator != 1:
                continue
            if t1 % k == q1[0] % k and t2 % k == q2[0] % k:
                count += 1
    return count


def exact_backend_defect(inter) -> float:
    """Worst entrywise gap between the exact phase table and the float matrix,
    on a route of its own: exponents looked up in a phase list built with
    cmath, not PhaseTable.value(), whose entries from den on are the first
    den negated (e^{i pi (n + den) / den} = -e^{i pi n / den})."""
    ex = inter.exact
    unit = np.array([cmath.exp(1j * math.pi * n / ex.den) for n in range(ex.den)])
    gap = np.concatenate([unit, -unit])[ex.nums].sum(axis=-1)
    gap /= math.sqrt(ex.amp2)
    np.copyto(gap, 0, where=~ex.live)
    gap -= inter.matrix
    return float(np.abs(gap).max())


# ---------------------------------------------------------------------------
# suites


def suite_unitarity(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = UNITARITY_CASES) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("unitarity", tolerance=tolerance)
    for _ in range(cases):
        space, k = _spaces_for(rng)
        l1, l2 = random_pair(rng, space)
        hs1 = HilbertSpace(k, Polarization.canonical(l1))
        hs2 = HilbertSpace(k, Polarization.canonical(l2))
        f = bks_matrix(hs1, hs2)
        back = bks_matrix(hs2, hs1)
        err = unitarity_defect(f.matrix)
        err = max(err, float(np.abs(back.matrix @ f.matrix - np.eye(hs1.dim)).max()))
        rep.record(err)
    return rep


def suite_triple(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = TRIPLE_CASES) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("triple", tolerance=tolerance)
    for _ in range(cases):
        space, k = _spaces_for(rng)
        l1, _ = random_pair(rng, space)
        l2, l3 = random_pair(rng, space)
        hs = [HilbertSpace(k, Polarization.canonical(l)) for l in (l1, l2, l3)]
        comp = (
            bks_matrix(hs[2], hs[0]).matrix
            @ bks_matrix(hs[1], hs[2]).matrix
            @ bks_matrix(hs[0], hs[1]).matrix
        )
        tau = triple_index(l1, l2, l3)
        diag = np.diag(comp)
        off = float(np.abs(comp - np.diag(diag)).max())
        c = complex(diag.mean())
        spread = float(np.abs(diag - c).max())
        phase_err = abs(cmath.exp(1j * (cmath.phase(c) + math.pi * tau / 4)) - 1)
        err = max(off, spread, phase_err, abs(abs(c) - 1))
        rep.record(
            err,
            detail={
                "tau": tau,
                "arg": cmath.phase(c),
                "expected_arg": float((-math.pi * tau / 4 + math.pi) % (2 * math.pi) - math.pi),
            },
        )
    return rep


def suite_corrected(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = CORRECTED_CASES) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("corrected", tolerance=tolerance)
    for _ in range(cases):
        space, k = _spaces_for(rng)
        base = random_lagrangian(rng, space)
        l1, _ = random_pair(rng, space)
        l2, l3 = random_pair(rng, space)
        lifts = [random_lift(rng, base, l) for l in (l1, l2, l3)]
        comp = (
            corrected_intertwiner(lifts[2], lifts[0], k).matrix
            @ corrected_intertwiner(lifts[1], lifts[2], k).matrix
            @ corrected_intertwiner(lifts[0], lifts[1], k).matrix
        )
        rep.record(float(np.abs(comp - np.eye(comp.shape[0])).max()))
    return rep


def suite_oracle(seed: int, tolerance: float = ORACLE_TOLERANCE, cases: int = 60) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("oracle", tolerance=tolerance)
    # g = 1: all transverse pairs from a small primitive menu, k in {2, 4}
    space1 = SymplecticSpace.standard(1)
    menu = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                lag = Lagrangian.make(space1, [[a, b]])
                if lag not in menu:
                    menu.append(lag)
    for l1 in menu:
        for l2 in menu:
            if intersect(l1, l2).rank:
                continue
            for k in (2, 4):
                hs1 = HilbertSpace(k, Polarization.canonical(l1))
                hs2 = HilbertSpace(k, Polarization.canonical(l2))
                f = bks_matrix(hs1, hs2)
                err = float(np.abs(pairing_oracle_transverse(hs1, hs2) - f.matrix).max())
                rep.record(max(err, exact_backend_defect(f)))
    # g = 2: random pairs, both transversality classes
    space2 = SymplecticSpace.standard(2)
    done = 0
    while done < cases:
        k = rng.choice((2, 4))
        l1, l2 = random_pair(rng, space2)
        meet = intersect(l1, l2)
        if meet.rank == 0:
            hs1 = HilbertSpace(k, Polarization.canonical(l1))
            hs2 = HilbertSpace(k, Polarization.canonical(l2))
            if abs(det(space2.block(hs2.pol.basis.w, hs1.pol.basis.w))) > 6:
                continue
            f = bks_matrix(hs1, hs2)
            oracle = pairing_oracle_transverse(hs1, hs2)
        else:
            b1, b2 = pair_adapted_bases(l1, l2)
            hs1 = HilbertSpace(k, Polarization(l1, b1))
            hs2 = HilbertSpace(k, Polarization(l2, b2))
            f = bks_matrix_nontransverse(hs1, hs2)
            oracle = pairing_oracle_nontransverse(hs1, hs2)
        err = float(np.abs(oracle - f.matrix).max())
        rep.record(max(err, exact_backend_defect(f)))
        done += 1
    return rep


def suite_gauss(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = GAUSS_CASES) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("gauss", tolerance=tolerance)
    done = 0
    while done < cases:
        g = rng.randrange(1, 4)
        q = random_symmetric(rng, g, bound=5)
        if det(q) == 0:
            continue
        a = 2 * rng.randrange(1, 5)
        w = [Fraction(rng.randrange(-a, a + 1), a) for _ in range(g)]
        lhs, rhs = gauss_reciprocity_check(q, a, w)
        rep.record(abs(lhs - rhs))
        done += 1
    return rep


def suite_tau(seed: int, tolerance: float = 0.0, cases: int = TAU_CASES) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("tau", tolerance=tolerance)
    for _ in range(cases):
        space, _ = _spaces_for(rng)
        g = space.g
        basis = adapted_basis(random_lagrangian(rng, space))
        l1, _ = random_pair(rng, space)
        l2, l3 = random_pair(rng, space)
        l4, _ = random_pair(rng, space)
        t123 = triple_index(l1, l2, l3)
        err = 0
        # invariance under an integer symplectic map
        b = random_sp(rng, basis)
        err = max(
            err,
            abs(
                triple_index(
                    b.apply_lagrangian(l1),
                    b.apply_lagrangian(l2),
                    b.apply_lagrangian(l3),
                )
                - t123
            ),
        )
        # odd permutations flip the sign, even ones preserve it
        err = max(err, abs(triple_index(l2, l1, l3) + t123))
        err = max(err, abs(triple_index(l2, l3, l1) - t123))
        # cocycle identity on the quadruple
        coc = (
            t123
            - triple_index(l1, l2, l4)
            + triple_index(l1, l3, l4)
            - triple_index(l2, l3, l4)
        )
        err = max(err, abs(coc))
        # parity
        par = (
            g
            + intersect(l1, l2).rank
            + intersect(l2, l3).rank
            + intersect(l3, l1).rank
        ) % 2
        err = max(err, (t123 - par) % 2)
        # transverse route agrees when defined
        if intersect(l1, l3).rank == 0:
            err = max(err, abs(triple_index_transverse(l1, l2, l3) - t123))
        rep.record(err)
    return rep


def suite_mu(seed: int, tolerance: float = 0.0, cases: int = MU_CASES) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("mu", tolerance=tolerance)
    for _ in range(cases):
        space, _ = _spaces_for(rng)
        g = space.g
        q = rng.choice((1, 2, 4))
        base = random_lagrangian(rng, space)
        l1, _ = random_pair(rng, space)
        l2, l3 = random_pair(rng, space)
        a = random_lift(rng, base, l1, q)
        b = random_lift(rng, base, l2, q)
        c = random_lift(rng, base, l3, q)
        err = 0
        coc = (
            maslov_index(a, b, q)
            - maslov_index(a, c, q)
            + maslov_index(b, c, q)
            - triple_index(l1, l2, l3)
        ) % (2 * q)
        err = max(err, coc)
        err = max(err, (maslov_index(a, b, q) + maslov_index(b, a, q)) % (2 * q))
        par = (maslov_index(a, b, q) - (g - intersect(l1, l2).rank)) % 2
        err = max(err, par)
        rep.record(err)
    return rep


def suite_heisenberg(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = 60) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("heisenberg", tolerance=tolerance)

    def random_element(k, pol):
        n = tuple(rng.randrange(k) for _ in range(pol.space.dim))
        phase = UnitPhase.of(Fraction(rng.randrange(8), 4))
        return HeisenbergElement(k, phase, n, pol)

    for _ in range(cases):
        space, k = _spaces_for(rng)
        l1, l2 = random_pair(rng, space)
        p1 = Polarization.canonical(l1)
        p2 = Polarization.canonical(l2)
        hs1 = HilbertSpace(k, p1)
        hs2 = HilbertSpace(k, p2)
        x, y = random_element(k, p1), random_element(k, p1)
        # multiplicativity of the action
        lhs = heisenberg_matrix(x, hs1).matrix @ heisenberg_matrix(y, hs1).matrix
        rhs = heisenberg_matrix(heisenberg_mul(x, y), hs1).matrix
        err = float(np.abs(lhs - rhs).max())
        err = max(err, unitarity_defect(heisenberg_matrix(x, hs1).matrix))
        # the pairing intertwines the two actions
        f = bks_matrix(hs1, hs2)
        moved = heisenberg_in_frame(x, p2)
        lhs = f.matrix @ heisenberg_matrix(x, hs1).matrix
        rhs = heisenberg_matrix(moved, hs2).matrix @ f.matrix
        err = max(err, float(np.abs(lhs - rhs).max()))
        rep.record(err)

    # irreducibility witness for g = 1: only scalars commute with the action
    for k in (2, 4):
        space = SymplecticSpace.standard(1)
        pol = Polarization.canonical(Lagrangian.make(space, [[1, 0]]))
        hs = HilbertSpace(k, pol)
        gens = []
        for unit in ((1, 0), (0, 1)):
            gens.append(heisenberg_matrix(HeisenbergElement.of(k, unit, pol), hs).matrix)
        dim = hs.dim
        rows = []
        for gmat in gens:
            op = np.kron(np.eye(dim), gmat) - np.kron(gmat.T, np.eye(dim))
            rows.append(op)
        stacked = np.vstack(rows)
        svals = np.linalg.svd(stacked, compute_uv=False)
        commutant_dim = int(np.sum(svals < 1e-9))
        rep.record(0.0 if commutant_dim == 1 else float(commutant_dim))
    return rep


def suite_mp(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = 40) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("mp", tolerance=tolerance)
    for _ in range(cases):
        space, k = _spaces_for(rng)
        lag = random_lagrangian(rng, space)
        pol = Polarization.canonical(lag)
        hs = HilbertSpace(k, pol)
        basis = pol.basis
        # projective cocycle of the symplectic operators
        b1 = random_sp(rng, basis, rng.randrange(1, 4))
        b2 = random_sp(rng, basis, rng.randrange(1, 4))
        u1 = sp_operator(b1, hs).matrix
        u2 = sp_operator(b2, hs).matrix
        u12 = sp_operator(b1 * b2, hs).matrix
        tau = triple_index(
            lag,
            b1.apply_lagrangian(lag),
            (b1 * b2).apply_lagrangian(lag),
        )
        expected = cmath.exp(1j * math.pi * tau / 4)
        err = float(np.abs(u1 @ u2 - expected * u12).max())
        err = max(err, unitarity_defect(u1))
        # multiplicativity of the metaplectic operators
        x = random_mp_word(rng, basis, rng.randrange(1, 5))
        y = random_mp_word(rng, basis, rng.randrange(1, 5))
        ux = mp_operator(x, hs).matrix
        uy = mp_operator(y, hs).matrix
        uxy = mp_operator(mp_mul(x, y), hs).matrix
        err = max(err, float(np.abs(ux @ uy - uxy).max()))
        rep.record(err)

    # pinned g = 1 matrices of the metaplectic generators
    space = SymplecticSpace.standard(1)
    pol = Polarization.canonical(Lagrangian.make(space, [[1, 0]]))
    for k in (2, 4):
        hs = HilbertSpace(k, pol)
        gamma = mp_generator(pol.basis, "gamma")
        eps = mp_generator(pol.basis, "epsilon")
        s_tilde = mp_mul(gamma, eps)
        t_tilde = mp_generator(pol.basis, "beta", b=[[1]])
        us = mp_operator(s_tilde, hs).matrix
        ut = mp_operator(t_tilde, hs).matrix
        pinned_s = np.array(
            [
                [
                    cmath.exp(5j * math.pi / 4) * cmath.exp(2j * math.pi * q * q1 / k)
                    for q1 in range(k)
                ]
                for q in range(k)
            ]
        ) / math.sqrt(k)
        pinned_t = np.diag([cmath.exp(1j * math.pi * q * q / k) for q in range(k)])
        err = float(np.abs(us - pinned_s).max())
        err = max(err, float(np.abs(ut - pinned_t).max()))
        err = max(err, float(np.abs(np.linalg.matrix_power(us @ ut, 3) - np.eye(k)).max()))
        err = max(err, float(np.abs(np.linalg.matrix_power(us, 4) + np.eye(k)).max()))
        err = max(err, float(np.abs(mp_operator(eps, hs).matrix + np.eye(k)).max()))
        rep.record(err)
    return rep


def suite_counting(seed: int, tolerance: float = 0.0, cases: int = 60) -> SuiteReport:
    rng = random.Random(seed)
    rep = SuiteReport("counting", tolerance=tolerance)
    for _ in range(cases):
        space, k = _spaces_for(rng)
        l1, l2 = random_pair(rng, space)
        hs1 = HilbertSpace(k, Polarization.canonical(l1))
        hs2 = HilbertSpace(k, Polarization.canonical(l2))
        err = abs(len(hs1.labels) - k**space.g)
        if intersect(l1, l2).rank == 0:
            d = abs(det(space.block(hs2.pol.basis.w, hs1.pol.basis.w)))
            q1 = tuple(rng.randrange(k) for _ in range(space.g))
            q2 = tuple(rng.randrange(k) for _ in range(space.g))
            pts = intersection_points(hs1, hs2, q1, q2)
            err = max(err, abs(len(pts) - d))
            if space.g == 1 and k * d <= 8:
                err = max(err, abs(brute_force_point_count(hs1, hs2, q1, q2) - d))
        rep.record(err)
    return rep


SUITES = {
    "unitarity": suite_unitarity,
    "triple": suite_triple,
    "corrected": suite_corrected,
    "oracle": suite_oracle,
    "gauss": suite_gauss,
    "tau": suite_tau,
    "mu": suite_mu,
    "heisenberg": suite_heisenberg,
    "mp": suite_mp,
    "counting": suite_counting,
}


def run_suites(names=None, seed: int = 0, tolerance: float | None = None) -> list[SuiteReport]:
    chosen = list(SUITES) if not names else list(names)
    reports = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite: {name!r}")
        fn = SUITES[name]
        if tolerance is None or name in ("tau", "mu", "counting"):
            reports.append(fn(seed))
        else:
            reports.append(fn(seed, tolerance))
    return reports
