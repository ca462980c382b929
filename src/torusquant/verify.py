"""Randomized verification suites at desk scale (g <= 2, k <= 4).

Every suite checks one family of identities (unitarity, composition phases,
oracle agreement, index axioms, group laws, counting) and reports cases /
failures / worst error.  A suite is one draw-and-check, `_<name>(rng)`: it
draws one instance from the generator and returns its error, (error, detail),
or None to reject the draw.  One loop, `_run`, owns the Random(seed) and the
report: it counts `cases` accepted draws, redraws rejected ones, then records
the suite's fixed checks, which draw nothing (oracle's g = 1 menu,
Heisenberg's irreducibility witness, the pinned g = 1 Mp matrices).  The
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

from .exact import (
    UnitPhase,
    det,
    gauss_reciprocity_check,
    hnf_rows,
    is_primitive,
    mat_mul,
    right_kernel,
    vec_mat,
)
from .lattice import (
    AdaptedBasis,
    Lagrangian,
    SymplecticSpace,
    _trusted,
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
    _leaf_points,
    _pair_adapted_or_raise,
    bks_matrix,
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
        if is_primitive([v]):
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
    kern = ()
    while len(rows) < rank:
        if not rows:
            cand = random_primitive_vector(rng, space.dim, bound)
        else:
            kern = kern or right_kernel(mat_mul(rows, space.gram))
            coeffs = [rng.randint(-bound, bound) for _ in kern]
            cand = vec_mat(coeffs, kern) if any(coeffs) else None
        if cand is None or not any(cand):
            continue
        # a kernel vector pairs to zero with rows: what is left to check is
        # that the bigger family is independent and spans a primitive lattice
        if is_primitive(rows + [cand]):
            rows, kern = list(hnf_rows(rows + [cand])), ()
    # drawn rows are checked as they are accepted; given rows are not
    if contains:
        return Lagrangian.make(space, rows)
    return _trusted(Lagrangian, space=space, gens=tuple(rows))


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


def pairing_oracle(h1: HilbertSpace, h2: HilbertSpace) -> np.ndarray:
    """Defining-sum route: sum the section pairing over points of the
    Bohr-Sommerfeld leaves, via the adapted potentials, for frames that share
    their intersection pairs (those of pair_adapted_bases; canonical frames
    for a transverse pair).  A transverse pair sums over all |det omega21|
    intersection points; a nontransverse one over one point per leaf and
    coset, as the potential difference is constant along a leaf."""
    k, g = h1.k, h1.g
    h = _pair_adapted_or_raise(h1, h2) if intersect(h1.pol.lag, h2.pol.lag).rank else g
    pairs = [(q1, q2) for q1 in h1.labels for q2 in h2.labels if q1[h:] == q2[h:]]
    d, points = _leaf_points(h1.pol.basis, h2.pol.basis, k, h, pairs)
    # the potentials are quadratic: K(X / (k d)) = K(X) / (k d)^2
    den2 = (k * d) ** 2
    norm = 1.0 / math.sqrt(abs(k**h * d))
    out = np.zeros((h2.dim, h1.dim), dtype=complex)
    for (q1, q2), xs in zip(pairs, points):
        acc = 0j
        for x in xs:
            t = 2 * k * (frame_potential(h2.pol, x) - frame_potential(h1.pol, x)) / den2
            acc += cmath.exp(1j * math.pi * float(t % 2))
        out[h2.label_index(q2), h1.label_index(q1)] = norm * acc
    return out


def brute_force_point_count(h1: HilbertSpace, h2: HilbertSpace, q1, q2) -> int:
    """g = 1 congruence enumeration on the denominator grid (independent of
    the point routine of pairing_oracle and intersection_points)."""
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
    den negated (e^{i pi (n + den) / den} = -e^{i pi n / den}).  A table of
    one term per entry is gathered, not summed."""
    ex = inter.exact
    unit = np.array([cmath.exp(1j * math.pi * n / ex.den) for n in range(ex.den)])
    unit = np.concatenate([unit, -unit])
    gap = unit[ex.nums[..., 0]] if ex.nums.shape[-1] == 1 else unit[ex.nums].sum(axis=-1)
    gap /= math.sqrt(ex.amp2)
    np.copyto(gap, 0, where=~ex.live)
    gap -= inter.matrix
    return float(np.abs(gap).max())


# ---------------------------------------------------------------------------
# suites: one seeded draw-and-check per case, run by _run


def _run(name, seed, tolerance, cases, case, fixed=()) -> SuiteReport:
    """The report of `cases` counted draws case(rng) from Random(seed), then
    of the fixed checks, which draw nothing.  A case returns its error,
    (error, detail), or None for a rejected draw, which is not counted."""
    rng = random.Random(seed)
    rep = SuiteReport(name, tolerance=tolerance)
    while rep.cases < cases:
        out = case(rng)
        if out is not None:
            rep.record(*out) if isinstance(out, tuple) else rep.record(out)
    for err in fixed:
        rep.record(err)
    return rep


def _hilbert(k: int, lag: Lagrangian) -> HilbertSpace:
    return HilbertSpace(k, Polarization.canonical(lag))


def _gap(a, b) -> float:
    """Entrywise max |a - b|."""
    return float(np.abs(a - b).max())


def _pairing_det(hs1: HilbertSpace, hs2: HilbertSpace) -> int:
    """|det omega21| of the two frames."""
    space = hs1.pol.space
    return abs(det(space.block(hs2.pol.basis.w, hs1.pol.basis.w)))


def _unitarity(rng):
    space, k = _spaces_for(rng)
    hs1, hs2 = (_hilbert(k, l) for l in random_pair(rng, space))
    f, back = bks_matrix(hs1, hs2), bks_matrix(hs2, hs1)
    return max(unitarity_defect(f.matrix), _gap(back.matrix @ f.matrix, np.eye(hs1.dim)))


def _triple(rng):
    space, k = _spaces_for(rng)
    l1, _ = random_pair(rng, space)
    l2, l3 = random_pair(rng, space)
    h1, h2, h3 = (_hilbert(k, l) for l in (l1, l2, l3))
    comp = bks_matrix(h3, h1).matrix @ bks_matrix(h2, h3).matrix @ bks_matrix(h1, h2).matrix
    tau = triple_index(l1, l2, l3)
    diag = np.diag(comp)
    c = complex(diag.mean())
    phase_err = abs(cmath.exp(1j * (cmath.phase(c) + math.pi * tau / 4)) - 1)
    err = max(_gap(comp, np.diag(diag)), _gap(diag, c), phase_err, abs(abs(c) - 1))
    expected = float((-math.pi * tau / 4 + math.pi) % (2 * math.pi) - math.pi)
    return err, {"tau": tau, "arg": cmath.phase(c), "expected_arg": expected}


def _corrected(rng):
    space, k = _spaces_for(rng)
    base = random_lagrangian(rng, space)
    l1, _ = random_pair(rng, space)
    l2, l3 = random_pair(rng, space)
    a, b, c = (random_lift(rng, base, l) for l in (l1, l2, l3))
    comp = (
        corrected_intertwiner(c, a, k).matrix
        @ corrected_intertwiner(b, c, k).matrix
        @ corrected_intertwiner(a, b, k).matrix
    )
    return _gap(comp, np.eye(comp.shape[0]))


def _adapted_pair(k: int, l1: Lagrangian, l2: Lagrangian) -> tuple[HilbertSpace, HilbertSpace]:
    """The Hilbert spaces of two Lagrangians on their pair-adapted frames."""
    b1, b2 = pair_adapted_bases(l1, l2)
    return HilbertSpace(k, Polarization(l1, b1)), HilbertSpace(k, Polarization(l2, b2))


def _oracle_defect(hs1: HilbertSpace, hs2: HilbertSpace) -> float:
    f = bks_matrix(hs1, hs2)
    return max(_gap(pairing_oracle(hs1, hs2), f.matrix), exact_backend_defect(f))


def _oracle_menu():
    """g = 1: every transverse pair from a small primitive menu, k in {2, 4}."""
    space = SymplecticSpace.standard(1)
    menu = dict.fromkeys(
        Lagrangian.make(space, [[a, b]])
        for a in range(-2, 3)
        for b in range(-2, 3)
        if math.gcd(a, b) == 1
    )
    for l1 in menu:
        for l2 in menu:
            if intersect(l1, l2).rank == 0:
                for k in (2, 4):
                    yield _oracle_defect(*_adapted_pair(k, l1, l2))


def _oracle(rng):
    """g = 2: a random pair of either transversality class; transverse pairs
    with |det omega21| > 6 are redrawn."""
    k = rng.choice((2, 4))
    l1, l2 = random_pair(rng, SymplecticSpace.standard(2))
    hs1, hs2 = _adapted_pair(k, l1, l2)
    if intersect(l1, l2).rank == 0 and _pairing_det(hs1, hs2) > 6:
        return None
    return _oracle_defect(hs1, hs2)


def _gauss(rng):
    """A random (Q, a, w) with g <= 3; singular Q are redrawn."""
    g = rng.randrange(1, 4)
    q = random_symmetric(rng, g, bound=5)
    if det(q) == 0:
        return None
    a = 2 * rng.randrange(1, 5)
    w = [Fraction(rng.randrange(-a, a + 1), a) for _ in range(g)]
    lhs, rhs = gauss_reciprocity_check(q, a, w)
    return abs(lhs - rhs)


def _tau(rng):
    space, _ = _spaces_for(rng)
    basis = adapted_basis(random_lagrangian(rng, space))
    l1, _ = random_pair(rng, space)
    l2, l3 = random_pair(rng, space)
    l4, _ = random_pair(rng, space)
    t123 = triple_index(l1, l2, l3)
    b = random_sp(rng, basis)
    parity = (space.g + sum(intersect(x, y).rank for x, y in ((l1, l2), (l2, l3), (l3, l1)))) % 2
    errs = [
        # invariance under an integer symplectic map
        abs(triple_index(*(b.apply_lagrangian(l) for l in (l1, l2, l3))) - t123),
        # odd permutations flip the sign, even ones preserve it
        abs(triple_index(l2, l1, l3) + t123),
        abs(triple_index(l2, l3, l1) - t123),
        # cocycle identity on the quadruple
        abs(t123 - triple_index(l1, l2, l4) + triple_index(l1, l3, l4) - triple_index(l2, l3, l4)),
        (t123 - parity) % 2,
    ]
    # the transverse route agrees when defined
    if intersect(l1, l3).rank == 0:
        errs.append(abs(triple_index_transverse(l1, l2, l3) - t123))
    return max(errs)


def _mu(rng):
    space, _ = _spaces_for(rng)
    q = rng.choice((1, 2, 4))
    base = random_lagrangian(rng, space)
    l1, _ = random_pair(rng, space)
    l2, l3 = random_pair(rng, space)
    a, b, c = (random_lift(rng, base, l, q) for l in (l1, l2, l3))
    ab = maslov_index(a, b, q)
    coc = ab - maslov_index(a, c, q) + maslov_index(b, c, q) - triple_index(l1, l2, l3)
    antisym = ab + maslov_index(b, a, q)
    return max(coc % (2 * q), antisym % (2 * q), (ab - space.g + intersect(l1, l2).rank) % 2)


def _heisenberg_element(rng, k: int, pol: Polarization) -> HeisenbergElement:
    n = tuple(rng.randrange(k) for _ in range(pol.space.dim))
    return HeisenbergElement(k, UnitPhase.of(Fraction(rng.randrange(8), 4)), n, pol)


def _heisenberg(rng):
    space, k = _spaces_for(rng)
    hs1, hs2 = (_hilbert(k, l) for l in random_pair(rng, space))
    x, y = (_heisenberg_element(rng, k, hs1.pol) for _ in range(2))
    ux = heisenberg_matrix(x, hs1).matrix
    # multiplicativity of the action
    uxy = heisenberg_matrix(heisenberg_mul(x, y), hs1).matrix
    err = max(_gap(ux @ heisenberg_matrix(y, hs1).matrix, uxy), unitarity_defect(ux))
    # the pairing intertwines the two actions
    f = bks_matrix(hs1, hs2).matrix
    moved = heisenberg_matrix(heisenberg_in_frame(x, hs2.pol), hs2).matrix
    return max(err, _gap(f @ ux, moved @ f))


def _irreducibility(k: int) -> float:
    """g = 1 witness: only scalars commute with the action (0 when they do,
    else the commutant's dimension)."""
    pol = Polarization.canonical(Lagrangian.make(SymplecticSpace.standard(1), [[1, 0]]))
    hs = HilbertSpace(k, pol)
    eye = np.eye(hs.dim)
    rows = []
    for unit in ((1, 0), (0, 1)):
        gmat = heisenberg_matrix(HeisenbergElement.of(k, unit, pol), hs).matrix
        rows.append(np.kron(eye, gmat) - np.kron(gmat.T, eye))
    svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
    commutant_dim = int(np.sum(svals < 1e-9))
    return 0.0 if commutant_dim == 1 else float(commutant_dim)


def _mp(rng):
    space, k = _spaces_for(rng)
    lag = random_lagrangian(rng, space)
    hs = _hilbert(k, lag)
    basis = hs.pol.basis
    # projective cocycle of the symplectic operators
    b1 = random_sp(rng, basis, rng.randrange(1, 4))
    b2 = random_sp(rng, basis, rng.randrange(1, 4))
    b12 = b1 * b2
    u1, u2, u12 = (sp_operator(b, hs).matrix for b in (b1, b2, b12))
    tau = triple_index(lag, b1.apply_lagrangian(lag), b12.apply_lagrangian(lag))
    err = max(_gap(u1 @ u2, cmath.exp(1j * math.pi * tau / 4) * u12), unitarity_defect(u1))
    # multiplicativity of the metaplectic operators
    x = random_mp_word(rng, basis, rng.randrange(1, 5))
    y = random_mp_word(rng, basis, rng.randrange(1, 5))
    ux, uy, uxy = (mp_operator(m, hs).matrix for m in (x, y, mp_mul(x, y)))
    return max(err, _gap(ux @ uy, uxy))


def _mp_pinned(k: int) -> float:
    """Pinned g = 1 matrices of the metaplectic generators S~ = gamma epsilon
    and T~ = beta([[1]]), and the modular relations they satisfy."""
    pol = Polarization.canonical(Lagrangian.make(SymplecticSpace.standard(1), [[1, 0]]))
    hs = HilbertSpace(k, pol)
    eps = mp_generator(pol.basis, "epsilon")
    us = mp_operator(mp_mul(mp_generator(pol.basis, "gamma"), eps), hs).matrix
    ut = mp_operator(mp_generator(pol.basis, "beta", b=[[1]]), hs).matrix
    pinned_s = np.array(
        [
            [cmath.exp(5j * math.pi / 4) * cmath.exp(2j * math.pi * q * q1 / k) for q1 in range(k)]
            for q in range(k)
        ]
    ) / math.sqrt(k)
    pinned_t = np.diag([cmath.exp(1j * math.pi * q * q / k) for q in range(k)])
    eye = np.eye(k)
    return max(
        _gap(us, pinned_s),
        _gap(ut, pinned_t),
        _gap(np.linalg.matrix_power(us @ ut, 3), eye),
        _gap(np.linalg.matrix_power(us, 4), -eye),
        _gap(mp_operator(eps, hs).matrix, -eye),
    )


def _counting(rng):
    space, k = _spaces_for(rng)
    l1, l2 = random_pair(rng, space)
    hs1, hs2 = _hilbert(k, l1), _hilbert(k, l2)
    err = abs(len(hs1.labels) - k**space.g)
    if intersect(l1, l2).rank == 0:
        d = _pairing_det(hs1, hs2)
        q1, q2 = (tuple(rng.randrange(k) for _ in range(space.g)) for _ in range(2))
        err = max(err, abs(len(intersection_points(hs1, hs2, q1, q2)) - d))
        if space.g == 1 and k * d <= 8:
            err = max(err, abs(brute_force_point_count(hs1, hs2, q1, q2) - d))
    return err


def suite_unitarity(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = UNITARITY_CASES) -> SuiteReport:
    return _run("unitarity", seed, tolerance, cases, _unitarity)


def suite_triple(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = TRIPLE_CASES) -> SuiteReport:
    return _run("triple", seed, tolerance, cases, _triple)


def suite_corrected(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = CORRECTED_CASES) -> SuiteReport:
    return _run("corrected", seed, tolerance, cases, _corrected)


def suite_oracle(seed: int, tolerance: float = ORACLE_TOLERANCE, cases: int = 60) -> SuiteReport:
    return _run("oracle", seed, tolerance, cases, _oracle, fixed=_oracle_menu())


def suite_gauss(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = GAUSS_CASES) -> SuiteReport:
    return _run("gauss", seed, tolerance, cases, _gauss)


def suite_tau(seed: int, tolerance: float = 0.0, cases: int = TAU_CASES) -> SuiteReport:
    return _run("tau", seed, tolerance, cases, _tau)


def suite_mu(seed: int, tolerance: float = 0.0, cases: int = MU_CASES) -> SuiteReport:
    return _run("mu", seed, tolerance, cases, _mu)


def suite_heisenberg(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = 60) -> SuiteReport:
    return _run("heisenberg", seed, tolerance, cases, _heisenberg, fixed=map(_irreducibility, (2, 4)))


def suite_mp(seed: int, tolerance: float = DEFAULT_TOLERANCE, cases: int = 40) -> SuiteReport:
    return _run("mp", seed, tolerance, cases, _mp, fixed=map(_mp_pinned, (2, 4)))


def suite_counting(seed: int, tolerance: float = 0.0, cases: int = 60) -> SuiteReport:
    return _run("counting", seed, tolerance, cases, _counting)


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
