"""Bohr-Sommerfeld Hilbert spaces of rational polarizations and the unitary
pairing matrices between them, in closed form.

A polarization carries an adapted integer symplectic frame; the k^g basis
states are labeled by (Z/kZ)^g in lexicographic order.  Matrices come in two
synchronized flavors: a complex floating backend (numpy) that is authoritative
for tolerances, and an exact PhaseSum form whose entries are Gauss-type sums
of unit phases with rational exponents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import (
    BaseMismatch,
    BasesNotPairAdapted,
    BasisMismatch,
    DimensionMismatch,
    NotTransverse,
    OddModulus,
    SpaceMismatch,
    TransverseInput,
)
from .exact import (
    PhaseSum,
    UnitPhase,
    adjugate,
    coset_reps,
    det,
    frac_inv,
    freeze,
    hnf_rows,
    identity,
    int_inv,
    mat_mul,
    mat_vec,
    quad_form,
    transpose,
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
from .maslov import LagrangianLift, maslov_index


@dataclass(frozen=True)
class Polarization:
    """A rank-g rational Lagrangian together with an adapted frame."""

    lag: Lagrangian
    basis: AdaptedBasis

    def __post_init__(self):
        if self.lag.space != self.basis.space:
            raise SpaceMismatch("Lagrangian and basis live in different spaces")
        if not self.lag.is_full:
            raise DimensionMismatch("polarizations need rank-g Lagrangians")
        if hnf_rows(self.basis.w) != self.lag.gens:
            raise BasisMismatch("frame W rows do not span the Lagrangian")

    @classmethod
    def canonical(cls, lag: Lagrangian) -> "Polarization":
        """The deterministic polarization frame of a Lagrangian."""
        return cls(lag, adapted_basis(lag))

    @property
    def space(self) -> SymplecticSpace:
        return self.lag.space


@dataclass(frozen=True)
class HilbertSpace:
    """The k^g dimensional quantization attached to a polarization frame."""

    k: int
    pol: Polarization

    def __post_init__(self):
        if self.k < 2 or self.k % 2:
            raise OddModulus("the level k must be a positive even integer")

    @property
    def g(self) -> int:
        return self.pol.space.g

    @property
    def dim(self) -> int:
        return self.k**self.g

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return _labels(self.k, self.g)

    def label_index(self, q) -> int:
        idx = 0
        for x in q:
            idx = idx * self.k + (x % self.k)
        return idx


# Bounds of the per-process caches below.  A long-lived process meets ever
# new frames; a pairing or operator call needs one or two entries at a time.
LABELS_CACHE_SIZE = 16
STACK_INV_CACHE_SIZE = 256


@lru_cache(maxsize=LABELS_CACHE_SIZE)
def _labels(k: int, g: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product(range(k), repeat=g))


# beyond this many phase terms per entry the exact form is omitted and only
# the floating backend is populated
EXACT_TERM_LIMIT = 10_000


@dataclass(eq=False)
class Intertwiner:
    """A unitary map between two Hilbert spaces, target-row indexed.

    matrix[i2][i1] is the coefficient of target state i2 in the image of
    source state i1.  exact, when present, holds the same entries as
    PhaseSum values.
    """

    source: HilbertSpace
    target: HilbertSpace
    matrix: np.ndarray
    exact: tuple | None = field(default=None, repr=False)

    def scaled(self, phase: UnitPhase) -> "Intertwiner":
        ex = None
        if self.exact is not None:
            ex = tuple(
                tuple(e.times_phase(phase) for e in row) for row in self.exact
            )
        return Intertwiner(self.source, self.target, self.matrix * phase.value(), ex)


def unitarity_defect(matrix: np.ndarray) -> float:
    n = matrix.shape[0]
    return float(np.abs(matrix @ matrix.conj().T - np.eye(n)).max())


# ---------------------------------------------------------------------------
# the adapted potential and Bohr-Sommerfeld intersection data


@lru_cache(maxsize=STACK_INV_CACHE_SIZE)
def _stack_inv(basis: AdaptedBasis):
    return freeze(frac_inv(basis.stack))


def frame_potential(pol: Polarization, x) -> Fraction:
    """Generating function of the frame-adapted symplectic potential.

    For x = sum a_i W_i + sum b_i Wperp_i this is (1/2) sum a_i b_i; it
    vanishes at 0 and satisfies the lattice shift relations
    K(x + W) - K(x) = omega(W, x)/2 and K(x + Wperp) - K(x) = -omega(Wperp, x)/2.
    """
    coords = vec_mat(x, _stack_inv(pol.basis))
    g = pol.space.g
    return sum(
        (coords[i] * coords[g + i] for i in range(g)), Fraction(0)
    ) / 2


def _common_space(h1: HilbertSpace, h2: HilbertSpace) -> SymplecticSpace:
    """The space under two Hilbert spaces, which must share it and the level."""
    if h1.k != h2.k:
        raise DimensionMismatch("Hilbert spaces carry different levels k")
    if h1.pol.space != h2.pol.space:
        raise SpaceMismatch("Hilbert spaces live over different spaces")
    return h1.pol.space


def intersection_points(h1: HilbertSpace, h2: HilbertSpace, q1, q2) -> list[tuple]:
    """All intersection points of the two labeled Bohr-Sommerfeld orbits.

    Exactly |det omega(2,1)| points, one for each coset of the label offset
    lattice, returned as exact rational ambient vectors (representatives
    modulo the integer lattice), in coset enumeration order.
    """
    space = _common_space(h1, h2)
    k = h1.k
    b1, b2 = h1.pol.basis, h2.pol.basis
    om21 = space.block(b2.w, b1.w)
    if det(om21) == 0:
        raise NotTransverse("polarizations are not transverse")
    om21inv = frac_inv(om21)
    points = []
    for l in coset_reps(om21):
        rhs2 = [Fraction(q, k) + li for q, li in zip(q2, l)]
        alpha = mat_vec(om21inv, rhs2)
        beta = mat_vec(transpose(om21inv), [Fraction(q, k) for q in q1])
        x = tuple(
            a - b
            for a, b in zip(vec_mat(alpha, b1.w), vec_mat(beta, b2.w))
        )
        points.append(x)
    return points


# ---------------------------------------------------------------------------
# closed-form pairing matrices


def _phase_table(k, d, adj, m1, m3, reps, labels):
    """Exponent numerators of the pairing phase, over denominator d*k.

    Returns {(i2, i1): [numerators]}, one numerator per coset representative.
    """
    den = d * k
    shifted = {}
    for i2, q2 in enumerate(labels):
        per_l = []
        for l in reps:
            w = [q + k * li for q, li in zip(q2, l)]
            adj_w = mat_vec(adj, w)
            n3 = quad_form(w, m3, w)
            per_l.append((adj_w, n3))
        shifted[i2] = per_l
    table = {}
    for i1, q1 in enumerate(labels):
        n1 = quad_form(q1, m1, q1)
        for i2 in range(len(labels)):
            nums = [
                n1 - 2 * sum(a * b for a, b in zip(q1, adj_w)) - n3
                for adj_w, n3 in shifted[i2]
            ]
            table[(i2, i1)] = nums
    return table, den


def bks_matrix_transverse(h1: HilbertSpace, h2: HilbertSpace) -> Intertwiner:
    """Closed-form pairing matrix for transverse polarizations.

    Entry (q2, q1) is |k^g det omega(2,1)|^{-1/2} times a Gauss-type sum of
    unit phases over the cosets Z^g / omega(2,1) Z^g, with exponents built
    from the three pairing blocks of the two frames.
    """
    space = _common_space(h1, h2)
    k, g = h1.k, h1.g
    b1, b2 = h1.pol.basis, h2.pol.basis
    om21 = space.block(b2.w, b1.w)
    d = det(om21)
    if d == 0:
        raise NotTransverse("polarizations are not transverse")
    adj = adjugate(om21)
    m1 = mat_mul(adj, space.block(b2.w, b1.wperp))
    m3 = mat_mul(space.block(b2.wperp, b1.w), adj)
    reps = coset_reps(om21)
    labels = _labels(k, g)
    amp2 = Fraction(abs(k**g * d))
    table, den = _phase_table(k, d, adj, m1, m3, reps, labels)
    return _assemble(h1, h2, table, amp2, den, len(reps))


def _assemble(h1, h2, table, amp2, den, nterms):
    """Materialize the float matrix (and, under the term limit, the exact
    PhaseSum matrix) from a table of phase numerators."""
    dim_r, dim_c = h2.dim, h1.dim
    with_exact = nterms <= EXACT_TERM_LIMIT
    exact = [[PhaseSum.zero()] * dim_c for _ in range(dim_r)] if with_exact else None
    matrix = np.zeros((dim_r, dim_c), dtype=complex)
    norm = 1.0 / math.sqrt(float(amp2))
    for (i2, i1), nums in table.items():
        if with_exact:
            entry = PhaseSum.build(amp2, [(Fraction(n, den), 1) for n in nums])
            exact[i2][i1] = entry
            matrix[i2, i1] = entry.value()
        else:
            acc = sum(
                cmath.exp(1j * math.pi * float(Fraction(n, den) % 2)) for n in nums
            )
            matrix[i2, i1] = norm * acc
    return Intertwiner(h1, h2, matrix, freeze(exact) if with_exact else None)


def _pair_adapted_or_raise(h1, h2):
    space = h1.pol.space
    l12 = intersect(h1.pol.lag, h2.pol.lag)
    s = l12.rank
    if s == 0:
        raise TransverseInput("use the transverse routine for transverse input")
    g = space.g
    h = g - s
    b1, b2 = h1.pol.basis, h2.pol.basis
    if b1.w[h:] != b2.w[h:] or b1.wperp[h:] != b2.wperp[h:]:
        raise BasesNotPairAdapted("frames do not share the intersection pairs")
    if hnf_rows(b1.w[h:]) != l12.gens:
        raise BasesNotPairAdapted("shared frame rows do not span the intersection")
    return l12, h


def bks_matrix_nontransverse(h1: HilbertSpace, h2: HilbertSpace) -> Intertwiner:
    """Closed-form pairing matrix for nontransverse polarizations.

    Requires pair-adapted frames (shared intersection pairs in the trailing
    positions).  Entries vanish unless the trailing g-h label components
    agree; the surviving block is the transverse formula for the leading
    h x h reduced pairing blocks.  Identical polarizations give the identity.
    """
    space = _common_space(h1, h2)
    k, g = h1.k, h1.g
    l12, h = _pair_adapted_or_raise(h1, h2)
    b1, b2 = h1.pol.basis, h2.pol.basis
    om21 = space.block(b2.w, b1.w)
    om21p = space.block(b2.w, b1.wperp)
    om2p1 = space.block(b2.wperp, b1.w)
    for i in range(g):
        for j in range(g):
            if (i >= h or j >= h) and om21[i][j] != 0:
                raise BasesNotPairAdapted("omega(2,1) is not in reduced block form")
            if (i >= h) != (j >= h) and (om21p[i][j] != 0 or om2p1[i][j] != 0):
                raise BasesNotPairAdapted("mixed pairing blocks do not vanish")
    red21 = [row[:h] for row in om21[:h]]
    d = det(red21)
    if d == 0:
        raise BasesNotPairAdapted("reduced block omega(2,1) is singular")
    adj = adjugate(red21)
    m1 = mat_mul(adj, [row[:h] for row in om21p[:h]])
    m3 = mat_mul([row[:h] for row in om2p1[:h]], adj)
    reps = coset_reps(red21)
    labels = _labels(k, g)
    amp2 = Fraction(abs(k**h * d))
    head = _labels(k, h)
    head_table, den = _phase_table(k, d, adj, m1, m3, reps, head)
    head_index = {q: i for i, q in enumerate(head)}
    table = {}
    for i1, q1 in enumerate(labels):
        for i2, q2 in enumerate(labels):
            if q1[h:] != q2[h:]:
                continue
            table[(i2, i1)] = head_table[(head_index[q2[:h]], head_index[q1[:h]])]
    return _assemble(h1, h2, table, amp2, den, len(reps))


# ---------------------------------------------------------------------------
# change of frame


@dataclass(frozen=True)
class Monomial:
    """A permutation matrix times unit phases: row i holds phases[i] in
    column cols[i] and zeros elsewhere.

    Frame changes and the Heisenberg translation operators have this form.
    """

    cols: tuple[int, ...]
    phases: tuple[UnitPhase, ...]

    def dense(self) -> np.ndarray:
        dim = len(self.cols)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[np.arange(dim), self.cols] = [p.value() for p in self.phases]
        return matrix

    def exact(self) -> tuple:
        dim = len(self.cols)
        rows = [[PhaseSum.zero()] * dim for _ in range(dim)]
        for row, col, phase in zip(rows, self.cols, self.phases):
            row[col] = PhaseSum.unit(phase)
        return freeze(rows)


def _frame_change(
    pol: Polarization, b1: AdaptedBasis, b2: AdaptedBasis, k: int
) -> Monomial:
    """The monomial matrix of rebase_unitary, rows in the b2 labels."""
    lag = pol.lag
    for b in (b1, b2):
        if hnf_rows(b.w) != lag.gens:
            raise BasisMismatch("frame is not adapted to the polarization")
    g = lag.space.g
    inv1 = _stack_inv(b1)
    c_rows = []
    for row in b2.w:
        coords = vec_mat(row, inv1)
        if any(x != 0 for x in coords[g:]):
            raise BasisMismatch("W rows of the target frame leave the Lagrangian")
        c_rows.append([int(x) for x in coords[:g]])
    d_rows, e_rows = [], []
    for row in b2.wperp:
        coords = vec_mat(row, inv1)
        d_rows.append([int(x) for x in coords[:g]])
        e_rows.append([int(x) for x in coords[g:]])
    a_mat = transpose(c_rows)
    if freeze(mat_mul(e_rows, a_mat)) != freeze(identity(g)):
        raise BasisMismatch("frames are not related by a Lagrangian-preserving map")
    s_mat = mat_mul(e_rows, transpose(d_rows))  # A^{-1} B, symmetric
    if freeze(s_mat) != freeze(transpose(s_mat)):
        raise BasisMismatch("frame transition is not symplectic")
    c_inv = int_inv(c_rows)
    labels = _labels(k, g)
    index = {q: i for i, q in enumerate(labels)}
    cols = tuple(index[tuple(x % k for x in mat_vec(c_inv, q2))] for q2 in labels)
    phases = tuple(
        UnitPhase.of(-Fraction(quad_form(q2, s_mat, q2), k)) for q2 in labels
    )
    return Monomial(cols, phases)


def rebase_unitary(
    pol: Polarization, b1: AdaptedBasis, b2: AdaptedBasis, k: int
) -> Intertwiner:
    """Unitary identification of the Hilbert spaces built on two adapted
    frames of the same polarization.

    The frame map b1 -> b2 has block form (A, B; 0, A^-T) in the b1 frame;
    the standard basis transforms by the monomial matrix
    sigma^{b2}_q = e^{(pi i/k) q^T A^{-1}B q} sigma^{b1}_{A^-T q}, so the
    matrix of the identification carries the conjugate phases.  Composing the
    two directions gives the identity.
    """
    m = _frame_change(pol, b1, b2, k)
    src = HilbertSpace(k, Polarization(pol.lag, b1))
    dst = HilbertSpace(k, Polarization(pol.lag, b2))
    return Intertwiner(src, dst, m.dense(), m.exact())


def bks_matrix(h1: HilbertSpace, h2: HilbertSpace) -> Intertwiner:
    """Pairing matrix between two polarizations in their own frames.

    Transverse pairs go straight to the closed form.  Nontransverse pairs are
    computed in pair-adapted frames and conjugated back by the frame-change
    monomials, so the public matrix always refers to the frames carried by
    h1 and h2 (canonical frames in normal use).
    """
    _common_space(h1, h2)
    l1, l2 = h1.pol.lag, h2.pol.lag
    if intersect(l1, l2).rank == 0:
        return bks_matrix_transverse(h1, h2)
    k = h1.k
    pb1, pb2 = pair_adapted_bases(l1, l2)
    hp1 = HilbertSpace(k, Polarization(l1, pb1))
    hp2 = HilbertSpace(k, Polarization(l2, pb2))
    mid = bks_matrix_nontransverse(hp1, hp2)
    out = _frame_change(Polarization(l2, pb2), pb2, h2.pol.basis, k)
    back = _frame_change(Polarization(l1, h1.pol.basis), h1.pol.basis, pb1, k)
    matrix = out.dense() @ mid.matrix @ back.dense()
    if mid.exact is None:
        return Intertwiner(h1, h2, matrix, None)
    # back is a permutation: rows[i1] is the row that holds column i1
    rows = sorted(range(h1.dim), key=back.cols.__getitem__)
    exact = [
        [mid.exact[j2][jb].times_phase(phi * back.phases[jb]) for jb in rows]
        for j2, phi in zip(out.cols, out.phases)
    ]
    return Intertwiner(h1, h2, matrix, freeze(exact))


def corrected_intertwiner(
    lift1: LagrangianLift, lift2: LagrangianLift, k: int
) -> Intertwiner:
    """Maslov-phase corrected pairing map between lifted polarizations.

    The pairing matrix in canonical frames is multiplied by
    e^{-(pi i/4) mu(lift2, lift1)}; with this phase the corrected maps
    compose transitively over any lifted triple and reproduce the
    metaplectic operators e^{(pi i/4) z} U(b).
    """
    if lift1.base != lift2.base:
        raise BaseMismatch("lifts have different base Lagrangians")
    mu = maslov_index(lift2, lift1, 4)
    phase = UnitPhase.of(-Fraction(mu, 4))
    hs1 = HilbertSpace(k, Polarization.canonical(lift1.lag))
    hs2 = HilbertSpace(k, Polarization.canonical(lift2.lag))
    return bks_matrix(hs1, hs2).scaled(phase)
