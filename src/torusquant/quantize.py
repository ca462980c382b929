"""Bohr-Sommerfeld Hilbert spaces of rational polarizations and the unitary
pairing matrices between them, in closed form.

A polarization carries an adapted integer symplectic frame; the k^g basis
states are labeled by (Z/kZ)^g in lexicographic order.  Every pairing matrix
and frame change is held exactly as a PhaseTable: each entry is a Gauss-type
sum of unit phases e^{i pi n / den} with integer numerators n over one common
denominator.  The complex floating matrix (numpy), authoritative for
tolerances, is evaluated from that table in one place, PhaseTable.value(),
once per public call; internal steps pass tables.

The numerators come from one integer kernel: numpy int64 arrays over the
label grid (Z/kZ)^h and the coset grid Z^h / R Z^h, with every integer matrix
reduced mod 2 den before it multiplies a reduced array.  The table budget,
MAX_TABLE_TERMS = 2^22 phase terms, gives den <= 2^22 and g <= 11, so every
intermediate stays below 2^46 g and int64 cannot overflow.
"""

from __future__ import annotations

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
    TooLarge,
    TransverseInput,
)
from .exact import (
    MAX_TABLE_TERMS,
    PhaseSum,
    UnitPhase,
    adjugate,
    coset_box,
    coset_reps,
    det,
    frac_inv,
    hnf_rows,
    mat_mul,
    mat_vec,
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


def _check_level(k: int) -> None:
    if k < 2 or k % 2:
        raise OddModulus("the level k must be a positive even integer")


@dataclass(frozen=True)
class HilbertSpace:
    """The k^g dimensional quantization attached to a polarization frame."""

    k: int
    pol: Polarization

    def __post_init__(self):
        _check_level(self.k)

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


# Bound of the label cache below.  A long-lived process meets ever new
# levels; a pairing or operator call needs one or two entries at a time.
LABELS_CACHE_SIZE = 16


# A table is checked against MAX_TABLE_TERMS phase terms (k^2g entries times
# the terms per entry) before any label or coset is enumerated.
def _check_budget(terms: int) -> None:
    if terms > MAX_TABLE_TERMS:
        raise TooLarge(f"table of {terms} phase terms exceeds {MAX_TABLE_TERMS}")


@lru_cache(maxsize=LABELS_CACHE_SIZE)
def _labels(k: int, g: int) -> tuple[tuple[int, ...], ...]:
    return tuple(product(range(k), repeat=g))


# ---------------------------------------------------------------------------
# the integer label kernel: int64 arrays over label and coset grids


def _grid(sizes) -> np.ndarray:
    """The integer vectors of the box prod(range(s) for s in sizes), as the
    rows of an int64 array in lexicographic (itertools.product) order."""
    place = np.array([math.prod(sizes[i + 1 :]) for i in range(len(sizes))], dtype=np.int64)
    index = np.arange(math.prod(sizes), dtype=np.int64)[:, None]
    return index // place % np.array(sizes, dtype=np.int64)


def _mod(m, n: int) -> np.ndarray:
    """A square integer matrix reduced mod n, as int64."""
    return np.array([[x % n for x in row] for row in m], dtype=np.int64).reshape(len(m), len(m))


def _quad(x: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """x^T m x mod n along the last axis of x, for x and m reduced mod n:
    every product is of two factors below n, reduced before the next."""
    return (x * (x @ m.T % n)).sum(axis=-1) % n


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Exact entries of a matrix over one phase denominator.

    Entry (r, c) is amp2^{-1/2} sum_j e^{i pi nums[r, c, j] / den} where
    live[r, c] holds, and 0 elsewhere.  nums is an int64 array of shape
    (rows, cols, terms) reduced mod 2 den; live is a boolean (rows, cols) mask.
    """

    amp2: int
    den: int
    nums: np.ndarray
    live: np.ndarray

    def value(self) -> np.ndarray:
        unit = np.exp(1j * np.pi * (np.arange(self.den) / self.den))
        # e^{i pi (t + 1)} = -e^{i pi t}, the fold PhaseSum makes, so that
        # antipodal terms cancel exactly
        unit = np.concatenate([unit, -unit])
        if self.nums.shape[-1] == 1:
            out = unit.take(self.nums[..., 0])
        else:
            out = unit[self.nums].sum(axis=-1)
        out /= math.sqrt(self.amp2)
        np.copyto(out, 0, where=~self.live)
        return out

    def entry(self, r: int, c: int) -> PhaseSum:
        if not self.live[r, c]:
            return PhaseSum.zero()
        return PhaseSum.build(
            self.amp2, [(Fraction(int(n), self.den), 1) for n in self.nums[r, c]]
        )

    def take(self, rows, cols) -> "PhaseTable":
        """The table whose entry (i, j) is entry (rows[i], cols[j]) of this one."""
        ix = np.ix_(rows, cols)
        return PhaseTable(self.amp2, self.den, self.nums[ix], self.live[ix])

    def times(self, row_t, col_t) -> "PhaseTable":
        """Entry (r, c) multiplied by e^{i pi (row_t[r] + col_t[c])}, for
        rational exponents; the denominator grows to hold them."""
        ts = [Fraction(t) for t in (*row_t, *col_t)]
        den = math.lcm(self.den, *(t.denominator for t in ts))
        # value() tabulates 2 den unit phases
        _check_budget(den)
        shift = [t.numerator * (den // t.denominator) % (2 * den) for t in ts]
        shift = np.array(shift, dtype=np.int64)
        n = len(row_t)
        shift = shift[:n, None, None] + shift[None, n:, None]
        nums = self.nums * (den // self.den) + shift
        return PhaseTable(self.amp2, den, nums % (2 * den), self.live)

    def scaled(self, t) -> "PhaseTable":
        """Every entry multiplied by e^{i pi t}."""
        t = Fraction(t)
        den = math.lcm(self.den, t.denominator)
        _check_budget(den)
        nums = self.nums * (den // self.den)
        nums += t.numerator * (den // t.denominator) % (2 * den)
        nums %= 2 * den
        return PhaseTable(self.amp2, den, nums, self.live)

    def between(self, out: "Monomial", back: "Monomial") -> "PhaseTable":
        """The table of the product out . self . back with two monomials."""
        # back is a permutation: rows[j] is the row that holds column j
        rows = np.argsort(back.cols)
        return self.take(out.cols, rows).times(out.exps, [back.exps[j] for j in rows])


@dataclass(eq=False)
class Intertwiner:
    """A unitary map between two Hilbert spaces, target-row indexed.

    exact holds the entries; matrix is their float value, and
    matrix[i2][i1] is the coefficient of target state i2 in the image of
    source state i1.
    """

    source: HilbertSpace
    target: HilbertSpace
    exact: PhaseTable = field(repr=False)
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = self.exact.value()

    def scaled(self, phase: UnitPhase) -> "Intertwiner":
        return Intertwiner(self.source, self.target, self.exact.scaled(phase.t))


def unitarity_defect(matrix: np.ndarray) -> float:
    defect = matrix @ matrix.conj().T
    defect.flat[:: defect.shape[0] + 1] -= 1
    return float(np.abs(defect).max())


# ---------------------------------------------------------------------------
# the adapted potential and Bohr-Sommerfeld intersection data


def frame_potential(pol: Polarization, x) -> Fraction:
    """Generating function of the frame-adapted symplectic potential.

    For x = sum a_i W_i + sum b_i Wperp_i this is (1/2) sum a_i b_i; it
    vanishes at 0 and satisfies the lattice shift relations
    K(x + W) - K(x) = omega(W, x)/2 and K(x + Wperp) - K(x) = -omega(Wperp, x)/2.
    """
    coords = pol.basis.coords(x)
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
    d = det(om21)
    if d == 0:
        raise NotTransverse("polarizations are not transverse")
    _check_budget(abs(d))
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


def _closed_form(b1: AdaptedBasis, b2: AdaptedBasis, k: int, h: int) -> PhaseTable:
    """The pairing table from the leading h x h parts R, P, S of the pairing
    blocks (omega(2,1), omega(2,1perp), omega(2perp,1)) of two frames;
    transverse is h = g.
    Entry (q2, q1) vanishes unless the labels agree past position h; else,
    with a = q1[:h], it is |k^h d|^{-1/2} times the sum over w = q2[:h] + k l,
    l in Z^h / R Z^h, of e^{(pi i/dk)(a^T M1 a - 2 a^T adj(R) w - w^T M3 w)},
    where d = det R, M1 = adj(R) P and M3 = S adj(R)."""
    space, g = b1.space, b1.space.g
    r = space.block(b2.w[:h], b1.w[:h])
    p = space.block(b2.w[:h], b1.wperp[:h])
    s = space.block(b2.wperp[:h], b1.w[:h])
    d = det(r)
    # pair-adapted frames always give a nonsingular R (h < g)
    if d == 0:
        raise NotTransverse("polarizations are not transverse")
    _check_budget(k ** (2 * g) * abs(d))
    den = abs(d) * k
    m = 2 * den
    # The sign of d goes into the matrices, and each one is reduced mod 2 den
    # (adj(R) mod den) before it meets an int64 label or coset array, which
    # is reduced too.  The budget gives den <= 2^22 and g <= 11, so every
    # product has two factors below 2^23 and every sum of them stays below
    # 2^46 g: no int64 intermediate can overflow.
    adj = [[x if d > 0 else -x for x in row] for row in adjugate(r)]
    diag, uinv = coset_box(r)
    head = _grid((k,) * h)
    reps = _grid(diag) @ _mod(uinv, m).T % m
    w = (head[:, None, :] + k * reps[None, :, :]) % m
    n1 = _quad(head, _mod(mat_mul(adj, p), m), m)
    n3 = _quad(w, _mod(mat_mul(s, adj), m), m)
    adj_w = w @ _mod(adj, den).T % den
    # C-contiguous, so that value() sums each entry's terms in one order
    nums = np.matmul(-2 * head, adj_w.transpose(0, 2, 1))
    nums += n1[None, :, None]
    nums -= n3[:, None, :]
    nums %= m
    # lexicographic labels: index = head index * k^(g-h) + tail index
    head_of, tail_of = np.divmod(np.arange(k**g), k ** (g - h))
    if h < g:
        nums = nums[np.ix_(head_of, head_of)]
    return PhaseTable(abs(k**h * d), den, nums, tail_of[:, None] == tail_of[None, :])


def bks_matrix_transverse(h1: HilbertSpace, h2: HilbertSpace) -> Intertwiner:
    """Closed-form pairing matrix for transverse polarizations.

    Entry (q2, q1) is |k^g det omega(2,1)|^{-1/2} times a Gauss-type sum of
    unit phases over the cosets Z^g / omega(2,1) Z^g, with exponents built
    from the three pairing blocks of the two frames.
    """
    _common_space(h1, h2)
    return Intertwiner(h1, h2, _closed_form(h1.pol.basis, h2.pol.basis, h1.k, h1.g))


def _pair_adapted_or_raise(h1, h2) -> int:
    """The number h of own pairs of two pair-adapted frames.

    Sharing the trailing pairs, which span the intersection, puts the pairing
    blocks in reduced form with a nonsingular leading block R.
    """
    l12 = intersect(h1.pol.lag, h2.pol.lag)
    if l12.rank == 0:
        raise TransverseInput("use the transverse routine for transverse input")
    h = h1.g - l12.rank
    b1, b2 = h1.pol.basis, h2.pol.basis
    if b1.w[h:] != b2.w[h:] or b1.wperp[h:] != b2.wperp[h:]:
        raise BasesNotPairAdapted("frames do not share the intersection pairs")
    if hnf_rows(b1.w[h:]) != l12.gens:
        raise BasesNotPairAdapted("shared frame rows do not span the intersection")
    return h


def bks_matrix_nontransverse(h1: HilbertSpace, h2: HilbertSpace) -> Intertwiner:
    """Closed-form pairing matrix for nontransverse polarizations.

    Requires pair-adapted frames (shared intersection pairs in the trailing
    positions).  Entries vanish unless the trailing g-h label components
    agree; the surviving block is the transverse formula for the leading
    h x h reduced pairing blocks.  Identical polarizations give the identity.
    """
    _common_space(h1, h2)
    h = _pair_adapted_or_raise(h1, h2)
    return Intertwiner(h1, h2, _closed_form(h1.pol.basis, h2.pol.basis, h1.k, h))


# ---------------------------------------------------------------------------
# change of frame


@dataclass(frozen=True)
class Monomial:
    """A permutation matrix times unit phases: row i holds e^{i pi exps[i]}
    in column cols[i] and zeros elsewhere, with rational exponents.

    Frame changes and the Heisenberg translation operators have this form.
    """

    cols: tuple[int, ...]
    exps: tuple[Fraction, ...]

    def table(self) -> PhaseTable:
        dim = len(self.cols)
        live = np.array(self.cols)[:, None] == np.arange(dim)
        flat = PhaseTable(1, 1, np.zeros((dim, dim, 1), dtype=np.int64), live)
        return flat.times(self.exps, [0] * dim)


def _frame_change(b1: AdaptedBasis, b2: AdaptedBasis, k: int) -> Monomial:
    """The monomial matrix of rebase_unitary, rows in the b2 labels.

    b1 and b2 must be frames of one polarization; the callers' Polarizations
    check that.  Both frames are symplectic, so the blocks of the frame map
    (see rebase_unitary) are pairings: the labels map by
    A^{-T} = omega(b1.W, b2.Wperp), and
    A^{-1}B = A^{-1} omega(b2.Wperp, b1.Wperp)^T.
    """
    space = b1.space
    g = space.g
    _check_budget(k ** (2 * g))
    c_inv = space.block(b1.w, b2.wperp)
    s_mat = mat_mul(transpose(c_inv), transpose(space.block(b2.wperp, b1.wperp)))
    labels = _grid((k,) * g)
    place = k ** np.arange(g - 1, -1, -1, dtype=np.int64)
    cols = (labels @ _mod(c_inv, k).T % k) @ place
    # the exponent -q^T s q / k matters only mod 2
    nums = -_quad(labels, _mod(s_mat, 2 * k), 2 * k) % (2 * k)
    return Monomial(tuple(cols.tolist()), tuple(Fraction(n, k) for n in nums.tolist()))


def rebase_unitary(
    pol: Polarization, b1: AdaptedBasis, b2: AdaptedBasis, k: int
) -> Intertwiner:
    """Unitary identification of the Hilbert spaces built on two adapted
    frames of the same polarization.

    Both frames are checked against pol before the frame change.  The frame
    map b1 -> b2 has block form (A, B; 0, A^-T) in the b1 frame; the standard
    basis transforms by the monomial matrix
    sigma^{b2}_q = e^{(pi i/k) q^T A^{-1}B q} sigma^{b1}_{A^-T q}, so the
    matrix of the identification carries the conjugate phases.  Composing the
    two directions gives the identity.
    """
    src = HilbertSpace(k, Polarization(pol.lag, b1))
    dst = HilbertSpace(k, Polarization(pol.lag, b2))
    return Intertwiner(src, dst, _frame_change(b1, b2, k).table())


def _pairing(h1: HilbertSpace, h2: HilbertSpace) -> PhaseTable:
    """The table of bks_matrix(h1, h2)."""
    _common_space(h1, h2)
    l1, l2, k = h1.pol.lag, h2.pol.lag, h1.k
    shared = intersect(l1, l2).rank
    if shared == 0:
        return _closed_form(h1.pol.basis, h2.pol.basis, k, h1.g)
    pb1, pb2 = pair_adapted_bases(l1, l2)
    mid = _closed_form(pb1, pb2, k, h1.g - shared)
    out = _frame_change(pb2, h2.pol.basis, k)
    back = _frame_change(h1.pol.basis, pb1, k)
    return mid.between(out, back)


def bks_matrix(h1: HilbertSpace, h2: HilbertSpace) -> Intertwiner:
    """Pairing matrix between two polarizations in their own frames.

    Transverse pairs go straight to the closed form.  Nontransverse pairs are
    computed in pair-adapted frames and conjugated back by the frame-change
    monomials, so the public matrix always refers to the frames carried by
    h1 and h2 (canonical frames in normal use).
    """
    return Intertwiner(h1, h2, _pairing(h1, h2))


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
    return Intertwiner(hs1, hs2, _pairing(hs1, hs2).scaled(phase.t))
