"""Finite Heisenberg group action, the projective integer-symplectic
representation, and its genuine metaplectic resolution on the quantization.

Every operator is an Intertwiner over an exact PhaseTable: the Heisenberg
translations are monomials (a permutation times unit phases), U(b) is the
pairing matrix out of bP written in the moved frame b.(W; Wperp), where the
pushforward is the identity on labels, and U(b, z) adds one central phase.
A map that fixes P pairs it with itself: U(b) is then a frame change.  The
float matrices come only from PhaseTable.value().
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BaseMismatch, DimensionMismatch, FrameMismatch
from .exact import UnitPhase, vec_mat, vec_sub
from .lattice import SymplecticSpace, _trusted
from .maslov import MpElement, SpElement
from .quantize import (
    HilbertSpace,
    Intertwiner,
    Monomial,
    Polarization,
    _check_budget,
    _check_level,
    _frame_change,
    _pairing,
)


@dataclass(frozen=True)
class HeisenbergElement:
    """(phase, v) with v in the finite translation group (1/k)Z / Z.

    n holds the canonical coordinates of k*v in the frame of the reference
    polarization, componentwise in [0, k).  The element acts by phase times
    the translation operator of the canonical representative.
    """

    k: int
    phase: UnitPhase
    n: tuple[int, ...]
    frame: Polarization

    def __post_init__(self):
        _check_level(self.k)
        if len(self.n) != self.frame.space.dim:
            raise DimensionMismatch("coordinate vector must have length 2g")
        object.__setattr__(self, "n", tuple(x % self.k for x in self.n))

    @classmethod
    def of(cls, k: int, n, frame: Polarization, phase: UnitPhase = None) -> "HeisenbergElement":
        return cls(k, phase if phase is not None else UnitPhase.of(0), tuple(n), frame)

    def ambient(self) -> tuple:
        """The canonical preimage in (1/k)Z as an ambient rational vector."""
        coeffs = [Fraction(x, self.k) for x in self.n]
        return vec_mat(coeffs, self.frame.basis.stack)


def heisenberg_mul(x: HeisenbergElement, y: HeisenbergElement) -> HeisenbergElement:
    """Product in the operator convention T_V T_V' = e^{i pi k w(V,V')} T_{V+V'},
    with the carry correction that re-expresses T on canonical coordinates.

    With this convention the representation below is a homomorphism; it
    differs from writing the cocycle on raw preimages by the deck signs the
    carries would otherwise drop.
    """
    if x.k != y.k or x.frame != y.frame:
        raise FrameMismatch("elements live over different frames")
    k = x.k
    # frames are symplectic: frame coordinates pair by the standard form
    frame_omega = SymplecticSpace.standard(x.frame.space.g).omega
    total = [a + b for a, b in zip(x.n, y.n)]
    reduced = tuple(t % k for t in total)
    carry = [(t - r) // k for t, r in zip(total, reduced)]
    t = Fraction(frame_omega(x.n, y.n), k) - frame_omega(reduced, carry)
    phase = x.phase * y.phase * UnitPhase.of(t)
    return HeisenbergElement(k, phase, reduced, x.frame)


def heisenberg_identity(k: int, frame: Polarization) -> HeisenbergElement:
    return HeisenbergElement.of(k, (0,) * frame.space.dim, frame)


def heisenberg_in_frame(x: HeisenbergElement, frame: Polarization) -> HeisenbergElement:
    """The same group element written over another polarization frame.

    The coordinate change is exact integer linear algebra on n (the frame is
    unimodular, so k times the new coordinates are integers); switching the
    canonical preimage inside (1/k)Z costs the deck phase e^{i pi k w(V, W)}.
    """
    if frame.space != x.frame.space:
        raise FrameMismatch("frames live over different spaces")
    k = x.k
    v1 = x.ambient()
    n2 = tuple(int(k * c) % k for c in frame.basis.coords(v1))
    v2 = vec_mat([Fraction(m, k) for m in n2], frame.basis.stack)
    w = vec_sub(v2, v1)
    t = k * frame.space.omega(v1, w)
    return HeisenbergElement(k, x.phase * UnitPhase.of(t), n2, frame)


def heisenberg_matrix(x: HeisenbergElement, space: HilbertSpace) -> Intertwiner:
    """The unitary action on the labeled standard basis, in closed form.

    With a = n[:g] (leaf components) and b = n[g:] (transverse components),
    the operator is monomial: row idx(p) holds the phase
    x.phase * e^{i pi (2 a.p - a.b)/k} in column idx(p - b).

    This is the ordered generator product, transverse components first (the
    i-th shifts the i-th label by one), then leaf components (the i-th is
    diagonal with phases e^{2 pi i q_i / k}), times the central phase that
    re-balances x against that product.  The product rebuilds the element
    with central phase e^{-i pi a.b/k}; no carry occurs, because every
    coordinate is below k.
    """
    if space.pol != x.frame or space.k != x.k:
        raise FrameMismatch("element frame does not match the Hilbert space")
    _check_budget(space.dim**2)
    k, g = x.k, space.g
    a, b = x.n[:g], x.n[g:]
    ab = sum(ai * bi for ai, bi in zip(a, b))
    cols, exps = [], []
    for p in space.labels:
        cols.append(space.label_index([pi - bi for pi, bi in zip(p, b)]))
        ap = sum(ai * pi for ai, pi in zip(a, p))
        exps.append(x.phase.t + Fraction(2 * ap - ab, k))
    return Intertwiner(space, space, Monomial(tuple(cols), tuple(exps)).table())


# ---------------------------------------------------------------------------
# symplectic and metaplectic operators


def _moved(b: SpElement, space: HilbertSpace) -> HilbertSpace:
    """H_{bP} in the moved frame b.(W; Wperp), valid by construction: there
    the pushforward H_P -> H_{bP} is the identity on labels."""
    pol = space.pol
    if b.space != pol.space:
        raise BaseMismatch("map and polarization live over different spaces")
    lag, basis = b.apply_lagrangian(pol.lag), b.apply_basis(pol.basis)
    return HilbertSpace(space.k, _trusted(Polarization, lag=lag, basis=basis))


def sp_pushforward(b: SpElement, space: HilbertSpace) -> Intertwiner:
    """The geometric pushforward H_P -> H_{bP}: the frame change out of the
    moved frame into the canonical one."""
    moved = _moved(b, space).pol
    target = HilbertSpace(space.k, Polarization.canonical(moved.lag))
    push = _frame_change(moved.basis, target.pol.basis, space.k)
    return Intertwiner(space, target, push.table())


def sp_operator(b: SpElement, space: HilbertSpace) -> Intertwiner:
    """U(b), the pairing map back from H_{bP} written in the moved frame.

    A projective representation: U(b) U(b') equals U(bb') up to the
    eighth-root-of-unity cocycle fixed by the triple index.
    """
    return Intertwiner(space, space, _pairing(_moved(b, space), space))


def mp_operator(x: MpElement, space: HilbertSpace) -> Intertwiner:
    """U(b, z) = e^{(pi i/4) z} U(b); a genuine unitary representation of
    the integer metaplectic group on the fixed Hilbert space."""
    if x.base != space.pol.lag:
        raise BaseMismatch("element base does not match the Hilbert space")
    table = _pairing(_moved(x.b, space), space)
    return Intertwiner(space, space, table.scaled(Fraction(x.z, 4)))
