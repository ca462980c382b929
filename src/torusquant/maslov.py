"""Maslov-Kashiwara triple index, its Z/2q-valued descent on covers of the
Lagrangian Grassmannian (base-point model), and the integer metaplectic group
modeled as pairs (b, z mod 8) with a triple-index twisted multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BaseMismatch,
    DimensionMismatch,
    NotSymmetric,
    NotTransverse,
    NotUnimodular,
    SpaceMismatch,
)
from .exact import (
    det,
    freeze,
    identity,
    int_inv,
    mat_mul,
    mat_vec,
    signature,
    solve,
    transpose,
    vec_mat,
    zeros,
)
from .lattice import AdaptedBasis, Lagrangian, SymplecticSpace, intersect


def triple_index(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> int:
    """Signature of the form omega(x1,x2) + omega(x2,x3) + omega(x3,x1)
    on L1 + L2 + L3, evaluated on the stored lattice generators.

    The result is basis independent (signatures are congruence invariants),
    integer, and computed exactly.
    """
    space = l1.space
    if l2.space != space or l3.space != space:
        raise SpaceMismatch("Lagrangians live in different spaces")
    r1, r2 = l1.rank, l2.rank
    n = r1 + r2 + l3.rank
    # twice the symmetric Gram matrix of the quadratic form; the factor 2
    # does not change the signature and keeps every entry an integer
    s = zeros(n, n)
    for r0, c0, om in (
        (0, r1, space.block(l1.gens, l2.gens)),
        (r1, r1 + r2, space.block(l2.gens, l3.gens)),
        (r1 + r2, 0, space.block(l3.gens, l1.gens)),
    ):
        for i, row in enumerate(om):
            for j, x in enumerate(row):
                s[r0 + i][c0 + j] = s[c0 + j][r0 + i] = x
    return signature(s).index


def triple_index_transverse(l1: Lagrangian, l2: Lagrangian, l3: Lagrangian) -> int:
    """Same index through the rank-g form omega(x, p x') on L2, where p is
    the projection onto L3 along L1.  Requires L1 and L3 transverse.
    """
    space = l1.space
    if l2.space != space or l3.space != space:
        raise SpaceMismatch("Lagrangians live in different spaces")
    if intersect(l1, l3).rank != 0:
        raise NotTransverse("L1 and L3 are not transverse")
    basis = list(l1.gens) + list(l3.gens)
    bt = transpose(basis)
    proj = []
    for v in l2.gens:
        coeffs = solve(bt, v)  # v = coeffs . basis rows
        proj.append(vec_mat(coeffs[l1.rank :], l3.gens))
    h = space.block(l2.gens, proj)
    return signature(h).index


# ---------------------------------------------------------------------------
# lifts of Lagrangians (base-point model of the q-fold cover)


@dataclass(frozen=True)
class LagrangianLift:
    """A point (L, lambda mod 2q) of the q-fold cover, relative to a fixed
    base Lagrangian; lambda must have the parity of g - dim(L meet base).
    """

    base: Lagrangian
    lag: Lagrangian
    lam: int
    q: int = 4

    def __post_init__(self):
        if self.base.space != self.lag.space:
            raise SpaceMismatch("lift and base live in different spaces")
        if not (self.base.is_full and self.lag.is_full):
            raise DimensionMismatch("lifts are defined for rank-g Lagrangians")
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        object.__setattr__(self, "lam", self.lam % (2 * self.q))
        g = self.base.space.g
        want = (g - intersect(self.lag, self.base).rank) % 2
        if self.lam % 2 != want:
            raise ValueError(
                "lift parity violated: lambda must equal g - dim(L meet base) mod 2"
            )

    def shifted(self, r: int) -> "LagrangianLift":
        """Deck transformation: lambda -> lambda + 2r."""
        return LagrangianLift(self.base, self.lag, self.lam + 2 * r, self.q)


def maslov_index(a: LagrangianLift, b: LagrangianLift, q: int) -> int:
    """lambda_a - lambda_b + triple_index(base, La, Lb), reduced mod 2q."""
    if a.base != b.base:
        raise BaseMismatch("lifts have different base Lagrangians")
    if a.q != q or b.q != q:
        raise BaseMismatch("lifts do not carry the requested modulus")
    t = triple_index(a.base, a.lag, b.lag)
    return (a.lam - b.lam + t) % (2 * q)


# ---------------------------------------------------------------------------
# integer symplectic and metaplectic elements


@dataclass(frozen=True)
class SpElement:
    """Integer symplectic lattice automorphism, column convention:
    vectors transform as x |-> x . mat^T and mat^T . gram . mat = gram.
    """

    space: SymplecticSpace
    mat: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "mat", freeze(self.mat))
        n = self.space.dim
        if len(self.mat) != n or any(len(r) != n for r in self.mat):
            raise DimensionMismatch("matrix must be 2g x 2g")
        if any(not isinstance(x, int) for r in self.mat for x in r):
            raise NotUnimodular("matrix must preserve the integer lattice")
        # (mat^T gram mat)[a][b] = omega(column a, column b); the form is
        # skew, so the entries with a < b decide the rest
        cols, om, gram = tuple(zip(*self.mat)), self.space.omega, self.space.gram
        if any(om(cols[a], cols[b]) != gram[a][b] for a in range(n) for b in range(a + 1, n)):
            raise NotSymmetric("matrix does not preserve the symplectic form")

    @staticmethod
    def identity(space: SymplecticSpace) -> "SpElement":
        return SpElement(space, freeze(identity(space.dim)))

    def apply(self, x) -> tuple:
        return mat_vec(self.mat, x)

    def apply_lagrangian(self, lag: Lagrangian) -> Lagrangian:
        if lag.space != self.space:
            raise SpaceMismatch("Lagrangian lives in a different space")
        return Lagrangian.make(self.space, [self.apply(r) for r in lag.gens])

    def apply_basis(self, basis: AdaptedBasis) -> AdaptedBasis:
        return AdaptedBasis(
            self.space,
            tuple(self.apply(r) for r in basis.w),
            tuple(self.apply(r) for r in basis.wperp),
        )

    def __mul__(self, other: "SpElement") -> "SpElement":
        if self.space != other.space:
            raise SpaceMismatch("elements act on different spaces")
        return SpElement(self.space, freeze(mat_mul(self.mat, other.mat)))

    def inv(self) -> "SpElement":
        return SpElement(self.space, freeze(int_inv(self.mat)))


@dataclass(frozen=True)
class MpElement:
    """Element (b, z mod 8) of the integer metaplectic group in the
    base-Lagrangian model.

    Only the mod-2 parity of z is checked here.  The finer mod-4 condition
    singling out the metaplectic double cover is guaranteed when elements are
    produced through mp_generator and mp_mul; directly constructed pairs are
    accepted unchecked beyond parity.
    """

    base: Lagrangian
    b: SpElement
    z: int

    def __post_init__(self):
        if self.base.space != self.b.space:
            raise SpaceMismatch("element and base live in different spaces")
        if not self.base.is_full:
            raise DimensionMismatch("base must be a rank-g Lagrangian")
        object.__setattr__(self, "z", self.z % 8)
        g = self.base.space.g
        moved = self.b.apply_lagrangian(self.base)
        want = (g - intersect(moved, self.base).rank) % 2
        if self.z % 2 != want:
            raise ValueError("z parity violated: z must equal g - dim(bL meet L) mod 2")


def mp_mul(x: MpElement, y: MpElement) -> MpElement:
    """(b, z)(b', z') = (b b', z + z' + tau(L, bL, bb'L)) with z mod 8."""
    if x.base != y.base:
        raise BaseMismatch("elements have different base Lagrangians")
    base = x.base
    b_total = x.b * y.b
    t = triple_index(
        base,
        x.b.apply_lagrangian(base),
        b_total.apply_lagrangian(base),
    )
    return MpElement(base, b_total, (x.z + y.z + t) % 8)


def mp_act(x: MpElement, lift: LagrangianLift) -> LagrangianLift:
    """(b, z)(L', lam) = (bL', z + lam + tau(L, bL, bL')) on the 4-fold cover."""
    if lift.base != x.base:
        raise BaseMismatch("lift has a different base Lagrangian")
    if lift.q != 4:
        raise BaseMismatch("metaplectic elements act on the 4-fold cover (q = 4)")
    moved_base = x.b.apply_lagrangian(x.base)
    moved = x.b.apply_lagrangian(lift.lag)
    t = triple_index(x.base, moved_base, moved)
    return LagrangianLift(x.base, moved, (x.z + lift.lam + t) % 8, 4)


def mp_inv(x: MpElement) -> MpElement:
    """Group inverse, computed from (b, z)^-1 = (b^-1, -z - tau(L, bL, L))."""
    binv = x.b.inv()
    t = triple_index(x.base, x.b.apply_lagrangian(x.base), x.base)
    return MpElement(x.base, binv, (-x.z - t) % 8)


def _frame_to_ambient(basis: AdaptedBasis, block: list[list[int]]) -> list[list[int]]:
    """Column-convention ambient matrix of the map whose matrix in the frame
    (W_1..W_g, Wperp_1..Wperp_g) is the given block matrix."""
    return mat_mul(mat_mul(transpose(basis.stack), block), transpose(basis.stack_inv))


def mp_generator(basis: AdaptedBasis, kind: str, a=None, b=None) -> MpElement:
    """Standard metaplectic generators over base L = span(W rows of basis).

    kind 'epsilon': (identity, 4), the nontrivial deck element.
    kind 'alpha':   block diag(A, A^-T) with z = 0 or 2 by the sign of det A.
    kind 'beta':    upper unitriangular block B (symmetric), z = 0.
    kind 'gamma':   the block rotation (0, I; -I, 0) with z = g mod 8.

    The other lift of gamma, mp_mul(gamma, epsilon), differs by the deck
    element; for g = 1 that second lift is the one pinned to the matrix
    k^{-1/2} e^{5 pi i/4} e^{2 pi i q q'/k} of the metaplectic action.
    """
    return MpElement(basis.span(), *_generator(basis, kind, a, b))


def _generator(basis: AdaptedBasis, kind: str, a=None, b=None) -> tuple[SpElement, int]:
    """The symplectic map and the central index z of mp_generator's element."""
    space = basis.space
    g = space.g
    if kind == "epsilon":
        return SpElement.identity(space), 4
    if kind == "alpha":
        if a is None:
            raise DimensionMismatch("alpha needs an integer g x g matrix A")
        a = [list(map(int, r)) for r in a]
        d = det(a)
        if abs(d) != 1:
            raise NotUnimodular("A must lie in GL(g, Z)")
        ainv_t = transpose(int_inv(a))
        block = [r + [0] * g for r in a] + [[0] * g + r for r in ainv_t]
        z = 0 if d > 0 else 2
    elif kind == "beta":
        if b is None:
            raise DimensionMismatch("beta needs a symmetric integer g x g matrix B")
        b = [list(map(int, r)) for r in b]
        if b != [list(r) for r in transpose(b)]:
            raise NotSymmetric("B must be symmetric")
        block = [list(row) + list(brow) for row, brow in zip(identity(g), b)]
        block += [[0] * g + list(row) for row in identity(g)]
        z = 0
    elif kind == "gamma":
        block = [[0] * g + list(row) for row in identity(g)]
        block += [[-x for x in row] + [0] * g for row in identity(g)]
        z = g % 8
    else:
        raise ValueError(f"unknown generator kind: {kind!r}")
    return SpElement(space, freeze(_frame_to_ambient(basis, block))), z
