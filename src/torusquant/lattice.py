"""Symplectic vector space with self-dual lattice, rational Lagrangian
sublattices, and integer symplectic bases adapted to them.

Conventions: vectors are rows, a Lagrangian is stored as a primitive integer
generator matrix in row Hermite normal form (so equality is entrywise), and
the pairing is omega(x, y) = x . gram . y^T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    DimensionMismatch,
    NotIsotropic,
    NotPrimitive,
    NotUnimodular,
    SpaceMismatch,
    TooLarge,
)
from .exact import (
    det,
    freeze,
    hnf_rows,
    identity,
    invariant_factors,
    left_kernel,
    multixgcd,
    vec_mat,
)


# Largest g a space may have: its gram is checked with an O(g^3) determinant,
# and standard(64) plus the adapted basis of one Lagrangian take under 1 s.
MAX_G = 64


def _check_g(g: int) -> None:
    if g > MAX_G:
        raise TooLarge(f"g = {g} exceeds {MAX_G}")


@dataclass(frozen=True)
class SymplecticSpace:
    """(V, omega) of dimension 2g with the self-dual lattice Z^2g; terms
    holds the nonzero gram entries (i, j, gram[i][j]), which omega sums."""

    g: int
    gram: tuple[tuple[int, ...], ...]
    terms: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_g(self.g)
        n = 2 * self.g
        object.__setattr__(self, "gram", freeze(self.gram))
        if self.g < 1:
            raise DimensionMismatch("g must be positive")
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise DimensionMismatch("gram matrix must be 2g x 2g")
        if any(self.gram[i][j] != -self.gram[j][i] for i in range(n) for j in range(n)):
            raise NotIsotropic("gram matrix must be skew-symmetric")
        if det(self.gram) != 1:
            raise NotUnimodular("lattice is not self-dual (det gram != 1)")
        terms = tuple((i, j, c) for i, row in enumerate(self.gram) for j, c in enumerate(row) if c)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    @lru_cache(maxsize=8, typed=True)
    def standard(g: int) -> "SymplecticSpace":
        """The standard form of rank 2g, one shared instance per g."""
        _check_g(g)
        gram = [[0] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            gram[i][g + i] = 1
            gram[g + i][i] = -1
        return SymplecticSpace(g, freeze(gram))

    @property
    def dim(self) -> int:
        return 2 * self.g

    def omega(self, x, y):
        """The symplectic pairing x . gram . y^T, exact: a sum over the
        nonzero gram entries, 2g terms for the standard form."""
        if len(x) != len(self.gram) or len(y) != len(self.gram):
            raise DimensionMismatch("vectors must have length 2g")
        total = 0
        for i, j, c in self.terms:
            total += c * x[i] * y[j]
        return total

    def block(self, rows_a, rows_b) -> tuple[tuple, ...]:
        """The pairing block [omega(a, b) for b in rows_b] for a in rows_a.

        Swapping the arguments gives minus the transpose.
        """
        return tuple(tuple(self.omega(a, b) for b in rows_b) for a in rows_a)


def _lattice_int(x) -> int:
    """x as an int when it is integral; NotPrimitive otherwise."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise NotPrimitive("generators must be integer lattice vectors")


@dataclass(frozen=True)
class Lagrangian:
    """A primitive isotropic sublattice, canonical HNF generator rows."""

    space: SymplecticSpace
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = [list(r) for r in self.gens]
        for r in rows:
            if len(r) != self.space.dim:
                raise DimensionMismatch("generator rows must have length 2g")
            if any(not isinstance(x, int) for x in r):
                raise NotPrimitive("generators must be integer lattice vectors")
        canon = hnf_rows(rows)
        if len(canon) != len(rows):
            raise NotPrimitive("generator rows are linearly dependent")
        if len(canon) > self.space.g:
            raise NotIsotropic("more than g independent isotropic generators")
        if canon and any(f != 1 for f in invariant_factors(canon)):
            raise NotPrimitive("sublattice is not primitive")
        # omega(u, u) = 0 and omega(v, u) = -omega(u, v): pairs u before v decide
        om = self.space.omega
        if any(om(u, v) for i, u in enumerate(canon) for v in canon[i + 1 :]):
            raise NotIsotropic("generators do not span an isotropic subspace")
        object.__setattr__(self, "gens", canon)

    @classmethod
    def make(cls, space: SymplecticSpace, rows) -> "Lagrangian":
        """The Lagrangian spanned by rows of integral values (such as numpy
        integers or Fraction(2, 1)); other entries raise NotPrimitive."""
        return cls(space, tuple(tuple(_lattice_int(x) for x in r) for r in rows))

    @property
    def rank(self) -> int:
        return len(self.gens)

    @property
    def is_full(self) -> bool:
        return self.rank == self.space.g


@dataclass(frozen=True)
class AdaptedBasis:
    """Integer symplectic lattice basis (W_1..W_g ; Wperp_1..Wperp_g)."""

    space: SymplecticSpace
    w: tuple[tuple[int, ...], ...]
    wperp: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "w", freeze(self.w))
        object.__setattr__(self, "wperp", freeze(self.wperp))
        g = self.space.g
        if len(self.w) != g or len(self.wperp) != g:
            raise DimensionMismatch("need g rows in each half of the basis")
        om = self.space.omega
        for i in range(g):
            for j in range(g):
                if om(self.w[i], self.w[j]) != 0:
                    raise NotIsotropic("W rows are not isotropic")
                if om(self.wperp[i], self.wperp[j]) != 0:
                    raise NotIsotropic("Wperp rows are not isotropic")
                if om(self.w[i], self.wperp[j]) != (1 if i == j else 0):
                    raise NotIsotropic("pairing omega(W_i, Wperp_j) != delta_ij")
        if abs(det(self.stack)) != 1:
            raise NotUnimodular("basis does not span the lattice")

    @property
    def stack(self) -> tuple[tuple[int, ...], ...]:
        return self.w + self.wperp

    def coords(self, x) -> tuple:
        """Frame coordinates (a; b) of x = sum a_i W_i + sum b_i Wperp_i.

        The frame is symplectic, so they are pairings: a_i = omega(x, Wperp_i)
        and b_i = omega(W_i, x); integer for lattice vectors.
        """
        om = self.space.omega
        return tuple(om(x, v) for v in self.wperp) + tuple(om(u, x) for u in self.w)

    @cached_property
    def stack_inv(self) -> tuple[tuple[int, ...], ...]:
        """The inverse of stack: row j is the frame coordinate vector of e_j."""
        return tuple(self.coords(e) for e in identity(self.space.dim))

    def span(self) -> Lagrangian:
        """The Lagrangian spanned by the W rows."""
        return Lagrangian.make(self.space, self.w)


# ---------------------------------------------------------------------------
# adapted basis construction (symplectic Gram-Schmidt over the lattice)


def _project_out(space: SymplecticSpace, x, u, v):
    """Project x into the symplectic complement of the unimodular pair (u, v)."""
    a = space.omega(v, x)
    b = space.omega(u, x)
    return tuple(xi + a * ui - b * vi for xi, ui, vi in zip(x, u, v))


def _span_pairs(space: SymplecticSpace, pending, remaining):
    """Fix one symplectic pair (u, u-dual) per pending vector.

    pending must be a family of lattice vectors, mutually isotropic and
    primitive inside the lattice spanned by remaining.  Returns the fixed
    pairs and a canonical basis of the remaining symplectic complement.
    """
    pend = [tuple(p) for p in pending]
    rem = [tuple(r) for r in remaining]
    pairs = []
    while pend:
        u = pend.pop(0)
        coeffs = [space.omega(u, b) for b in rem]
        g, t = multixgcd(coeffs)
        if g != 1:
            raise NotPrimitive("vector is not primitive in the remaining lattice")
        v = tuple(sum(tj * bj[i] for tj, bj in zip(t, rem)) for i in range(space.dim))
        rem = list(hnf_rows([_project_out(space, b, u, v) for b in rem]))
        pend = [_project_out(space, p, u, v) for p in pend]
        pairs.append((u, v))
    return pairs, rem


def _complete_pairs(space: SymplecticSpace, remaining):
    """Split the lattice spanned by remaining into symplectic pairs."""
    rem = [tuple(r) for r in remaining]
    pairs = []
    while rem:
        fixed, rem = _span_pairs(space, [rem[0]], rem)
        pairs.extend(fixed)
    return pairs


def adapted_basis(lag: Lagrangian) -> AdaptedBasis:
    """Integer symplectic basis whose first rank(L) W-rows span L.

    Deterministic for a given (HNF canonical) Lagrangian: generators are
    consumed in order, dual vectors come from the chained extended gcd, and
    the remaining sublattice is kept in Hermite normal form.
    """
    space = lag.space
    head, rem = _span_pairs(space, lag.gens, identity(space.dim))
    w, wperp = zip(*(head + _complete_pairs(space, rem)))
    return AdaptedBasis(space, w, wperp)


def intersect(l1: Lagrangian, l2: Lagrangian) -> Lagrangian:
    """The isotropic sublattice L1 meet L2 (primitive by construction)."""
    if l1.space != l2.space:
        raise SpaceMismatch("Lagrangians live in different spaces")
    if l1.rank == 0 or l2.rank == 0:
        return Lagrangian.make(l1.space, [])
    stacked = list(l1.gens) + list(l2.gens)
    vecs = [vec_mat(krow[: l1.rank], l1.gens) for krow in left_kernel(stacked)]
    return Lagrangian.make(l1.space, vecs)


def pair_adapted_bases(l1: Lagrangian, l2: Lagrangian) -> tuple[AdaptedBasis, AdaptedBasis]:
    """Adapted bases of two full Lagrangians sharing the intersection pairs.

    The shared symplectic pairs sit at positions h+1..g of both bases, where
    h = g - dim(L1 meet L2); positions 1..h hold each Lagrangian's own pairs.
    Transverse inputs just get their independent canonical adapted bases.
    """
    if l1.space != l2.space:
        raise SpaceMismatch("Lagrangians live in different spaces")
    if not (l1.is_full and l2.is_full):
        raise DimensionMismatch("pair adaptation needs two rank-g Lagrangians")
    space = l1.space
    l12 = intersect(l1, l2)
    if l12.rank == 0:
        return adapted_basis(l1), adapted_basis(l2)
    shared, rem = _span_pairs(space, l12.gens, identity(space.dim))

    def project_chain(x):
        for u, v in shared:
            x = _project_out(space, x, u, v)
        return x

    def own_pairs(lag):
        reduced = hnf_rows([project_chain(x) for x in lag.gens])
        pairs, left = _span_pairs(space, reduced, list(rem))
        if left:
            raise NotPrimitive("pair adaptation did not exhaust the complement")
        return pairs

    def assemble(own):
        w, wperp = zip(*(own + shared))
        return AdaptedBasis(space, w, wperp)

    return assemble(own_pairs(l1)), assemble(own_pairs(l2))
