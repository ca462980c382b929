"""Exact integer linear algebra plus phase bookkeeping.

Matrices are plain lists (or tuples) of rows; vectors are sequences.  Every
elimination is fraction-free and stays in ZZ; fractions.Fraction holds only
the rational exponents of UnitPhase / PhaseSum and the rational input a
signature or a Gauss sum shift may take.  Nothing here
touches floating point except the explicit complex evaluation helpers on
UnitPhase / PhaseSum and the Gauss sum check, which returns both sides of the
reciprocity formula as complex numbers for external comparison (its phase
exponents are integers over one denominator until the last division).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, NotSymmetric, OddModulus, SingularMatrix, TooLarge

Matrix = Sequence[Sequence]
Vector = Sequence


# ---------------------------------------------------------------------------
# basic matrix helpers


def shape(m: Matrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for r in m:
        if len(r) != cols:
            raise DimensionMismatch("matrix is not rectangular")
    return rows, cols


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list[int]]:
    return [[0] * c for _ in range(r)]


def transpose(m: Matrix) -> list[list]:
    shape(m)
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise DimensionMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(m: Matrix, v: Vector) -> tuple:
    _, c = shape(m)
    if len(v) != c:
        raise DimensionMismatch("matrix/vector size mismatch")
    return tuple(sum(map(mul, row, v)) for row in m)


def vec_mat(v: Vector, m: Matrix) -> tuple:
    r, _ = shape(m)
    if len(v) != r:
        raise DimensionMismatch("vector/matrix size mismatch")
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def vec_sub(u: Vector, v: Vector) -> tuple:
    return tuple(x - y for x, y in zip(u, v))


def freeze(m: Matrix) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in m)


# ---------------------------------------------------------------------------
# gcd machinery


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = a*x + b*y and g = gcd(a, b) >= 0.

    Deterministic: coefficients come from the plain iterative Euclidean
    algorithm, with a final sign fix so g is nonnegative.
    """
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    g0, g1 = a, b
    while g1:
        q = g0 // g1
        g0, g1 = g1, g0 - q * g1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g0 < 0:
        g0, x0, y0 = -g0, -x0, -y0
    return g0, x0, y0


def multixgcd(values: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Return (g, coeffs) with g = gcd(values) >= 0 and sum(c*v) = g."""
    if not values:
        return 0, ()
    g = values[0]
    coeffs = [1]
    for v in values[1:]:
        g2, x, y = xgcd(g, v)
        coeffs = [x * c for c in coeffs]
        coeffs.append(y)
        g = g2
    if g < 0:  # single negative value case
        g = -g
        coeffs = [-c for c in coeffs]
    return g, tuple(coeffs)


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def _rotate(mats: Sequence[list[list[int]]], t: int, i: int, a: int, b: int) -> None:
    """Replace rows t, i of each matrix by the unimodular xgcd combination
    (x*row_t + y*row_i, -(b/g)*row_t + (a/g)*row_i), g = gcd(a, b) = a*x + b*y:
    a pivot a over an entry b becomes g over 0."""
    g, x, y = xgcd(a, b)
    p, q = a // g, b // g
    for m in mats:
        rt, ri = m[t], m[i]
        m[t] = [x * e + y * f for e, f in zip(rt, ri)]
        m[i] = [-q * e + p * f for e, f in zip(rt, ri)]


def _hnf(mats: Sequence[list[list[int]]]) -> None:
    """Row Hermite normal form of mats[0] in place, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom; every
    row operation is applied to the other matrices of mats (the transform)."""
    rows = mats[0]
    nr, nc = shape(rows)
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        for m in mats:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            if rows[i][c]:
                _rotate(mats, r, i, rows[r][c], rows[i][c])
        if rows[r][c] < 0:
            for m in mats:
                m[r] = [-x for x in m[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                for m in mats:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break


def hnf(m: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form: (H, U) with U unimodular and U*m = H."""
    rows, u = [list(r) for r in m], identity(len(m))
    _hnf((rows, u))
    return rows, u


def hnf_rows(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (HNF, zero rows dropped) of the row lattice of m."""
    rows = [list(r) for r in m]
    _hnf((rows,))
    return tuple(tuple(r) for r in rows if any(r))


def left_kernel(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer lattice {a : a*m = 0}."""
    h, u = hnf(m)
    return tuple(tuple(u[i]) for i in range(len(h)) if not any(h[i]))


def right_kernel(m: Matrix) -> tuple[tuple[int, ...], ...]:
    return left_kernel(transpose(m))


def _clear_below(mats: Sequence[list[list[int]]], t: int) -> None:
    """Zero column t of mats[0] below row t by row operations, applied to all
    of mats: plain subtraction when the pivot divides the entry, the gcd
    rotation (which strictly shrinks the pivot) only when it does not."""
    m = mats[0]
    for i in range(t + 1, len(m)):
        b = m[i][t]
        if b == 0:
            continue
        p = m[t][t]
        if p != 0 and b % p == 0:
            q = b // p
            for x in mats:
                x[i] = [ri - q * rt for rt, ri in zip(x[t], x[i])]
        else:
            _rotate(mats, t, i, p, b)


def snf(m: Matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: (S, U, V) with U*m*V = S diagonal, d1 | d2 | ...

    Diagonal entries are nonnegative; U, V are unimodular.  Row operations
    apply to U too; columns are cleared as the rows of the transpose, so
    column operations apply to the rows of V^T.
    """
    a = [list(r) for r in m]
    nr, nc = shape(a)
    u, vt = identity(nr), identity(nc)
    for t in range(min(nr, nc)):
        # deterministic pivot: smallest |entry| in the trailing block, first wins
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        for x in (a, u):
            x[t], x[i] = x[i], x[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        while True:
            _clear_below((a, u), t)
            if any(a[t][t + 1 :]):
                at = transpose(a)
                _clear_below((at, vt), t)
                a = transpose(at)
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            # enforce divisibility of the trailing block by the pivot
            p = a[t][t]
            culprit = next(
                (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 :])), None
            )
            if culprit is None:
                break
            for x in (a, u):
                x[t] = [y + z for y, z in zip(x[t], x[culprit])]
        if a[t][t] < 0:
            for x in (a, u):
                x[t] = [-y for y in x[t]]
    return a, u, transpose(vt)


def is_primitive(rows: Matrix) -> bool:
    """Whether the rows are independent and span a primitive sublattice: the
    Hermite form of the transpose has unit pivots (gcd of maximal minors 1)."""
    cols = transpose(rows)
    _hnf((cols,))
    return all(i < len(cols) and cols[i][i] == 1 for i in range(len(rows)))


# ---------------------------------------------------------------------------
# determinants, adjugates and integer inverses


def _int_square(m: Matrix, what: str) -> int:
    """The size of a square integer matrix; DimensionMismatch otherwise."""
    n, c = shape(m)
    if n != c:
        raise DimensionMismatch(f"{what} of a nonsquare matrix")
    if not all(isinstance(x, int) for row in m for x in row):
        # Bareiss divides exactly with //, which floors non-integer entries
        raise DimensionMismatch(f"{what} needs integer entries")
    return n


def det(m: Matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = _int_square(m, "determinant")
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _adjugate_det(m: Matrix, what: str) -> tuple[list[list[int]] | None, int]:
    """(adj m or None if det m = 0, det m) by fraction-free Gauss-Jordan on
    [m | I]: entries stay minors, so each division by the last pivot is exact;
    it ends as s det m and the right block as s adj m, s the swaps' sign."""
    n = _int_square(m, what)
    a = [list(row) + e for row, e in zip(m, identity(n))]
    sign = prev = 1
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][t]), None)
        if piv is None:
            return None, 0
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        top, p = a[t], a[t][t]
        for i in range(n):
            if i != t:
                f = a[i][t]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return [[sign * x for x in row[n:]] for row in a], sign * prev


def int_inv(m: Matrix) -> list[list[int]]:
    """Inverse of a unimodular integer matrix, returned with int entries."""
    adj, d = _adjugate_det(m, "inverse")
    if abs(d) != 1:
        raise SingularMatrix("matrix is not unimodular" if d else "matrix is singular")
    return [[d * x for x in row] for row in adj]


def adjugate(m: Matrix) -> list[list[int]]:
    """det(m) * m^{-1} for a nonsingular integer matrix (integer entries)."""
    adj, d = _adjugate_det(m, "determinant")
    if d == 0:
        raise SingularMatrix("adjugate of a singular matrix")
    return adj


# ---------------------------------------------------------------------------
# coset enumeration: Z^n / A Z^n has exactly |det A| classes


# Largest phase table (k^2g entries times the terms per entry) a call may
# build; coset_box hands out no more classes than that either.
MAX_TABLE_TERMS = 2**22


def coset_box(a: Matrix) -> tuple[list[int], list[list[int]]]:
    """(diag, W): the classes of Z^n / A Z^n are W r for r in the box
    prod(range(d) for d in diag), diag the Smith normal form diagonal and W
    the inverse of its row transform.  More than MAX_TABLE_TERMS classes
    raise TooLarge before any is enumerated."""
    n, c = shape(a)
    if n != c:
        raise DimensionMismatch("coset enumeration needs a square matrix")
    d = abs(det(a))
    if d == 0:
        raise SingularMatrix("coset enumeration needs det != 0")
    if d > MAX_TABLE_TERMS:
        raise TooLarge(f"{d} cosets exceed {MAX_TABLE_TERMS}")
    s, u, _ = snf(a)
    return [s[i][i] for i in range(n)], int_inv(u)


def coset_reps(a: Matrix) -> list[tuple[int, ...]]:
    """Representatives of Z^n / A Z^n, one per class, |det A| of them.

    Enumeration is lexicographic over the Smith normal form diagonal box and
    mapped back through the row transform, so the output is deterministic.
    """
    diag, uinv = coset_box(a)
    return [mat_vec(uinv, r) for r in product(*(range(d) for d in diag))]


# ---------------------------------------------------------------------------
# exact signatures of symmetric forms


class Signature(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def index(self) -> int:
        """n_plus - n_minus, the signed count."""
        return self.n_plus - self.n_minus


def signature(s: Matrix) -> Signature:
    """Exact inertia of a symmetric rational matrix.

    Symmetric pivoting: 1x1 pivots on nonzero diagonal entries, hyperbolic
    2x2 pivots when the active diagonal vanishes.  The arithmetic is
    fraction-free: the entries are cleared of denominators, each Schur
    complement is scaled by |p| after a 1x1 pivot p and by b^2 after a 2x2
    pivot b, and the active block is then divided by the gcd of its entries.
    Positive scalings keep the inertia (Sylvester's law of inertia).
    """
    n, c = shape(s)
    if n != c:
        raise DimensionMismatch("signature of a nonsquare matrix")
    a = [list(row) for row in s]
    if not all(type(x) is int for row in a for x in row):
        a = [[Fraction(x) for x in row] for row in a]
        den = math.lcm(*(x.denominator for row in a for x in row))
        a = [[int(x * den) for x in row] for row in a]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i + 1, n)):
        raise NotSymmetric("matrix is not symmetric")
    active = list(range(n))
    n_plus = n_minus = n_zero = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is not None:
            p = a[piv][piv]
            n_plus, n_minus = n_plus + (p > 0), n_minus + (p < 0)
            active.remove(piv)
            prow, scale = a[piv], abs(p)
            for i in active:
                row = a[i]
                f = row[piv] if p > 0 else -row[piv]
                for j in active:
                    row[j] = row[j] * scale - f * prow[j]
        else:
            pair = next(
                ((i, j) for i in active for j in active if j > i and a[i][j] != 0), None
            )
            if pair is None:
                n_zero += len(active)
                break
            i0, j0 = pair
            b = a[i0][j0]
            # the block [[0, b], [b, 0]] contributes one of each sign
            n_plus, n_minus = n_plus + 1, n_minus + 1
            active = [i for i in active if i not in pair]
            r0, r1, bb = a[i0], a[j0], b * b
            for i in active:
                row = a[i]
                ci, cj = b * row[i0], b * row[j0]
                for j in active:
                    row[j] = row[j] * bb - ci * r1[j] - cj * r0[j]
        g = math.gcd(*(a[i][j] for i in active for j in active))
        if g > 1:
            for i in active:
                a[i] = [x // g for x in a[i]]
    return Signature(n_plus, n_minus, n_zero)


# ---------------------------------------------------------------------------
# unit phases and phase sums


@dataclass(frozen=True)
class UnitPhase:
    """The complex unit e^{i pi t} with exact rational exponent t in [0, 2)."""

    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t) % 2)

    @staticmethod
    def of(t) -> "UnitPhase":
        return UnitPhase(Fraction(t))

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase((self.t + other.t) % 2)

    def conj(self) -> "UnitPhase":
        return UnitPhase((-self.t) % 2)

    def value(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.t))


UnitPhase.ONE = UnitPhase(Fraction(0))


@dataclass(frozen=True)
class PhaseSum:
    """amp2^{-1/2} * sum_j c_j e^{i pi t_j} with exact rational data.

    The magnitude prefactor is stored squared (amp2), so products of entries
    multiply amp2 exactly and never force irrational storage.  terms is a
    canonical tuple of (t, c) pairs: exponents normalized mod 2, equal
    exponents merged, zero coefficients dropped, sorted by exponent.
    """

    amp2: Fraction
    terms: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def build(cls, amp2, pairs: Iterable[tuple]) -> "PhaseSum":
        amp2 = Fraction(amp2)
        if amp2 <= 0:
            raise ValueError("amp2 must be positive")
        acc: dict[Fraction, Fraction] = {}
        for t, c in pairs:
            t = Fraction(t) % 2
            c = Fraction(c)
            if t >= 1:  # fold e^{i pi (t+1)} = -e^{i pi t}: exponents in [0, 1)
                t -= 1
                c = -c
            acc[t] = acc.get(t, Fraction(0)) + c
        terms = tuple(sorted((t, c) for t, c in acc.items() if c != 0))
        return cls(amp2, terms)

    @classmethod
    def zero(cls) -> "PhaseSum":
        return cls(Fraction(1), ())

    def is_zero(self) -> bool:
        return not self.terms

    def value(self) -> complex:
        s = sum(
            float(c) * cmath.exp(1j * math.pi * float(t)) for t, c in self.terms
        )
        return s / math.sqrt(float(self.amp2))

    def __mul__(self, other: "PhaseSum") -> "PhaseSum":
        pairs = [
            (t1 + t2, c1 * c2) for t1, c1 in self.terms for t2, c2 in other.terms
        ]
        return PhaseSum.build(self.amp2 * other.amp2, pairs)

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.amp2 != other.amp2:
            raise ValueError("cannot add phase sums with different prefactors")
        return PhaseSum.build(self.amp2, list(self.terms) + list(other.terms))


# ---------------------------------------------------------------------------
# Gauss sum reciprocity


def gauss_reciprocity_check(
    q: Matrix, a: int, w: Sequence = None
) -> tuple[complex, complex]:
    """Evaluate both sides of the reciprocity formula for Gauss sums.

    lhs = sum over q in (Z/aZ)^g of e^{(pi i / a) q^T Q q + 2 pi i w.q}
    rhs = |a^g / det Q|^{1/2} e^{(pi i / 4) sgn Q}
          * sum over m in Z^g/QZ^g of e^{- pi i a (m+w)^T Q^{-1} (m+w)}

    Both sides are returned; the caller compares them.
    """
    g, c = shape(q)
    if g != c:
        raise DimensionMismatch("Q must be square")
    if any(q[i][j] != q[j][i] for i in range(g) for j in range(i)):
        raise NotSymmetric("Q must be symmetric")
    if a <= 0 or a % 2:
        raise OddModulus("modulus a must be a positive even integer")
    w = [Fraction(x) for x in ([0] * g if w is None else w)]
    if len(w) != g:
        raise DimensionMismatch("w has wrong length")
    if any((a * x).denominator != 1 for x in w):
        raise ValueError("a*w must be integral")
    adj, d = _adjugate_det(q, "determinant")
    if d == 0:
        raise SingularMatrix("Q must be nonsingular")

    # Exponents as integers over one denominator, reduced mod twice it (int /
    # int is correctly rounded): t_v = (v^T Q v + 2 (a w).v) / a and, with
    # M = a m + a w, t_m = -sgn(det Q) M^T adj(Q) M / (a |det Q|).
    aw = [int(a * x) for x in w]
    lhs = 0j
    for vec in product(range(a), repeat=g):
        n = sum(x * (y + 2 * z) for x, y, z in zip(vec, mat_vec(q, vec), aw))
        lhs += cmath.exp(1j * math.pi * ((n % (2 * a)) / a))

    den = a * abs(d)
    sign = -1 if d > 0 else 1
    tail = 0j
    for m in coset_reps(q):
        mw = [a * x + y for x, y in zip(m, aw)]
        n = sign * sum(map(mul, mw, mat_vec(adj, mw)))
        tail += cmath.exp(1j * math.pi * ((n % (2 * den)) / den))
    sig = signature(q).index
    rhs = math.sqrt(abs(a**g / float(d))) * cmath.exp(1j * math.pi * sig / 4) * tail
    return lhs, rhs
