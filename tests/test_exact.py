import cmath
import functools
import math
import operator
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusquant.exact import (
    PhaseSum,
    Signature,
    UnitPhase,
    adjugate,
    coset_reps,
    det,
    gauss_reciprocity_check,
    hnf,
    hnf_rows,
    identity,
    int_inv,
    is_primitive,
    mat_mul,
    mat_vec,
    multixgcd,
    signature,
    snf,
    xgcd,
)
from torusquant.errors import (
    DimensionMismatch,
    NotSymmetric,
    OddModulus,
    SingularMatrix,
    TooLarge,
)

int_entries = st.integers(min_value=-9, max_value=9)


def int_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(int_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def is_row_hnf(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            pivots.append(None)
            continue
        assert all(p is not None for p in pivots), "zero row above a nonzero row"
        j = nz[0]
        if pivots and pivots[-1] is not None:
            assert j > pivots[-1], "pivot columns not strictly increasing"
        assert row[j] > 0, "pivot not positive"
        pivots.append(j)
    for r, j in enumerate(pivots):
        if j is None:
            continue
        for i in range(r):
            assert 0 <= h[i][j] < h[r][j], "entry above pivot not reduced"
    return True


class TestHermite:
    def test_identity_fixed(self):
        h, u = hnf(identity(3))
        assert h == identity(3)
        assert u == identity(3)

    def test_small_example(self):
        m = [[2, 4], [1, 3]]
        h, u = hnf(m)
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        assert is_row_hnf(h)
        assert abs(det(h)) == abs(det(m))

    def test_zero_matrix(self):
        h, u = hnf([[0, 0], [0, 0]])
        assert h == [[0, 0], [0, 0]]
        assert u == identity(2)

    @settings(max_examples=150, deadline=None)
    @given(int_matrix())
    def test_transform_and_shape(self, m):
        h, u = hnf(m)
        assert mat_mul(u, m) == h
        assert abs(det(u)) == 1
        assert is_row_hnf(h)


class TestSmith:
    def test_identity(self):
        s, u, v = snf(identity(2))
        assert s == identity(2)

    def test_diag_2_3(self):
        s, _, _ = snf([[2, 0], [0, 3]])
        assert s == [[1, 0], [0, 6]]

    def test_unimodular_input(self):
        s, _, _ = snf([[0, 1], [-1, 0]])
        assert s == identity(2)

    @settings(max_examples=150, deadline=None)
    @given(int_matrix())
    def test_transform_and_chain(self, m):
        s, u, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        n = min(len(s), len(s[0]))
        diag = [s[i][i] for i in range(n)]
        for i in range(len(s)):
            for j in range(len(s[0])):
                if i != j:
                    assert s[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if b:
                assert a and b % a == 0


class TestCosets:
    def test_unit(self):
        assert coset_reps([[1]]) == [(0,)]

    def test_negative_two(self):
        reps = coset_reps([[-2]])
        assert len(reps) == 2
        # brute force residues mod 2
        assert sorted(r[0] % 2 for r in reps) == [0, 1]

    def test_count_diag(self):
        reps = coset_reps([[2, 0], [0, 3]])
        assert len(reps) == 6

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2)
    )
    def test_count_equals_det_and_distinct(self, a):
        d = det(a)
        if d == 0 or abs(d) > 12:
            return
        reps = coset_reps(a)
        assert len(reps) == abs(d)
        seen = set()
        for r in reps:
            # the fractional part of A^-1 r
            red = tuple(x % 1 for x in mat_vec(reference_frac_inv(a), r))
            key = tuple(Fraction(x) for x in red)
            assert key not in seen
            seen.add(key)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            coset_reps([[1, 1], [1, 1]])

    @pytest.mark.parametrize(
        "a",
        [
            [[2**23]],
            [[2**12, 0], [0, -(2**11)]],
            # 5 x 5 with |det| = 2^23 spread over its invariant factors
            [[2, 1, 0, 0, 0], [0, 4, 1, 0, 0], [0, 0, 8, 1, 0], [0, 0, 0, 16, 1], [0, 0, 0, 0, 8192]],
        ],
    )
    def test_too_many_cosets_refused_before_enumeration(self, a):
        assert abs(det(a)) == 2**23
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            coset_reps(a)
        assert time.perf_counter() - start < 1.0


class TestSignature:
    def test_diagonal(self):
        assert signature([[1, 0], [0, -1]]) == Signature(1, 1, 0)

    def test_null_form(self):
        assert signature([[0] * 3 for _ in range(3)]) == Signature(0, 0, 3)

    def test_hyperbolic(self):
        assert signature([[0, 1], [1, 0]]) == Signature(1, 1, 0)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            signature([[0, 1], [2, 0]])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
            )
        )
    )
    def test_congruence_invariance(self, data):
        raw, u = data
        n = len(raw)
        s = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        if det(u) == 0:
            return
        sig = signature(s)
        assert sig.n_plus + sig.n_minus + sig.n_zero == n
        ut_s_u = mat_mul(mat_mul(list(map(list, zip(*u))), s), u)
        # rank can drop only by congruence with singular u, excluded above
        assert signature(ut_s_u) == sig


# ---------------------------------------------------------------------------
# Reference signature: the rational symmetric elimination signature ran before
# it went fraction-free, with the same pivot order.


def reference_signature(s):
    n = len(s)
    a = [[Fraction(x) for x in row] for row in s]
    active = list(range(n))
    n_plus = n_minus = n_zero = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is not None:
            p = a[piv][piv]
            if p > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(piv)
            for i in active:
                f = a[i][piv] / p
                if f:
                    for j in active:
                        a[i][j] -= f * a[piv][j]
            continue
        pair = next(((i, j) for i in active for j in active if j > i and a[i][j] != 0), None)
        if pair is None:
            n_zero += len(active)
            break
        i0, j0 = pair
        b = a[i0][j0]
        n_plus += 1
        n_minus += 1
        active.remove(i0)
        active.remove(j0)
        for i in active:
            ci, cj = a[i][i0], a[i][j0]
            if ci == 0 and cj == 0:
                continue
            for j in active:
                a[i][j] -= (ci * a[j0][j] + cj * a[i0][j]) / b
    return Signature(n_plus, n_minus, n_zero)


def symmetric_rational(max_dim=9):
    """Symmetric matrices of size 0 to max_dim with integer and rational
    entries, many of them zero; about half get a zero diagonal, so that the
    elimination has to take 2x2 pivots."""
    entry = st.one_of(
        st.just(0), st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6)
    )

    def build(n, upper, hollow):
        m = [[0] * n for _ in range(n)]
        it = iter(upper)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = 0 if hollow and i == j else next(it)
        return m

    return st.integers(0, max_dim).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2),
            st.booleans(),
        )
    )


class TestSignatureAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_rational())
    def test_fraction_free_matches_rational_elimination(self, m):
        assert signature(m) == reference_signature(m)

    @settings(max_examples=100, deadline=None)
    @given(symmetric_rational(6), st.integers(1, 5))
    def test_positive_scaling_keeps_inertia(self, m, c):
        assert signature([[Fraction(x, c) for x in row] for row in m]) == signature(m)

    def test_hollow_forms_take_2x2_pivots(self):
        h = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
        assert signature(h) == reference_signature(h) == Signature(1, 2, 0)
        half = [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
        assert signature(half) == Signature(1, 1, 0)

    def test_rational_asymmetry_rejected(self):
        with pytest.raises(NotSymmetric):
            signature([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])


class TestTransformFreeNormalForms:
    @settings(max_examples=200, deadline=None)
    @given(int_matrix(5))
    def test_hnf_rows_are_the_nonzero_rows_of_hnf(self, m):
        h, _ = hnf(m)
        assert hnf_rows(m) == tuple(tuple(r) for r in h if any(r))

    @settings(max_examples=200, deadline=None)
    @given(int_matrix(5))
    @example([[1, 2, 3]])
    @example([[2, 4]])
    @example([[1, 2], [3, 4]])
    @example([[1, 0, 0], [0, 1, 0]])
    @example([[1, 2], [2, 4]])
    def test_is_primitive_iff_unit_invariant_factors(self, m):
        # the nonzero Smith diagonal: one invariant factor per unit of rank
        s, _, _ = snf(m)
        factors = [d for d in (s[i][i] for i in range(min(len(s), len(s[0])))) if d]
        if len(factors) == len(m):
            assert is_primitive(m) == all(d == 1 for d in factors)
        else:
            assert not is_primitive(m)


class TestGaussSums:
    def test_even_rank_one_vanishing(self):
        lhs, rhs = gauss_reciprocity_check([[2]], 2)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_rank_one_unit(self):
        lhs, rhs = gauss_reciprocity_check([[1]], 2)
        assert abs(lhs - (1 + 1j)) < 1e-12
        assert abs(rhs - (1 + 1j)) < 1e-12

    def test_product_structure(self):
        lhs, rhs = gauss_reciprocity_check([[1, 0], [0, 1]], 2)
        assert abs(lhs - (1 + 1j) ** 2) < 1e-12
        assert abs(lhs - rhs) < 1e-12

    def test_shifted(self):
        lhs, rhs = gauss_reciprocity_check([[3]], 4, [Fraction(1, 2)])
        assert abs(lhs - rhs) < 1e-9

    def test_odd_modulus_rejected(self):
        with pytest.raises(OddModulus):
            gauss_reciprocity_check([[1]], 3)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            gauss_reciprocity_check([[1, 1], [1, 1]], 2)


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def quad_form(x, m, y):
    """x^T . m . y, exact."""
    return dot(x, mat_vec(m, y))


def reference_gauss_reciprocity(q, a, w):
    """Both sides of the reciprocity formula with Fraction exponents: the
    evaluation gauss_reciprocity_check made before its exponents became
    integers over one denominator."""
    g = len(q)
    w = [Fraction(x) for x in w]
    lhs = 0j
    for vec in product(range(a), repeat=g):
        t = Fraction(quad_form(vec, q, vec), a) + 2 * dot(w, vec)
        lhs += cmath.exp(1j * math.pi * float(t % 2))
    qinv = reference_frac_inv(q)
    tail = 0j
    for m in coset_reps(q):
        mw = [Fraction(x) + y for x, y in zip(m, w)]
        t = -a * quad_form(mw, qinv, mw)
        tail += cmath.exp(1j * math.pi * float(t % 2))
    sig = signature(q)
    rhs = (
        math.sqrt(abs(a**g / float(det(q))))
        * cmath.exp(1j * math.pi * sig.index / 4)
        * tail
    )
    return lhs, rhs


@st.composite
def gauss_inputs(draw):
    """(Q, a, w): Q symmetric with entries in [-5, 5] at g <= 3, a even up
    to 8, a w integral."""
    g = draw(st.integers(1, 3))
    q = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            q[i][j] = q[j][i] = draw(st.integers(-5, 5))
    a = draw(st.sampled_from((2, 4, 6, 8)))
    w = [Fraction(draw(st.integers(-a, a)), a) for _ in range(g)]
    return q, a, w


def bits(sides):
    return [x.hex() for z in sides for x in (z.real, z.imag)]


@settings(max_examples=150, deadline=None)
@given(gauss_inputs())
# det Q of both signs, each with w != 0
@example(([[-3]], 4, [Fraction(1, 4)]))
@example(([[2, 1], [1, -3]], 6, [Fraction(1, 6), Fraction(-1, 2)]))
@example(([[3, 1, 0], [1, 2, 1], [0, 1, 4]], 8, [Fraction(3, 8), 0, Fraction(-5, 8)]))
@example(([[1, 2, 0], [2, 1, 0], [0, 0, 5]], 2, [Fraction(1, 2), 1, 0]))
def test_gauss_check_is_bit_identical_to_the_fraction_reference(case):
    q, a, w = case
    assume(det(q) != 0)
    assert bits(gauss_reciprocity_check(q, a, w)) == bits(reference_gauss_reciprocity(q, a, w))


class TestPhases:
    def test_unit_phase_normalization(self):
        p = UnitPhase.of(Fraction(5, 2))
        assert p.t == Fraction(1, 2)
        assert abs(p.value() - 1j) < 1e-15

    def test_unit_phase_group(self):
        p = UnitPhase.of(Fraction(3, 4))
        assert (p * p.conj()).t == 0
        assert functools.reduce(operator.mul, [p] * 8).t == 0

    def test_phase_sum_merges(self):
        ps = PhaseSum.build(2, [(Fraction(1, 2), 1), (Fraction(5, 2), 1), (0, 1)])
        assert ps.terms == ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2)))
        expect = (1 + 2j) / math.sqrt(2)
        assert abs(ps.value() - expect) < 1e-15

    def test_phase_sum_folds_antipodes(self):
        ps = PhaseSum.build(1, [(Fraction(3, 2), 2)])
        assert ps.terms == ((Fraction(1, 2), Fraction(-2)),)
        assert abs(ps.value() + 2j) < 1e-15

    def test_phase_sum_product_multiplies_amp2(self):
        a = PhaseSum.build(2, [(0, 1), (Fraction(1, 2), 1)])
        b = PhaseSum.build(3, [(Fraction(1), 1)])
        c = a * b
        assert c.amp2 == 6
        assert abs(c.value() - a.value() * b.value()) < 1e-15

    def test_phase_sum_add_needs_matching_prefactor(self):
        a = PhaseSum.build(2, [(0, 1)])
        b = PhaseSum.build(3, [(0, 1)])
        with pytest.raises(ValueError):
            a + b
        assert (a + PhaseSum.zero()).terms == a.terms

    def test_cancellation(self):
        ps = PhaseSum.build(1, [(0, 1), (1, 1)])  # 1 + e^{i pi} = 0
        assert ps.is_zero()


class TestHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_xgcd(self, a, b):
        g, x, y = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    def test_multixgcd(self, vals):
        g, coeffs = multixgcd(vals)
        assert g == math.gcd(*vals)
        assert sum(c * v for c, v in zip(coeffs, vals)) == g

    def test_int_inv_unimodular(self):
        u = [[1, 2], [0, 1]]
        assert mat_mul(int_inv(u), u) == identity(2)

    def test_int_inv_rejects_nonunimodular(self):
        with pytest.raises(SingularMatrix):
            int_inv([[2, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Reference eliminations: the rational branch det had, and the rational
# Gauss-Jordan loops of the inverse and of the underdetermined solve that the
# package ran before its eliminations became fraction-free.  The tests keep
# them as the rational references of the integer routes.


def reference_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def reference_frac_inv(m):
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def reference_solve_underdetermined(a, rhs):
    nr, nc = len(a), len(a[0])
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(a, rhs)]
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if m[i][nc] != 0:
            raise SingularMatrix("inconsistent linear system")
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = m[i][nc]
    return tuple(x)


def outcome(f, *args):
    """f(*args), or SingularMatrix if it raises that."""
    try:
        return f(*args)
    except SingularMatrix as e:
        return type(e)


def _last_row_dependent(rows, c):
    rows[-1] = [c * x for x in rows[0]]
    return rows


def square_matrix(max_dim=5):
    """Square integer matrices from 0 x 0 to max_dim x max_dim; about half of
    those of size 2 and up get a last row that is a multiple of the first."""

    def of_size(n):
        rows = st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n)
        if n < 2:
            return rows
        return st.one_of(rows, st.builds(_last_row_dependent, rows, st.integers(-2, 2)))

    return st.integers(0, max_dim).flatmap(of_size)


class TestAgainstReferenceEliminations:
    @settings(max_examples=300, deadline=None)
    @given(square_matrix())
    def test_det_matches_rational_branch(self, m):
        d = det(m)
        assert type(d) is int
        assert d == reference_det(m)

    @settings(max_examples=300, deadline=None)
    @given(square_matrix())
    def test_inverse_routes_match_gauss_jordan(self, m):
        ref = outcome(reference_frac_inv, m)
        if ref is SingularMatrix:
            for route in (int_inv, adjugate):
                with pytest.raises(SingularMatrix):
                    route(m)
            return
        d = reference_det(m)
        assert adjugate(m) == [[int(d * x) for x in row] for row in ref]
        if all(x.denominator == 1 for row in ref for x in row):
            assert int_inv(m) == ref
        else:
            with pytest.raises(SingularMatrix):
                int_inv(m)

    @pytest.mark.parametrize(
        "m", [[[Fraction(1, 2)]], [[Fraction(4), 2], [1, 1]], [[1.0, 0], [0, 1]]], ids=str
    )
    def test_det_rejects_non_integer_entries(self, m):
        # Bareiss divides with //, which is silently wrong off the integers
        with pytest.raises(DimensionMismatch):
            det(m)


def reference_snf(m):
    """snf as it stood while its row and column passes were two closures;
    both write out the gcd rotation, so the reference shares no helper."""
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)

    def row_step(t):
        for i in range(t + 1, nr):
            b = a[i][t]
            if b == 0:
                continue
            p_ = a[t][t]
            if p_ != 0 and b % p_ == 0:
                q = b // p_
                a[i] = [ri - q * rt for rt, ri in zip(a[t], a[i])]
                u[i] = [ri - q * rt for rt, ri in zip(u[t], u[i])]
                continue
            g, x, y = xgcd(p_, b)
            pp, qq = p_ // g, b // g
            rt, ri = a[t], a[i]
            a[t] = [x * e + y * f for e, f in zip(rt, ri)]
            a[i] = [-qq * e + pp * f for e, f in zip(rt, ri)]
            rt, ri = u[t], u[i]
            u[t] = [x * e + y * f for e, f in zip(rt, ri)]
            u[i] = [-qq * e + pp * f for e, f in zip(rt, ri)]

    def col_step(t):
        for j in range(t + 1, nc):
            b = a[t][j]
            if b == 0:
                continue
            p_ = a[t][t]
            if p_ != 0 and b % p_ == 0:
                q = b // p_
                for i in range(nr):
                    a[i][j] -= q * a[i][t]
                for i in range(nc):
                    v[i][j] -= q * v[i][t]
                continue
            g, x, y = xgcd(p_, b)
            pp, qq = p_ // g, b // g
            for i in range(nr):
                at, aj = a[i][t], a[i][j]
                a[i][t] = x * at + y * aj
                a[i][j] = -qq * at + pp * aj
            for i in range(nc):
                vt, vj = v[i][t], v[i][j]
                v[i][t] = x * vt + y * vj
                v[i][j] = -qq * vt + pp * vj

    for t in range(min(nr, nc)):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        while True:
            row_step(t)
            col_step(t)
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            p_ = a[t][t]
            culprit = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % p_:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            u[t] = [x + y for x, y in zip(u[t], u[culprit])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return a, u, v


def _degenerate(rows, kind, i, j, c):
    """rows with row i (kind 1) or column j (kind 2) zeroed, or row i made c
    times row 0 (kind 3), or column j made c times column 0 (kind 4)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return rows
    i %= len(rows)
    j %= len(rows[0])
    if kind == 1:
        rows[i] = [0] * len(rows[0])
    elif kind == 2:
        for r in rows:
            r[j] = 0
    elif kind == 3:
        rows[i] = [c * x for x in rows[0]]
    elif kind == 4:
        for r in rows:
            r[j] = c * r[0]
    return rows


def rect_matrix(max_rows=5, max_cols=6):
    """Integer matrices of every shape from 0 x 0 up to max_rows x max_cols,
    entries in [-20, 20]; most get a zero or a dependent row or column."""

    def of_shape(shape):
        r, c = shape
        rows = st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c), min_size=r, max_size=r
        )
        return st.builds(
            _degenerate,
            rows,
            st.integers(0, 4),
            st.integers(0, 4),
            st.integers(0, 5),
            st.integers(-3, 3),
        )

    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(of_shape)


class TestSmithAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(rect_matrix())
    def test_snf_matches_two_pass_reference(self, m):
        assert snf(m) == reference_snf(m)

    def test_snf_matches_reference_on_edge_shapes(self):
        for m in ([], [[]], [[], []], [[0]], [[0, 0, 0]], [[0], [0]], [[7], [0], [-3]]):
            assert snf(m) == reference_snf(m)


# (m, hnf(m), snf(m), coset_reps(m) or None), recorded before hnf and snf
# shared one gcd rotation; the order of coset_reps fixes the term order of
# every PhaseTable.
PINNED_FORMS = [
    (
        [[-4]],
        ([[4]], [[-1]]),
        ([[4]], [[-1]], [[1]]),
        [(0,), (-1,), (-2,), (-3,)],
    ),
    (
        [[0, 3, 3]],
        ([[0, 3, 3]], [[1]]),
        ([[3, 0, 0]], [[1]], [[0, 1, 0], [1, 0, -1], [0, 0, 1]]),
        None,
    ),
    (
        [[5], [-4], [-2]],
        ([[1], [0], [0]], [[-1, -1, -1], [4, 5, 0], [2, 2, 1]]),
        ([[1], [0], [0]], [[1, 0, 2], [0, 1, -2], [-2, 0, -5]], [[1]]),
        None,
    ),
    (
        [[4, 4], [3, 1]],
        ([[1, 3], [0, 8]], [[1, -1], [3, -4]]),
        ([[1, 0], [0, 8]], [[0, 1], [-1, 4]], [[0, 1], [1, -3]]),
        [(0, 0), (-1, 0), (-2, 0), (-3, 0), (-4, 0), (-5, 0), (-6, 0), (-7, 0)],
    ),
    (
        [[4, 3], [2, 4]],
        ([[2, 4], [0, 5]], [[0, 1], [-1, 2]]),
        ([[1, 0], [0, 10]], [[1, -1], [4, -3]], [[0, 1], [-1, 2]]),
        [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9)],
    ),
    (
        [[2, -2], [-5, 4]],
        ([[1, 0], [0, 2]], [[-2, -1], [-5, -2]]),
        ([[1, 0], [0, 2]], [[-2, -1], [-5, -2]], [[1, 0], [0, 1]]),
        [(0, 0), (-1, 2)],
    ),
    (
        [[-4, -4, -1], [-4, 2, -5]],
        ([[4, 4, 1], [0, 6, -4]], [[-1, 0], [-1, 1]]),
        ([[1, 0, 0], [0, 2, 0]], [[-1, 0], [-5, 1]], [[0, -4, -11], [0, 3, 8], [1, 4, 12]]),
        None,
    ),
    (
        [[5, 2], [5, 0], [-2, 1]],
        ([[1, 0], [0, 1], [0, 0]], [[-6, 11, 12], [-2, 4, 5], [5, -9, -10]]),
        ([[1, 0], [0, 1], [0, 0]], [[0, 0, 1], [-1, 2, 2], [5, -9, -10]], [[0, 1], [1, 2]]),
        None,
    ),
    (
        [[-1, 0, 0], [1, 3, 5], [-4, 0, -4]],
        ([[1, 0, 0], [0, 3, 1], [0, 0, 4]], [[-1, 0, 0], [-3, 1, 1], [4, 0, -1]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 12]], [[-1, 0, 0], [1, 1, 0], [8, 4, -1]],
         [[1, 0, 0], [0, 2, -5], [0, -1, 3]]),
        [(0, 0, 0), (0, 0, -1), (0, 0, -2), (0, 0, -3), (0, 0, -4), (0, 0, -5), (0, 0, -6),
         (0, 0, -7), (0, 0, -8), (0, 0, -9), (0, 0, -10), (0, 0, -11)],
    ),
    (
        [[3, 3, -1], [-1, 2, -3], [5, 4, -1]],
        ([[1, 0, 3], [0, 1, 2], [0, 0, 4]], [[8, -2, -5], [11, -2, -7], [14, -3, -9]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 4]], [[-1, 0, 0], [-1, 0, 1], [-10, 1, 7]],
         [[0, 0, 1], [0, 1, -2], [1, 3, -3]]),
        [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)],
    ),
    (
        [[-5, 3, 5], [-4, 4, 1], [2, -3, 2]],
        ([[1, 0, 1], [0, 1, 0], [0, 0, 5]], [[-3, 6, 5], [-2, 4, 3], [-4, 9, 8]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 5]], [[0, 1, 0], [1, -3, -1], [-1, 1, 2]],
         [[0, -1, 6], [0, -1, 5], [1, 0, 4]]),
        [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4)],
    ),
    (
        [[-2, -4, 5, 2], [5, 2, 3, -1]],
        ([[1, 10, -18, -5], [0, 16, -31, -8]], [[-3, -1], [-5, -2]]),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], [[0, -1], [1, 2]],
         [[0, -4, -11, 0], [0, 0, 0, 1], [0, 3, 8, 0], [1, -11, -31, 2]]),
        None,
    ),
    (
        [[3, 1], [5, -1], [3, 5], [3, 2]],
        ([[1, 0], [0, 1], [0, 0], [0, 0]],
         [[-16, 8, 6, -3], [6, -3, -2, 1], [7, -3, -2, 0], [18, -9, -7, 4]]),
        ([[1, 0], [0, 1], [0, 0], [0, 0]],
         [[1, 0, 0, 0], [5, -1, 0, -3], [3, 0, 1, -4], [13, -3, 0, -8]], [[0, 1], [1, -3]]),
        None,
    ),
    (
        [[2, -1, -1, 5], [-2, -3, 0, 1], [3, 3, 0, 0], [5, 2, 1, 0]],
        ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 2], [0, 0, 0, 3]],
         [[0, 1, 1, 0], [-2, 11, 12, -2], [-5, 27, 28, -4], [-3, 18, 19, -3]]),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]],
         [[-1, 0, 0, 0], [-2, 0, 0, -1], [0, 1, 1, 0], [3, -15, -16, 3]],
         [[0, 0, 0, 1], [1, -1, -5, -2], [0, 1, 10, -1], [0, 0, 1, -1]]),
        [(0, 0, 0, 0), (0, 1, -1, 0), (0, 2, -2, 0)],
    ),
    (
        [[-3, -1, 3, 3], [1, 5, -4, 4], [-2, -5, 2, -2], [-2, 1, 3, 3]],
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 5], [0, 0, 0, 12]],
         [[5, -2, -4, -5], [-3, 1, 2, 3], [18, -6, -13, -17], [41, -13, -29, -39]]),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 12]],
         [[-1, 0, 0, 0], [-5, 0, 2, 5], [-3, 3, 4, 2], [11, -7, -11, -9]],
         [[0, 1, 4, 24], [1, -3, -9, -48], [0, 0, 0, 1], [0, 0, 1, 7]]),
        [(0, 0, 0, 0), (0, -16, 15, -6), (0, -32, 30, -12), (0, -48, 45, -18),
         (0, -64, 60, -24), (0, -80, 75, -30), (0, -96, 90, -36), (0, -112, 105, -42),
         (0, -128, 120, -48), (0, -144, 135, -54), (0, -160, 150, -60), (0, -176, 165, -66)],
    ),
    (
        [[2, 3, -5], [-1, -2, 3], [0, 3, -4]],
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[-1, -3, -1], [-4, -8, -1], [-3, -6, -1]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, -1, 0], [-1, -2, 0], [-3, -6, -1]],
         [[1, -2, 1], [0, 1, 1], [0, 0, 1]]),
        [(0, 0, 0)],
    ),
    (
        [[2, 5], [1, -3]],
        ([[1, 8], [0, 11]], [[1, -1], [1, -2]]),
        ([[1, 0], [0, 11]], [[0, 1], [1, -2]], [[1, 3], [0, 1]]),
        [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0),
         (10, 0)],
    ),
    (
        [[2, -5, 0, 1], [2, -5, 4, -5], [-1, 3, 3, -5], [-4, 0, 1, -1]],
        ([[1, 0, 0, 3], [0, 1, 0, 5], [0, 0, 1, 1], [0, 0, 0, 10]],
         [[34, -19, 25, 1], [57, -32, 42, 2], [27, -15, 20, 1], [109, -61, 80, 4]]),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 10]],
         [[1, 0, 0, 0], [1, 0, 0, 1], [-4, 2, -3, 1], [13, -7, 10, -2]],
         [[0, 0, 0, 1], [0, 0, 1, 5], [0, 1, 5, 27], [1, 0, 5, 23]]),
        [(0, 0, 0, 0), (0, -3, -2, 0), (0, -6, -4, 0), (0, -9, -6, 0), (0, -12, -8, 0),
         (0, -15, -10, 0), (0, -18, -12, 0), (0, -21, -14, 0), (0, -24, -16, 0),
         (0, -27, -18, 0)],
    ),
    (
        [[1, -1, -1, -5], [-2, -2, -5, -4], [-2, -3, -5, 0]],
        ([[1, 0, 6, 21], [0, 1, 0, -4], [0, 0, 7, 30]], [[-1, -4, 3], [0, 1, -1], [-2, -5, 4]]),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0], [0, 1, -1], [2, 5, -4]],
         [[1, 1, 14, -33], [0, 1, 12, -28], [0, 0, -13, 30], [0, 0, 3, -7]]),
        None,
    ),
    (
        [[2, 1, -4], [0, 1, -4], [-5, 0, 4]],
        ([[1, 0, 4], [0, 1, 4], [0, 0, 8]], [[3, -3, 1], [5, -4, 2], [5, -5, 2]]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 8]], [[1, 0, 0], [-2, 2, -1], [5, -5, 2]],
         [[0, 1, 4], [1, -2, -4], [0, 0, 1]]),
        [(0, 0, 0), (0, -1, -2), (0, -2, -4), (0, -3, -6), (0, -4, -8), (0, -5, -10),
         (0, -6, -12), (0, -7, -14)],
    ),
    (
        [[0, 0], [0, 0]],
        ([[0, 0], [0, 0]], [[1, 0], [0, 1]]),
        ([[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]),
        None,
    ),
    (
        [[2, 4], [1, 2]],
        ([[1, 2], [0, 0]], [[0, 1], [-1, 2]]),
        ([[1, 0], [0, 0]], [[0, 1], [1, -2]], [[1, -2], [0, 1]]),
        None,
    ),
]


@pytest.mark.parametrize("m, h, s, reps", PINNED_FORMS)
def test_pinned_normal_forms(m, h, s, reps):
    assert hnf(m) == h
    assert snf(m) == s
    if reps is not None:
        assert coset_reps(m) == reps
