import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.exact import (
    PhaseSum,
    Signature,
    UnitPhase,
    coset_reps,
    det,
    gauss_reciprocity_check,
    hnf,
    identity,
    int_inv,
    mat_mul,
    multixgcd,
    signature,
    snf,
    solve,
    xgcd,
)
from torusquant.errors import NotSymmetric, OddModulus, SingularMatrix

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
            red = tuple(x % 1 for x in solve(a, r))  # fractional part of A^-1 r
            key = tuple(Fraction(x) for x in red)
            assert key not in seen
            seen.add(key)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            coset_reps([[1, 1], [1, 1]])


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
