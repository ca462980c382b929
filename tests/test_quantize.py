import cmath
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusquant import quantize
from torusquant.errors import (
    BasesNotPairAdapted,
    BasisMismatch,
    DimensionMismatch,
    NotTransverse,
    OddModulus,
    TooLarge,
    TransverseInput,
)
from torusquant.exact import (
    PhaseSum,
    UnitPhase,
    adjugate,
    coset_box,
    coset_reps,
    det,
    mat_mul,
    mat_vec,
    transpose,
    vec_mat,
)
from torusquant.lattice import (
    AdaptedBasis,
    Lagrangian,
    SymplecticSpace,
    adapted_basis,
    intersect,
    pair_adapted_bases,
)
from torusquant.maslov import LagrangianLift, maslov_index, triple_index
from torusquant.quantize import (
    HilbertSpace,
    Monomial,
    PhaseTable,
    Polarization,
    _closed_form,
    bks_matrix,
    bks_matrix_nontransverse,
    bks_matrix_transverse,
    corrected_intertwiner,
    frame_potential,
    _frame_change,
    intersection_points,
    rebase_unitary,
    unitarity_defect,
)
from torusquant.verify import (
    brute_force_point_count,
    exact_backend_defect,
    pairing_oracle,
    random_lagrangian,
    random_lift,
    random_pair,
    random_sp,
    random_symmetric,
    random_unimodular,
)

from test_exact import reference_frac_inv, reference_solve_underdetermined


def quad_form(x, m, y):
    """x^T . m . y, exact."""
    return sum(a * b for a, b in zip(x, mat_vec(m, y)))


SP1 = SymplecticSpace.standard(1)
SP2 = SymplecticSpace.standard(2)

L_E1 = Lagrangian.make(SP1, [[1, 0]])
L_E2 = Lagrangian.make(SP1, [[0, 1]])
L_SLANT = Lagrangian.make(SP1, [[1, 2]])


def hilbert(lag, k):
    return HilbertSpace(k, Polarization.canonical(lag))


class TestHilbertSpace:
    def test_even_level_required(self):
        with pytest.raises(OddModulus):
            HilbertSpace(3, Polarization.canonical(L_E1))
        with pytest.raises(OddModulus):
            HilbertSpace(0, Polarization.canonical(L_E1))

    def test_label_count(self):
        for k in (2, 4):
            assert len(hilbert(L_E1, k).labels) == k
        lag2 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert len(hilbert(lag2, 4).labels) == 16

    def test_labels_lexicographic(self):
        hs = hilbert(Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]]), 2)
        assert hs.labels == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestFramePotential:
    def test_vanishes_at_origin(self):
        assert frame_potential(Polarization.canonical(L_E1), (0, 0)) == 0

    def test_frame_values(self):
        pol = Polarization.canonical(L_E1)
        assert frame_potential(pol, (1, 0)) == 0
        assert frame_potential(pol, (0, 1)) == 0
        assert frame_potential(pol, (1, 1)) == Fraction(1, 2)

    def test_shift_relations(self):
        rng = random.Random(0)
        for _ in range(25):
            space = SP2 if rng.random() < 0.5 else SP1
            pol = Polarization.canonical(random_lagrangian(rng, space))
            x = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(space.dim))
            for w in pol.basis.w:
                lhs = frame_potential(pol, tuple(a + b for a, b in zip(x, w))) - frame_potential(pol, x)
                assert lhs == Fraction(space.omega(w, x), 2)
            for wp in pol.basis.wperp:
                lhs = frame_potential(pol, tuple(a + b for a, b in zip(x, wp))) - frame_potential(pol, x)
                assert lhs == -Fraction(space.omega(wp, x), 2)


class TestFrameCoords:
    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pairing_matches_the_inverse_stack(self, g, seed, rational):
        rng = random.Random(seed)
        space = SymplecticSpace.standard(g)
        l1, l2 = random_pair(rng, space)
        b1 = adapted_basis(l1)
        for basis in (b1, *pair_adapted_bases(l1, l2), _twisted_frame(rng, b1)):
            if rational:
                x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2 * g))
            else:
                x = tuple(rng.randint(-9, 9) for _ in range(2 * g))
            coords = basis.coords(x)
            # the rational inverse of the frame stack, the route coords replaced
            assert coords == vec_mat(x, reference_frac_inv(basis.stack))
            assert rational or all(isinstance(c, int) for c in coords)


class TestIntersectionPoints:
    def test_single_point_standard_pair(self):
        h1, h2 = hilbert(L_E1, 2), hilbert(L_E2, 2)
        for q1 in h1.labels:
            for q2 in h2.labels:
                assert len(intersection_points(h1, h2, q1, q2)) == 1

    def test_two_points_slanted(self):
        h1, h2 = hilbert(L_E1, 2), hilbert(L_SLANT, 2)
        pts = intersection_points(h1, h2, (1,), (0,))
        assert len(pts) == 2
        # each point solves both label congruences
        for x in pts:
            t1 = 2 * SP1.omega(h1.pol.basis.w[0], x)
            t2 = 2 * SP1.omega(h2.pol.basis.w[0], x)
            assert t1.denominator == 1 and t1 % 2 == 1
            assert t2.denominator == 1 and t2 % 2 == 0

    def test_count_matches_brute_force(self):
        rng = random.Random(1)
        menu = [L_E1, L_E2, L_SLANT, Lagrangian.make(SP1, [[2, 1]]), Lagrangian.make(SP1, [[1, -1]])]
        for _ in range(12):
            l1, l2 = rng.sample(menu, 2)
            k = rng.choice((2, 4))
            h1, h2 = hilbert(l1, k), hilbert(l2, k)
            d = abs(SP1.omega(h2.pol.basis.w[0], h1.pol.basis.w[0]))
            if k * d > 8:
                continue
            q1 = (rng.randrange(k),)
            q2 = (rng.randrange(k),)
            pts = intersection_points(h1, h2, q1, q2)
            assert len(pts) == d
            assert brute_force_point_count(h1, h2, q1, q2) == d

    def test_points_distinct_mod_lattice(self):
        h1, h2 = hilbert(L_E1, 4), hilbert(L_SLANT, 4)
        pts = intersection_points(h1, h2, (3,), (2,))
        seen = {tuple(x % 1 for x in p) for p in pts}
        assert len(seen) == len(pts)

    def test_nontransverse_rejected(self):
        with pytest.raises(NotTransverse):
            intersection_points(hilbert(L_E1, 2), hilbert(L_E1, 2), (0,), (0,))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.sampled_from((2, 4)), st.integers(0, 2**32))
    def test_points_equal_the_fraction_reference(self, g, k, seed):
        rng = random.Random(seed)
        space = SymplecticSpace.standard(g)
        h1, h2 = (hilbert(random_lagrangian(rng, space), k) for _ in range(2))
        # transverse, with at most 64 points per label pair
        assume(0 < abs(det(space.block(h2.pol.basis.w, h1.pol.basis.w))) <= 64)
        q1, q2 = (tuple(rng.randrange(k) for _ in range(g)) for _ in range(2))
        assert intersection_points(h1, h2, q1, q2) == reference_intersection_points(h1, h2, q1, q2)


def reference_intersection_points(h1, h2, q1, q2):
    """The points through the rational inverse of omega(2,1), as
    intersection_points computed them before its integer numerators."""
    k = h1.k
    b1, b2 = h1.pol.basis, h2.pol.basis
    om21 = h1.pol.space.block(b2.w, b1.w)
    om21inv = reference_frac_inv(om21)
    beta = mat_vec(transpose(om21inv), [Fraction(q, k) for q in q1])
    points = []
    for l in coset_reps(om21):
        alpha = mat_vec(om21inv, [Fraction(q, k) + li for q, li in zip(q2, l)])
        points.append(tuple(a - b for a, b in zip(vec_mat(alpha, b1.w), vec_mat(beta, b2.w))))
    return points


class TestTransverseMatrix:
    def test_standard_fourier_entries(self):
        for k in (2, 4):
            h1, h2 = hilbert(L_E1, k), hilbert(L_E2, k)
            f = bks_matrix_transverse(h1, h2)
            expect = np.array(
                [
                    [cmath.exp(2j * math.pi * q1 * q2 / k) for q1 in range(k)]
                    for q2 in range(k)
                ]
            ) / math.sqrt(k)
            assert np.abs(f.matrix - expect).max() < 1e-14

    def test_matches_defining_sum(self):
        # closed form against the intersection-point pairing sum
        h1, h2 = hilbert(L_E1, 2), hilbert(L_SLANT, 2)
        f = bks_matrix_transverse(h1, h2)
        assert np.abs(pairing_oracle(h1, h2) - f.matrix).max() < 1e-12

    def test_entry_magnitudes(self):
        h1, h2 = hilbert(L_E1, 2), hilbert(L_E2, 2)
        f = bks_matrix_transverse(h1, h2)
        assert np.abs(np.abs(f.matrix) - 1 / math.sqrt(2)).max() < 1e-14

    def test_unitary(self):
        rng = random.Random(2)
        for _ in range(10):
            space = SP2 if rng.random() < 0.5 else SP1
            l1 = random_lagrangian(rng, space)
            l2 = random_lagrangian(rng, space)
            if intersect(l1, l2).rank:
                continue
            k = rng.choice((2, 4))
            f = bks_matrix_transverse(hilbert(l1, k), hilbert(l2, k))
            assert unitarity_defect(f.matrix) < 1e-12

    def test_exact_form_populated(self):
        f = bks_matrix_transverse(hilbert(L_E1, 2), hilbert(L_SLANT, 2))
        assert f.exact.amp2 == 2 * 2
        assert exact_backend_defect(f) < 1e-14
        assert all(f.exact.entry(r, c).amp2 == 2 * 2 for r in range(2) for c in range(2))


class TestNontransverseMatrix:
    def test_identical_polarizations_identity(self):
        h = hilbert(L_E1, 4)
        f = bks_matrix_nontransverse(h, h)
        assert np.abs(f.matrix - np.eye(4)).max() == 0

    def test_block_structure_g2(self):
        l1 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        l2 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 0, 0, 1]])
        b1, b2 = pair_adapted_bases(l1, l2)
        k = 2
        h1 = HilbertSpace(k, Polarization(l1, b1))
        h2 = HilbertSpace(k, Polarization(l2, b2))
        f = bks_matrix_nontransverse(h1, h2)
        assert unitarity_defect(f.matrix) < 1e-12
        # entries vanish unless the shared label component agrees
        for i2, q2 in enumerate(h2.labels):
            for i1, q1 in enumerate(h1.labels):
                if q1[1] != q2[1]:
                    assert f.matrix[i2, i1] == 0
                else:
                    assert abs(abs(f.matrix[i2, i1]) - 1 / math.sqrt(k)) < 1e-14
        # against the leafwise-constant pairing sum
        assert np.abs(pairing_oracle(h1, h2) - f.matrix).max() < 1e-12

    def test_transverse_input_rejected(self):
        with pytest.raises(TransverseInput):
            bks_matrix_nontransverse(hilbert(L_E1, 2), hilbert(L_E2, 2))

    def test_requires_pair_adapted_frames(self):
        l1 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        l2 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 0, 0, 1]])
        h1 = hilbert(l1, 2)
        h2 = hilbert(l2, 2)
        with pytest.raises(BasesNotPairAdapted):
            bks_matrix_nontransverse(h1, h2)


def reference_pairing_oracle(h1, h2):
    """The defining sum through a rational Gauss-Jordan solve of the label
    congruences per coset, as the nontransverse oracle summed it before its
    integer point routine; h = g takes a transverse pair, whose one solution
    per coset is the intersection point."""
    k = h1.k
    space = h1.pol.space
    g = h1.g
    b1, b2 = h1.pol.basis, h2.pol.basis
    h = g - intersect(h1.pol.lag, h2.pol.lag).rank
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
                x = reference_solve_underdetermined(system, rhs)
                t = 2 * k * (frame_potential(h2.pol, x) - frame_potential(h1.pol, x))
                acc += cmath.exp(1j * math.pi * float(t % 2))
            out[i2, i1] = norm * acc
    return out


class TestPairingOracle:
    @pytest.mark.parametrize("transverse", [True, False])
    @settings(max_examples=40, deadline=None)
    @given(g=st.sampled_from((1, 2, 3)), k=st.sampled_from((2, 4)), seed=st.integers(0, 2**32))
    def test_equals_the_fraction_route_bit_for_bit(self, transverse, g, k, seed):
        assume(g + k <= 6)
        l1, l2 = random_pair(random.Random(seed), SymplecticSpace.standard(g))
        shared = intersect(l1, l2).rank
        assume((shared == 0) == transverse)
        b1, b2 = pair_adapted_bases(l1, l2)
        h1, h2 = HilbertSpace(k, Polarization(l1, b1)), HilbertSpace(k, Polarization(l2, b2))
        h = g - shared
        assume(abs(det(SymplecticSpace.standard(g).block(b2.w[:h], b1.w[:h]))) <= 6)
        got = pairing_oracle(h1, h2)
        assert got.tobytes() == reference_pairing_oracle(h1, h2).tobytes()
        assert np.abs(got - bks_matrix(h1, h2).matrix).max() < 1e-12

    @pytest.mark.parametrize(
        "rows1, rows2",
        [
            # the parent's leafwise route divided by det R = 0 on these
            ([[1, 4, -6, 2], [0, 7, -10, 6]], [[1, 0, 18, -6], [0, 1, -6, 2]]),
            # and summed over the wrong points on these
            ([[1, 1, 1, 2], [0, 8, 5, 11]], [[10, 2, 4, 9], [0, 8, 5, 11]]),
        ],
    )
    def test_frames_that_are_not_pair_adapted_are_rejected(self, rows1, rows2):
        l1, l2 = Lagrangian.make(SP2, rows1), Lagrangian.make(SP2, rows2)
        assert intersect(l1, l2).rank == 1
        with pytest.raises(BasesNotPairAdapted):
            pairing_oracle(hilbert(l1, 2), hilbert(l2, 2))
        # on pair-adapted frames the same pair agrees with the closed form
        b1, b2 = pair_adapted_bases(l1, l2)
        h1, h2 = HilbertSpace(2, Polarization(l1, b1)), HilbertSpace(2, Polarization(l2, b2))
        assert np.abs(pairing_oracle(h1, h2) - bks_matrix(h1, h2).matrix).max() < 1e-12


class TestRebase:
    def test_same_frame_is_identity(self):
        pol = Polarization.canonical(L_E1)
        r = rebase_unitary(pol, pol.basis, pol.basis, 4)
        assert np.abs(r.matrix - np.eye(4)).max() == 0

    def test_wperp_shift_diagonal_phases(self):
        # W' = W, Wperp' = Wperp + W; the identification carries conjugate
        # phases e^{-pi i q^2/k}, pinned by the potential-difference oracle
        pol = Polarization.canonical(L_E1)
        shifted = AdaptedBasis(SP1, ((1, 0),), ((1, 1),))
        k = 4
        r = rebase_unitary(pol, pol.basis, shifted, k)
        target_pol = Polarization(L_E1, shifted)
        for q in range(k):
            x = (Fraction(0), Fraction(q, k))  # a point on the orbit with label q
            t = 2 * k * (frame_potential(target_pol, x) - frame_potential(pol, x))
            oracle = cmath.exp(1j * math.pi * float(t % 2))
            assert abs(r.matrix[q, q] - oracle) < 1e-14
            assert abs(r.matrix[q, q] - cmath.exp(-1j * math.pi * q * q / k)) < 1e-14

    def test_label_permutation(self):
        # W' = -W: labels flip sign mod k
        pol = Polarization.canonical(L_E1)
        flipped = AdaptedBasis(SP1, ((-1, 0),), ((0, -1),))
        k = 4
        r = rebase_unitary(pol, pol.basis, flipped, k)
        for q2 in range(k):
            hits = np.nonzero(np.abs(r.matrix[q2]) > 0.5)[0]
            assert list(hits) == [(-q2) % k]

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(15):
            space = SP2 if rng.random() < 0.5 else SP1
            g = space.g
            lag = random_lagrangian(rng, space)
            pol = Polarization.canonical(lag)
            k = rng.choice((2, 4))
            other = _twisted_frame(rng, pol.basis)
            r = rebase_unitary(pol, pol.basis, other, k)
            back = rebase_unitary(pol, other, pol.basis, k)
            assert np.abs(r.matrix @ back.matrix - np.eye(k**g)).max() < 1e-12

    def test_conjugation_consistency(self):
        # the same pairing computed in twisted frames and rebased agrees with
        # the canonical-frame computation
        rng = random.Random(4)
        for _ in range(10):
            space = SP1 if rng.random() < 0.5 else SP2
            l1, l2 = random_pair(rng, space)
            if intersect(l1, l2).rank:
                continue
            k = rng.choice((2, 4))
            h1, h2 = hilbert(l1, k), hilbert(l2, k)
            f = bks_matrix_transverse(h1, h2)
            b1t = _twisted_frame(rng, h1.pol.basis)
            b2t = _twisted_frame(rng, h2.pol.basis)
            h1t = HilbertSpace(k, Polarization(l1, b1t))
            h2t = HilbertSpace(k, Polarization(l2, b2t))
            ft = bks_matrix_transverse(h1t, h2t)
            r2 = rebase_unitary(h2.pol, b2t, h2.pol.basis, k)
            r1 = rebase_unitary(h1.pol, h1.pol.basis, b1t, k)
            assert np.abs(r2.matrix @ ft.matrix @ r1.matrix - f.matrix).max() < 1e-12

    def test_frame_must_match_polarization(self):
        pol = Polarization.canonical(L_E1)
        other = adapted_basis(L_E2)
        with pytest.raises(BasisMismatch):
            rebase_unitary(pol, pol.basis, other, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from((1, 2, 3)), st.sampled_from((2, 4)))
    def test_frame_changes_compose(self, seed, g, k):
        # the groupoid law: b1 -> b2 -> b3 is b1 -> b3, labels and exponents
        rng = random.Random(seed)
        b1 = adapted_basis(random_lagrangian(rng, SymplecticSpace.standard(g)))
        b2 = _twisted_frame(rng, b1)
        b3 = _twisted_frame(rng, b2)
        first, then, direct = _frame_change(b1, b2, k), _frame_change(b2, b3, k), _frame_change(b1, b3, k)
        # row i of then holds column j; row j of first holds column c
        cols = [first.cols[j] for j in then.cols]
        exps = [(then.exps[i] + first.exps[j]) % 2 for i, j in enumerate(then.cols)]
        assert cols == list(direct.cols)
        assert exps == [t % 2 for t in direct.exps]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(((1, 2), (1, 4), (2, 2), (2, 4), (3, 2))))
    def test_self_pairing_is_the_frame_change(self, seed, gk):
        g, k = gk
        rng = random.Random(seed)
        lag = random_lagrangian(rng, SymplecticSpace.standard(g))
        pol = Polarization.canonical(lag)
        b1 = _twisted_frame(rng, pol.basis)
        b2 = _twisted_frame(rng, pol.basis)
        h1 = HilbertSpace(k, Polarization(lag, b1))
        h2 = HilbertSpace(k, Polarization(lag, b2))
        got, want = bks_matrix(h1, h2).exact, rebase_unitary(pol, b1, b2, k).exact
        assert (got.amp2, got.den) == (want.amp2, want.den)
        assert np.array_equal(got.nums, want.nums)
        assert np.array_equal(got.live, want.live)
        # and the route through pair-adapted frames agrees entry by entry
        _assert_matches_reference(bks_matrix(h1, h2), _reference_bks(h1, h2))


def _twisted_frame(rng, basis):
    """Another adapted frame of the same Lagrangian: W' = A W and
    Wperp' = A^-T (Wperp + S W) for random unimodular A, symmetric S."""
    from torusquant.exact import int_inv, transpose

    g = basis.space.g
    a = random_unimodular(rng, g)
    s = random_symmetric(rng, g, bound=1)
    w = [list(r) for r in basis.w]
    wp = [
        [x + y for x, y in zip(row, vec_mat(s[i], w))]
        for i, row in enumerate(basis.wperp)
    ]
    a_inv_t = transpose(int_inv(a))
    return AdaptedBasis(
        basis.space,
        tuple(tuple(r) for r in mat_mul(a, w)),
        tuple(tuple(r) for r in mat_mul(a_inv_t, wp)),
    )


class TestDispatch:
    def test_same_space_identity(self):
        h = hilbert(L_SLANT, 4)
        f = bks_matrix(h, h)
        assert np.abs(f.matrix - np.eye(4)).max() == 0

    def test_two_sided_inverse(self):
        rng = random.Random(5)
        for _ in range(12):
            space = SP2 if rng.random() < 0.6 else SP1
            l1, l2 = random_pair(rng, space)
            k = rng.choice((2, 4))
            h1, h2 = hilbert(l1, k), hilbert(l2, k)
            f = bks_matrix(h1, h2)
            g = bks_matrix(h2, h1)
            assert np.abs(g.matrix @ f.matrix - np.eye(h1.dim)).max() < 1e-12

    def test_exact_form_through_dispatch(self):
        l1 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        l2 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 0, 0, 1]])
        f = bks_matrix(hilbert(l1, 2), hilbert(l2, 2))
        assert f.exact is not None
        assert exact_backend_defect(f) < 1e-14

    def test_triple_composition_phase(self):
        l1, l2, l3 = L_E1, L_SLANT, L_E2
        k = 2
        h = [hilbert(l, k) for l in (l1, l2, l3)]
        comp = (
            bks_matrix(h[2], h[0]).matrix
            @ bks_matrix(h[1], h[2]).matrix
            @ bks_matrix(h[0], h[1]).matrix
        )
        tau = triple_index(l1, l2, l3)
        expected = cmath.exp(-1j * math.pi * tau / 4) * np.eye(k)
        assert np.abs(comp - expected).max() < 1e-12

    def test_level_must_match(self):
        with pytest.raises(DimensionMismatch):
            bks_matrix(hilbert(L_E1, 2), hilbert(L_E2, 4))


class TestTableBudget:
    @pytest.mark.parametrize(
        "g,k,rows1,rows2",
        [
            # 64^6 entries of one term each
            (3, 64, [[int(j == i) for j in range(6)] for i in range(3)],
             [[int(j == i + 3) for j in range(6)] for i in range(3)]),
            # 4 entries of 2^30 terms each
            (1, 2, [[1, 0]], [[1, 2**30]]),
        ],
    )
    def test_rejected_before_enumeration(self, g, k, rows1, rows2):
        space = SymplecticSpace.standard(g)
        h1 = hilbert(Lagrangian.make(space, rows1), k)
        h2 = hilbert(Lagrangian.make(space, rows2), k)
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            bks_matrix(h1, h2)
        assert time.perf_counter() - start < 1.0


class TestCorrected:
    def test_equal_lifts_identity(self):
        lift = LagrangianLift(L_E1, L_SLANT, 1, 4)
        f = corrected_intertwiner(lift, lift, 2)
        assert np.abs(f.matrix - np.eye(2)).max() < 1e-14

    def test_transitive_over_lifted_triples(self):
        rng = random.Random(6)
        for _ in range(10):
            space = SP1 if rng.random() < 0.5 else SP2
            base = random_lagrangian(rng, space)
            lifts = [random_lift(rng, base, random_lagrangian(rng, space)) for _ in range(3)]
            k = rng.choice((2, 4))
            comp = (
                corrected_intertwiner(lifts[2], lifts[0], k).matrix
                @ corrected_intertwiner(lifts[1], lifts[2], k).matrix
                @ corrected_intertwiner(lifts[0], lifts[1], k).matrix
            )
            assert np.abs(comp - np.eye(comp.shape[0])).max() < 1e-9

    def test_deck_shift_scales_by_quarter_phase(self):
        # shifting the source lift by the half deck step multiplies by e^{i pi/2};
        # a full deck shift (lambda + 4) gives the central -1
        base = L_E1
        l1 = LagrangianLift(base, L_SLANT, 1, 4)
        l2 = LagrangianLift(base, L_E2, 1, 4)
        f = corrected_intertwiner(l1, l2, 2)
        f_half = corrected_intertwiner(l1.shifted(1), l2, 2)
        ratio = f_half.matrix[0, 0] / f.matrix[0, 0]
        assert abs(ratio - 1j) < 1e-12
        f_full = corrected_intertwiner(l1.shifted(2), l2, 2)
        assert np.abs(f_full.matrix + f.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# the per-entry PhaseSum route that the phase tables replaced, kept as the
# slow exact reference


def _reference_phase_table(k, d, adj, m1, m3, reps, labels):
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


def _reference_pairing(h1, h2, h):
    """PhaseSum rows of the pairing between frames that share their trailing
    g - h pairs (h = g: transverse)."""
    space, k = h1.pol.space, h1.k
    b1, b2 = h1.pol.basis, h2.pol.basis
    om21p = space.block(b2.w, b1.wperp)
    om2p1 = space.block(b2.wperp, b1.w)
    red21 = [row[:h] for row in space.block(b2.w, b1.w)[:h]]
    d = det(red21)
    adj = adjugate(red21)
    m1 = mat_mul(adj, [row[:h] for row in om21p[:h]])
    m3 = mat_mul([row[:h] for row in om2p1[:h]], adj)
    head = list(product(range(k), repeat=h))
    head_table, den = _reference_phase_table(k, d, adj, m1, m3, coset_reps(red21), head)
    head_index = {q: i for i, q in enumerate(head)}
    amp2 = Fraction(abs(k**h * d))
    rows = [[PhaseSum.zero()] * h1.dim for _ in range(h2.dim)]
    for i1, q1 in enumerate(h1.labels):
        for i2, q2 in enumerate(h2.labels):
            if q1[h:] == q2[h:]:
                nums = head_table[(head_index[q2[:h]], head_index[q1[:h]])]
                rows[i2][i1] = PhaseSum.build(amp2, [(Fraction(n, den), 1) for n in nums])
    return rows


def _times_phase(entry, phase):
    return PhaseSum.build(entry.amp2, [(t + phase.t, c) for t, c in entry.terms])


def _reference_bks(h1, h2):
    l1, l2 = h1.pol.lag, h2.pol.lag
    s = intersect(l1, l2).rank
    if s == 0:
        return _reference_pairing(h1, h2, h1.g)
    k = h1.k
    pb1, pb2 = pair_adapted_bases(l1, l2)
    hp1 = HilbertSpace(k, Polarization(l1, pb1))
    hp2 = HilbertSpace(k, Polarization(l2, pb2))
    mid = _reference_pairing(hp1, hp2, h1.g - s)
    out = reference_frame_change(pb2, h2.pol.basis, k)
    back = reference_frame_change(h1.pol.basis, pb1, k)
    rows = sorted(range(h1.dim), key=back.cols.__getitem__)
    out_phases = [UnitPhase.of(t) for t in out.exps]
    back_phases = [UnitPhase.of(t) for t in back.exps]
    return [
        [_times_phase(mid[j2][jb], phi * back_phases[jb]) for jb in rows]
        for j2, phi in zip(out.cols, out_phases)
    ]


def _reference_corrected(lift1, lift2, k):
    phase = UnitPhase.of(-Fraction(maslov_index(lift2, lift1, 4), 4))
    rows = _reference_bks(hilbert(lift1.lag, k), hilbert(lift2.lag, k))
    return [[_times_phase(e, phase) for e in row] for row in rows]


def _assert_matches_reference(inter, rows):
    assert inter.exact.live.shape == (len(rows), len(rows[0]))
    for r, row in enumerate(rows):
        for c, want in enumerate(row):
            assert inter.exact.entry(r, c) == want, (r, c)
            assert abs(inter.matrix[r, c] - want.value()) < 1e-12, (r, c)


class TestAgainstPhaseSumReference:
    @pytest.mark.parametrize("g,k", [(1, 2), (1, 4), (2, 2), (2, 4)])
    def test_desk_grid(self, g, k):
        rng = random.Random(100 * g + k)
        space = SP1 if g == 1 else SP2
        kinds = set()
        for _ in range(8):
            l1, l2 = random_pair(rng, space)
            h1, h2 = hilbert(l1, k), hilbert(l2, k)
            if intersect(l1, l2).rank:
                kinds.add("nontransverse")
                _assert_matches_reference(bks_matrix(h1, h2), _reference_bks(h1, h2))
                # twisted frames give both frame changes nontrivial phases
                h1t = HilbertSpace(k, Polarization(l1, _twisted_frame(rng, h1.pol.basis)))
                h2t = HilbertSpace(k, Polarization(l2, _twisted_frame(rng, h2.pol.basis)))
                _assert_matches_reference(bks_matrix(h1t, h2t), _reference_bks(h1t, h2t))
            else:
                kinds.add("transverse")
                _assert_matches_reference(
                    bks_matrix_transverse(h1, h2), _reference_pairing(h1, h2, g)
                )
            base = random_lagrangian(rng, space)
            lift1, lift2 = random_lift(rng, base, l1), random_lift(rng, base, l2)
            _assert_matches_reference(
                corrected_intertwiner(lift1, lift2, k), _reference_corrected(lift1, lift2, k)
            )
        assert kinds == {"transverse", "nontransverse"}

    @given(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: math.gcd(*v) == 1),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: math.gcd(*v) == 1),
        st.sampled_from((2, 4, 6)),
    )
    @settings(max_examples=40, deadline=None)
    def test_g1_pairs(self, v1, v2, k):
        h1 = hilbert(Lagrangian.make(SP1, [v1]), k)
        h2 = hilbert(Lagrangian.make(SP1, [v2]), k)
        _assert_matches_reference(bks_matrix(h1, h2), _reference_bks(h1, h2))

    def test_many_terms_per_entry(self):
        # |det omega21| = 10001 phase terms per entry
        h1, h2 = hilbert(L_E1, 2), hilbert(Lagrangian.make(SP1, [[1, 10001]]), 2)
        f = bks_matrix(h1, h2)
        assert f.exact.nums.shape == (2, 2, 10001)
        _assert_matches_reference(f, _reference_bks(h1, h2))


# ---------------------------------------------------------------------------
# the per-label Python loops that the int64 label kernel replaced, kept as
# the references for _closed_form and _frame_change


def reference_closed_form(b1, b2, k, h, reps=None):
    """The pairing table with its per-label parts built as Python ints, one
    quad_form and mat_vec per (label, coset) pair; reps defaults to every
    coset of Z^h / R Z^h in coset_reps order."""
    space, g = b1.space, b1.space.g
    r = space.block(b2.w[:h], b1.w[:h])
    p = space.block(b2.w[:h], b1.wperp[:h])
    s = space.block(b2.wperp[:h], b1.w[:h])
    d = det(r)
    adj = adjugate(r)
    m1 = mat_mul(adj, p)
    m3 = mat_mul(s, adj)
    reps = coset_reps(r) if reps is None else reps
    den = abs(d) * k
    sign = 1 if d > 0 else -1
    head = list(product(range(k), repeat=h))
    n1 = [sign * quad_form(a, m1, a) % (2 * den) for a in head]
    n3, adj_w = [], []
    for q2 in head:
        ws = [[q + k * li for q, li in zip(q2, l)] for l in reps]
        n3.append([sign * quad_form(w, m3, w) % (2 * den) for w in ws])
        adj_w.append([[sign * x % den for x in mat_vec(adj, w)] for w in ws])
    head, n1, n3, adj_w = (np.array(x, dtype=np.int64) for x in (head, n1, n3, adj_w))
    cross = np.einsum("ah,bjh->baj", head, adj_w)
    nums = n1[None, :, None] - 2 * cross - n3[:, None, :]
    head_of, tail_of = np.divmod(np.arange(k**g), k ** (g - h))
    return PhaseTable(
        abs(k**h * d),
        den,
        nums[np.ix_(head_of, head_of)] % (2 * den),
        tail_of[:, None] == tail_of[None, :],
    )


def reference_frame_change(b1, b2, k):
    """The frame-change monomial built label by label: a mat_vec, a
    quad_form and a Fraction per label."""
    space = b1.space
    c_inv = space.block(b1.w, b2.wperp)
    s_mat = mat_mul(transpose(c_inv), transpose(space.block(b2.wperp, b1.wperp)))
    labels = list(product(range(k), repeat=space.g))
    index = {q: i for i, q in enumerate(labels)}
    cols = tuple(index[tuple(x % k for x in mat_vec(c_inv, q2))] for q2 in labels)
    exps = tuple(-Fraction(quad_form(q2, s_mat, q2), k) for q2 in labels)
    return Monomial(cols, exps)


def _assert_same_table(got, want):
    assert (got.amp2, got.den) == (want.amp2, want.den)
    assert got.nums.dtype == want.nums.dtype == np.int64
    assert np.array_equal(got.nums, want.nums)
    assert np.array_equal(got.live, want.live)


def _pair_with_h_own(g, h, bs, a_s, move_seed):
    """Two Lagrangians whose pairing has h own pairs: span(e) against rows
    a_i e_i + b_i f_i (i < h) and e_i (i >= h), so |det R| = prod |b_i|;
    a seeded symplectic map moves both."""
    space = SymplecticSpace.standard(g)
    unit = [[int(j == i) for j in range(2 * g)] for i in range(g)]
    rows = [list(row) for row in unit]
    for i, (a, b) in enumerate(zip(a_s, bs)):
        rows[i][i], rows[i][g + i] = a, b
    l1, l2 = Lagrangian.make(space, unit), Lagrangian.make(space, rows)
    move = random_sp(random.Random(move_seed), adapted_basis(l1), 3)
    return move.apply_lagrangian(l1), move.apply_lagrangian(l2)


@st.composite
def _kernel_inputs(draw):
    g = draw(st.integers(1, 3))
    h = draw(st.integers(0, g))
    k = draw(st.sampled_from((2, 4) if g < 3 else (2,)))
    b0 = draw(st.integers(1, 300) if g == 1 else st.integers(1, 60))
    bs = [b0] + [draw(st.integers(1, 3)) for _ in range(h - 1)]
    bs = [b * draw(st.sampled_from((1, -1))) for b in bs][:h]
    a_s = [draw(st.integers(-9, 9).filter(lambda a, b=b: math.gcd(a, b) == 1)) for b in bs]
    return g, h, k, bs, a_s, draw(st.integers(0, 2**16)), draw(st.booleans())


class TestLabelKernel:
    @given(_kernel_inputs())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_the_python_loops(self, inputs):
        g, h, k, bs, a_s, seed, twist = inputs
        l1, l2 = _pair_with_h_own(g, h, bs, a_s, seed)
        if h == g:
            b1, b2 = adapted_basis(l1), adapted_basis(l2)
            if twist:
                # transverse frames need not share anything
                rng = random.Random(seed)
                b1, b2 = _twisted_frame(rng, b1), _twisted_frame(rng, b2)
        else:
            b1, b2 = pair_adapted_bases(l1, l2)
        assert g - intersect(l1, l2).rank == h
        got, want = _closed_form(b1, b2, k, h), reference_closed_form(b1, b2, k, h)
        _assert_same_table(got, want)
        # value() sums each entry's terms in memory order
        assert got.nums.flags.c_contiguous
        assert _same_bits(got.value(), reference_value(want))

    def test_both_signs_of_det(self):
        # at g = 1 swapping the frames flips the sign of det R
        signs = set()
        for b in (5, 7, 299):
            l1, l2 = _pair_with_h_own(1, 1, [b], [2], 3)
            b1, b2 = adapted_basis(l1), adapted_basis(l2)
            for f1, f2 in ((b1, b2), (b2, b1)):
                signs.add(det(SP1.block(f2.w, f1.w)) > 0)
                _assert_same_table(_closed_form(f1, f2, 6, 1), reference_closed_form(f1, f2, 6, 1))
        assert signs == {True, False}

    @given(st.integers(1, 3), st.sampled_from((2, 4, 6)), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_frame_change_matches_the_python_loop(self, g, k, seed):
        if g == 3:
            k = 2
        rng = random.Random(seed)
        space = SymplecticSpace.standard(g)
        l1, l2 = random_pair(rng, space)
        b = adapted_basis(l1)
        frames = [(b, _twisted_frame(rng, b)), (_twisted_frame(rng, b), b)]
        if intersect(l1, l2).rank:
            pb1, pb2 = pair_adapted_bases(l1, l2)
            frames += [(b, pb1), (pb2, adapted_basis(l2))]
        for f1, f2 in frames:
            got, want = _frame_change(f1, f2, k), reference_frame_change(f1, f2, k)
            assert got.cols == want.cols
            assert all((x - y) % 2 == 0 for x, y in zip(got.exps, want.exps))
            _assert_same_table(got.table(), want.table())

    @pytest.mark.parametrize("g,d", [(1, 2**20 - 3), (2, 2**18 - 5)])
    def test_near_the_budget_edge(self, g, d):
        # den = 2 |d| near 2^21, the largest the budget admits, with frame
        # entries near den / 4; one of the two directions reduces M3 to about
        # den, where w^T M3 w alone would need about 2^65 unreduced
        a = 2**19 + 1 if g == 1 else 2**17 + 1
        l1, l2 = _pair_with_h_own(g, g, [d] + [1] * (g - 1), [a] + [1] * (g - 1), 0)
        space = SymplecticSpace.standard(g)
        rng = random.Random(g)
        for b1, b2 in [(adapted_basis(l1), adapted_basis(l2))] + [(adapted_basis(l2), adapted_basis(l1))]:
            r = space.block(b2.w, b1.w)
            assert abs(det(r)) == d and 2**22 // 2 ** (2 * g) - d < 8
            table = _closed_form(b1, b2, 2, g)
            assert table.nums.shape == (2**g, 2**g, d) and table.den == 2 * d
            # box index j -> box point (lexicographic) -> coset representative
            diag, uinv = coset_box(r)
            js = sorted(rng.sample(range(d), 64)) + [0, d - 1]
            reps = []
            for j in js:
                point = []
                for size in reversed(diag):
                    j, x = divmod(j, size)
                    point.append(x)
                reps.append(mat_vec(uinv, point[::-1]))
            want = reference_closed_form(b1, b2, 2, g, reps)
            assert np.array_equal(table.nums[:, :, js], want.nums)

    def test_large_det_is_fast(self):
        # the per-label Python loops took 2 s here
        h1, h2 = hilbert(L_E1, 2), hilbert(Lagrangian.make(SP1, [[3, 100001]]), 2)
        start = time.perf_counter()
        f = bks_matrix(h1, h2)
        assert time.perf_counter() - start < 1.0
        assert f.exact.nums.shape == (2, 2, 100001)


def reference_value(table):
    """The float matrix as PhaseTable.value() built it before the one-term
    gather and the in-place scale and mask."""
    unit = np.exp(1j * np.pi * (np.arange(table.den) / table.den))
    unit = np.concatenate([unit, -unit])
    sums = unit[table.nums].sum(axis=-1) / math.sqrt(table.amp2)
    return np.where(table.live, sums, 0)


def _same_bits(a, b):
    return a.dtype == b.dtype == np.complex128 and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def _tables(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    den = draw(st.integers(1, 2**12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    nums = rng.integers(0, 2 * den, size=(rows, cols, draw(st.sampled_from((1, 2, 9, 17)))))
    live = rng.random((rows, cols)) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    return PhaseTable(draw(st.integers(1, 10**6)), den, nums, live)


class TestFloatAssembly:
    @given(_tables())
    @settings(max_examples=80, deadline=None)
    def test_value_is_the_reference_bit_for_bit(self, table):
        assert _same_bits(table.value(), reference_value(table))

    @given(_tables(), st.fractions(-4, 4, max_denominator=64))
    @settings(max_examples=80, deadline=None)
    def test_scaled_is_a_constant_row_shift(self, table, t):
        rows, cols = table.live.shape
        _assert_same_table(table.scaled(t), table.times([t] * rows, [0] * cols))

    def test_unitarity_defect_is_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(16)
        matrices = [bks_matrix(hilbert(L_E1, 4), hilbert(L_SLANT, 4)).matrix]
        for n in (1, 2, 5, 64, 256):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            matrices += [np.linalg.qr(z)[0], z]
        for m in matrices:
            want = float(np.abs(m @ m.conj().T - np.eye(m.shape[0])).max())
            assert unitarity_defect(m) == want


class TestOneFloatMatrixPerCall:
    @pytest.fixture
    def evaluations(self, monkeypatch):
        count = [0]
        value = PhaseTable.value

        def counted(table):
            count[0] += 1
            return value(table)

        monkeypatch.setattr(PhaseTable, "value", counted)
        return count

    def test_pairings(self, evaluations):
        rng = random.Random(8)
        seen = set()
        while len(seen) < 2:
            l1, l2 = random_pair(rng, SP2)
            seen.add(intersect(l1, l2).rank > 0)
            for call in (
                lambda: bks_matrix(hilbert(l1, 2), hilbert(l2, 2)),
                lambda: corrected_intertwiner(
                    random_lift(rng, l1, l1), random_lift(rng, l1, l2), 2
                ),
            ):
                evaluations[0] = 0
                call()
                assert evaluations[0] == 1

    def test_operators(self, evaluations):
        from torusquant.representations import mp_operator, sp_operator
        from torusquant.verify import random_mp_word

        rng = random.Random(9)
        hs = hilbert(random_lagrangian(rng, SP2), 4)
        for call in (
            lambda: sp_operator(random_sp(rng, hs.pol.basis, 3), hs),
            lambda: mp_operator(random_mp_word(rng, hs.pol.basis, 3), hs),
        ):
            evaluations[0] = 0
            call()
            assert evaluations[0] == 1


class TestCosetBudget:
    def test_intersection_points_refuse_too_many_cosets(self):
        # |det omega21| = 2^23 intersection points per label pair
        h1, h2 = hilbert(L_E1, 2), hilbert(Lagrangian.make(SP1, [[1, 2**23]]), 2)
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            intersection_points(h1, h2, (0,), (0,))
        assert time.perf_counter() - start < 1.0

    def test_the_quantize_budget_binds_intersection_points(self, monkeypatch):
        h1, h2 = hilbert(L_E1, 2), hilbert(L_SLANT, 2)
        assert len(intersection_points(h1, h2, (1,), (0,))) == 2
        monkeypatch.setattr(quantize, "MAX_TABLE_TERMS", 1)
        with pytest.raises(TooLarge):
            intersection_points(h1, h2, (1,), (0,))


def reference_exact_backend_defect(inter):
    """The sign-and-modulus fold exact_backend_defect used before its phase
    list held both signs."""
    ex = inter.exact
    unit = np.array([cmath.exp(1j * math.pi * n / ex.den) for n in range(ex.den)])
    sign = np.where(ex.nums < ex.den, 1, -1)
    sums = (sign * unit[ex.nums % ex.den]).sum(axis=-1) / math.sqrt(ex.amp2)
    return float(np.abs(np.where(ex.live, sums, 0) - inter.matrix).max())


class TestExactBackendDefect:
    def test_same_float_as_the_sign_fold(self):
        from torusquant.representations import mp_operator
        from torusquant.verify import random_mp_word

        rng = random.Random(12)
        for g, k in ((1, 4), (1, 6), (2, 2), (2, 4)):
            space = SymplecticSpace.standard(g)
            for _ in range(4):
                l1, l2 = random_pair(rng, space)
                f = bks_matrix(hilbert(l1, k), hilbert(l2, k))
                u = mp_operator(random_mp_word(rng, f.source.pol.basis, 3), f.source)
                for inter in (f, u):
                    assert exact_backend_defect(inter) == reference_exact_backend_defect(inter)
                    # a wrong numerator and a wrong float give a nonzero gap
                    inter.exact.nums[0, 0, 0] = (inter.exact.nums[0, 0, 0] + 1) % (2 * inter.exact.den)
                    inter.matrix[-1, -1] += 1e-3
                    gap = exact_backend_defect(inter)
                    assert gap > 1e-4 and gap == reference_exact_backend_defect(inter)
