import cmath
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.errors import BaseMismatch, FrameMismatch, OddModulus, TooLarge
from torusquant.exact import UnitPhase
from torusquant.lattice import Lagrangian, SymplecticSpace, adapted_basis
from torusquant.maslov import SpElement, mp_generator, mp_mul, triple_index
from torusquant.quantize import HilbertSpace, Polarization, bks_matrix, unitarity_defect
from torusquant.representations import (
    HeisenbergElement,
    heisenberg_identity,
    heisenberg_in_frame,
    heisenberg_matrix,
    heisenberg_mul,
    mp_operator,
    sp_operator,
    sp_pushforward,
)
from torusquant.verify import (
    exact_backend_defect,
    random_lagrangian,
    random_mp_word,
    random_pair,
    random_sp,
)

SP1 = SymplecticSpace.standard(1)
SP2 = SymplecticSpace.standard(2)
L_E1 = Lagrangian.make(SP1, [[1, 0]])
POL1 = Polarization.canonical(L_E1)


def random_heis(rng, k, pol):
    n = tuple(rng.randrange(k) for _ in range(pol.space.dim))
    return HeisenbergElement(k, UnitPhase.of(Fraction(rng.randrange(8), 4)), n, pol)


def generator_product(x, space):
    """Reference Heisenberg action: the ordered product of dense generator
    matrices, transverse components first, then leaf components, times the
    central phase that re-balances x against the element the same product
    rebuilds through heisenberg_mul."""
    k, g, dim = x.k, space.g, space.dim
    acc = np.eye(dim, dtype=complex)
    rebuilt = heisenberg_identity(k, x.frame)
    factors = [(g + i, x.n[g + i]) for i in range(g)] + [(i, x.n[i]) for i in range(g)]
    for pos, count in factors:
        gen = np.zeros((dim, dim), dtype=complex)
        for idx, q in enumerate(space.labels):
            if pos < g:
                gen[idx, idx] = UnitPhase.of(Fraction(2 * q[pos], k)).value()
            else:
                shifted = list(q)
                shifted[pos - g] += 1
                gen[space.label_index(shifted), idx] = 1.0
        unit = [0] * 2 * g
        unit[pos] = 1
        gen_elem = HeisenbergElement.of(k, unit, x.frame)
        for _ in range(count):
            acc = acc @ gen
            rebuilt = heisenberg_mul(rebuilt, gen_elem)
    return (x.phase * rebuilt.phase.conj()).value() * acc


def dense_heisenberg(x, space):
    """Reference Heisenberg operator: the closed-form monomial filled into a
    dense matrix entry by entry, each phase evaluated as a UnitPhase."""
    k, g = x.k, space.g
    a, b = x.n[:g], x.n[g:]
    ab = sum(ai * bi for ai, bi in zip(a, b))
    matrix = np.zeros((space.dim, space.dim), dtype=complex)
    for row, p in enumerate(space.labels):
        col = space.label_index([pi - bi for pi, bi in zip(p, b)])
        ap = sum(ai * pi for ai, pi in zip(a, p))
        matrix[row, col] = (x.phase * UnitPhase.of(Fraction(2 * ap - ab, k))).value()
    return matrix


def dense_sp(b, space):
    """Reference U(b): the dense product of the pairing and the pushforward."""
    push = sp_pushforward(b, space)
    return bks_matrix(push.target, space).matrix @ push.matrix


def dense_mp(x, space):
    """Reference U(b, z): the central phase applied as one float scalar."""
    return UnitPhase.of(Fraction(x.z, 4)).value() * dense_sp(x.b, space)


def assert_matches_dense(op, reference):
    assert op.exact.live.shape == reference.shape
    assert np.abs(op.matrix - reference).max() < 1e-12
    assert exact_backend_defect(op) <= 1e-12


class TestAgainstDenseRoutes:
    @pytest.mark.parametrize("g,k", [(1, 2), (1, 4), (2, 2), (2, 4), (2, 8), (1, 64)])
    def test_seeded(self, g, k):
        rng = random.Random(1000 * g + k)
        space = SymplecticSpace.standard(g)
        for _ in range(3):
            pol = Polarization.canonical(random_lagrangian(rng, space))
            hs = HilbertSpace(k, pol)
            for _ in range(4):
                x = random_heis(rng, k, pol)
                assert_matches_dense(heisenberg_matrix(x, hs), dense_heisenberg(x, hs))
            b = random_sp(rng, pol.basis, rng.randrange(1, 5))
            assert_matches_dense(sp_operator(b, hs), dense_sp(b, hs))
            w = random_mp_word(rng, pol.basis, rng.randrange(1, 5))
            assert_matches_dense(mp_operator(w, hs), dense_mp(w, hs))

    @given(st.integers(0, 2**32), st.sampled_from((2, 4, 6, 8)))
    @settings(max_examples=40, deadline=None)
    def test_g1(self, seed, k):
        rng = random.Random(seed)
        pol = Polarization.canonical(random_lagrangian(rng, SP1))
        hs = HilbertSpace(k, pol)
        x = random_heis(rng, k, pol)
        assert_matches_dense(heisenberg_matrix(x, hs), dense_heisenberg(x, hs))
        w = random_mp_word(rng, pol.basis, rng.randrange(1, 6))
        assert_matches_dense(sp_operator(w.b, hs), dense_sp(w.b, hs))
        assert_matches_dense(mp_operator(w, hs), dense_mp(w, hs))


class TestHeisenbergGroup:
    def test_central_elements_multiply_phases(self):
        k = 2
        x = HeisenbergElement(k, UnitPhase.of(Fraction(1, 3)), (0, 0), POL1)
        y = HeisenbergElement(k, UnitPhase.of(Fraction(1, 5)), (0, 0), POL1)
        z = heisenberg_mul(x, y)
        assert z.n == (0, 0)
        assert z.phase.t == Fraction(1, 3) + Fraction(1, 5)

    def test_commutator_phase(self):
        # leaf and transverse generators commute up to e^{2 pi i / k}
        for k in (2, 4):
            w = HeisenbergElement.of(k, (1, 0), POL1)
            wp = HeisenbergElement.of(k, (0, 1), POL1)
            fwd = heisenberg_mul(w, wp)
            rev = heisenberg_mul(wp, w)
            ratio = fwd.phase * rev.phase.conj()
            assert ratio.t == Fraction(2, k) % 2

    def test_associativity(self):
        rng = random.Random(1)
        for _ in range(40):
            space = SP1 if rng.random() < 0.5 else SP2
            k = rng.choice((2, 4))
            pol = Polarization.canonical(random_lagrangian(rng, space))
            xs = [random_heis(rng, k, pol) for _ in range(3)]
            assert heisenberg_mul(heisenberg_mul(xs[0], xs[1]), xs[2]) == heisenberg_mul(
                xs[0], heisenberg_mul(xs[1], xs[2])
            )

    def test_identity(self):
        k = 4
        e = heisenberg_identity(k, POL1)
        x = HeisenbergElement.of(k, (3, 1), POL1)
        assert heisenberg_mul(e, x) == x
        assert heisenberg_mul(x, e) == x

    @pytest.mark.parametrize("k", [0, -2])
    def test_level_must_be_positive_even(self, k):
        with pytest.raises(OddModulus, match="positive even integer"):
            HeisenbergElement.of(k, (1, 0), POL1)

    def test_frame_mismatch(self):
        x = HeisenbergElement.of(2, (1, 0), POL1)
        y = HeisenbergElement.of(2, (1, 0), Polarization.canonical(Lagrangian.make(SP1, [[0, 1]])))
        with pytest.raises(FrameMismatch):
            heisenberg_mul(x, y)


class TestHeisenbergAction:
    @pytest.mark.parametrize("g,k", [(1, 2), (1, 4), (2, 2)])
    def test_closed_form_matches_generator_product_everywhere(self, g, k):
        space = SymplecticSpace.standard(g)
        pol = Polarization.canonical(Lagrangian.make(space, [[int(j == i) for j in range(2 * g)] for i in range(g)]))
        hs = HilbertSpace(k, pol)
        for n in product(range(k), repeat=2 * g):
            for j in range(8):
                x = HeisenbergElement(k, UnitPhase.of(Fraction(j, 4)), n, pol)
                err = np.abs(heisenberg_matrix(x, hs).matrix - generator_product(x, hs)).max()
                assert err < 1e-12, (n, j)

    @pytest.mark.parametrize("g,k", [(2, 4), (1, 64)])
    def test_closed_form_matches_generator_product_seeded(self, g, k):
        rng = random.Random(10 * g + k)
        pol = Polarization.canonical(random_lagrangian(rng, SymplecticSpace.standard(g)))
        hs = HilbertSpace(k, pol)
        for _ in range(50):
            x = random_heis(rng, k, pol)
            err = np.abs(heisenberg_matrix(x, hs).matrix - generator_product(x, hs)).max()
            assert err < 1e-12, x.n

    def test_central_scalar(self):
        k = 2
        lam = UnitPhase.of(Fraction(2, 7))
        h = HeisenbergElement(k, lam, (0, 0), POL1)
        m = heisenberg_matrix(h, HilbertSpace(k, POL1)).matrix
        assert np.abs(m - lam.value() * np.eye(k)).max() < 1e-15

    def test_leaf_generator_diagonal(self):
        k = 2
        h = HeisenbergElement.of(k, (1, 0), POL1)
        m = heisenberg_matrix(h, HilbertSpace(k, POL1)).matrix
        assert np.abs(m - np.diag([1, cmath.exp(1j * math.pi)])).max() < 1e-15

    def test_transverse_generator_shifts(self):
        k = 4
        h = HeisenbergElement.of(k, (0, 1), POL1)
        m = heisenberg_matrix(h, HilbertSpace(k, POL1)).matrix
        expect = np.zeros((k, k))
        for q in range(k):
            expect[(q + 1) % k, q] = 1
        assert np.abs(m - expect).max() < 1e-15

    def test_multiplicative(self):
        rng = random.Random(2)
        for _ in range(25):
            space = SP1 if rng.random() < 0.5 else SP2
            k = rng.choice((2, 4))
            pol = Polarization.canonical(random_lagrangian(rng, space))
            hs = HilbertSpace(k, pol)
            x, y = random_heis(rng, k, pol), random_heis(rng, k, pol)
            lhs = heisenberg_matrix(x, hs).matrix @ heisenberg_matrix(y, hs).matrix
            rhs = heisenberg_matrix(heisenberg_mul(x, y), hs).matrix
            assert np.abs(lhs - rhs).max() < 1e-9
            assert unitarity_defect(heisenberg_matrix(x, hs).matrix) < 1e-9

    def test_pairing_intertwines(self):
        rng = random.Random(3)
        for _ in range(20):
            space = SP1 if rng.random() < 0.5 else SP2
            k = rng.choice((2, 4))
            l1, l2 = random_pair(rng, space)
            p1, p2 = Polarization.canonical(l1), Polarization.canonical(l2)
            hs1, hs2 = HilbertSpace(k, p1), HilbertSpace(k, p2)
            f = bks_matrix(hs1, hs2)
            h = random_heis(rng, k, p1)
            moved = heisenberg_in_frame(h, p2)
            lhs = f.matrix @ heisenberg_matrix(h, hs1).matrix
            rhs = heisenberg_matrix(moved, hs2).matrix @ f.matrix
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_frame_translation_round_trip(self):
        rng = random.Random(4)
        for _ in range(20):
            k = rng.choice((2, 4))
            l1, l2 = random_pair(rng, SP2)
            p1, p2 = Polarization.canonical(l1), Polarization.canonical(l2)
            h = random_heis(rng, k, p1)
            back = heisenberg_in_frame(heisenberg_in_frame(h, p2), p1)
            assert back == h


class TestSpOperators:
    def test_pushforward_of_identity(self):
        b = SpElement.identity(SP1)
        hs = HilbertSpace(2, POL1)
        push = sp_pushforward(b, hs)
        assert np.abs(push.matrix - np.eye(2)).max() == 0

    def test_label_permutation_generator(self):
        for k in (2, 4):
            hs = HilbertSpace(k, POL1)
            alpha = mp_generator(POL1.basis, "alpha", a=[[-1]])
            u = sp_operator(alpha.b, hs).matrix
            expect = np.zeros((k, k))
            for q in range(k):
                expect[(-q) % k, q] = 1
            assert np.abs(u - expect).max() < 1e-12

    def test_diagonal_generator(self):
        for k in (2, 4):
            hs = HilbertSpace(k, POL1)
            beta = mp_generator(POL1.basis, "beta", b=[[1]])
            u = sp_operator(beta.b, hs).matrix
            expect = np.diag([cmath.exp(1j * math.pi * q * q / k) for q in range(k)])
            assert np.abs(u - expect).max() < 1e-12

    def test_fourier_generator(self):
        for k in (2, 4):
            hs = HilbertSpace(k, POL1)
            gamma = mp_generator(POL1.basis, "gamma")
            u = sp_operator(gamma.b, hs).matrix
            expect = np.array(
                [
                    [cmath.exp(2j * math.pi * q * q1 / k) for q1 in range(k)]
                    for q in range(k)
                ]
            ) / math.sqrt(k)
            assert np.abs(u - expect).max() < 1e-12

    def test_genus_two_generators(self):
        lag = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        pol = Polarization.canonical(lag)
        hs = HilbertSpace(2, pol)
        k = 2
        beta = mp_generator(pol.basis, "beta", b=[[1, 1], [1, 0]])
        u = sp_operator(beta.b, hs).matrix
        for i, q in enumerate(hs.labels):
            val = cmath.exp(1j * math.pi * (q[0] * q[0] + 2 * q[0] * q[1]) / k)
            assert abs(u[i, i] - val) < 1e-12
        gamma = mp_generator(pol.basis, "gamma")
        u = sp_operator(gamma.b, hs).matrix
        for i, q in enumerate(hs.labels):
            for j, q1 in enumerate(hs.labels):
                val = cmath.exp(2j * math.pi * (q[0] * q1[0] + q[1] * q1[1]) / k) / k
                assert abs(u[i, j] - val) < 1e-12

    def test_projective_cocycle(self):
        rng = random.Random(5)
        for _ in range(15):
            space = SP1 if rng.random() < 0.5 else SP2
            k = rng.choice((2, 4))
            lag = random_lagrangian(rng, space)
            pol = Polarization.canonical(lag)
            hs = HilbertSpace(k, pol)
            b1 = random_mp_word(rng, pol.basis, rng.randrange(1, 4)).b
            b2 = random_mp_word(rng, pol.basis, rng.randrange(1, 4)).b
            tau = triple_index(
                lag, b1.apply_lagrangian(lag), (b1 * b2).apply_lagrangian(lag)
            )
            lhs = sp_operator(b1, hs).matrix @ sp_operator(b2, hs).matrix
            rhs = cmath.exp(1j * math.pi * tau / 4) * sp_operator(b1 * b2, hs).matrix
            assert np.abs(lhs - rhs).max() < 1e-9


class TestMpOperators:
    def test_epsilon_is_minus_identity(self):
        for k in (2, 4):
            hs = HilbertSpace(k, POL1)
            eps = mp_generator(POL1.basis, "epsilon")
            assert np.abs(mp_operator(eps, hs).matrix + np.eye(k)).max() < 1e-14

    def test_pinned_modular_generators(self):
        for k in (2, 4):
            hs = HilbertSpace(k, POL1)
            gamma = mp_generator(POL1.basis, "gamma")
            eps = mp_generator(POL1.basis, "epsilon")
            s_tilde = mp_mul(gamma, eps)
            t_tilde = mp_generator(POL1.basis, "beta", b=[[1]])
            us = mp_operator(s_tilde, hs).matrix
            ut = mp_operator(t_tilde, hs).matrix
            pinned = np.array(
                [
                    [
                        cmath.exp(5j * math.pi / 4) * cmath.exp(2j * math.pi * q * q1 / k)
                        for q1 in range(k)
                    ]
                    for q in range(k)
                ]
            ) / math.sqrt(k)
            assert np.abs(us - pinned).max() < 1e-12
            assert np.abs(ut - np.diag([cmath.exp(1j * math.pi * q * q / k) for q in range(k)])).max() < 1e-12
            assert np.abs(np.linalg.matrix_power(us @ ut, 3) - np.eye(k)).max() < 1e-9
            assert np.abs(np.linalg.matrix_power(us, 4) + np.eye(k)).max() < 1e-9

    def test_representation_is_multiplicative(self):
        rng = random.Random(6)
        for _ in range(15):
            space = SP1 if rng.random() < 0.5 else SP2
            k = rng.choice((2, 4))
            lag = random_lagrangian(rng, space)
            pol = Polarization.canonical(lag)
            hs = HilbertSpace(k, pol)
            x = random_mp_word(rng, pol.basis, rng.randrange(1, 5))
            y = random_mp_word(rng, pol.basis, rng.randrange(1, 5))
            lhs = mp_operator(x, hs).matrix @ mp_operator(y, hs).matrix
            rhs = mp_operator(mp_mul(x, y), hs).matrix
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_base_mismatch(self):
        hs = HilbertSpace(2, POL1)
        other = adapted_basis(Lagrangian.make(SP1, [[0, 1]]))
        elem = mp_generator(other, "gamma")
        with pytest.raises(BaseMismatch):
            mp_operator(elem, hs)


class TestTableBudget:
    def test_operators_check_the_budget(self, monkeypatch):
        # a 4 x 4 operator is a table of 16 phase terms
        monkeypatch.setattr("torusquant.quantize.MAX_TABLE_TERMS", 15)
        hs = HilbertSpace(4, POL1)
        gamma = mp_generator(POL1.basis, "gamma")
        with pytest.raises(TooLarge):
            heisenberg_matrix(HeisenbergElement.of(4, (1, 1), POL1), hs)
        with pytest.raises(TooLarge):
            sp_pushforward(gamma.b, hs)
        with pytest.raises(TooLarge):
            mp_operator(gamma, hs)

    def test_phase_denominators_are_bounded(self):
        # the denominator 2^23 would tabulate 2^24 unit phases in value()
        phase = UnitPhase.of(Fraction(1, 2**23))
        hs = HilbertSpace(2, POL1)
        one = heisenberg_matrix(HeisenbergElement.of(2, (0, 0), POL1), hs)
        for build in (
            lambda: heisenberg_matrix(HeisenbergElement.of(2, (1, 1), POL1, phase), hs),
            lambda: one.scaled(phase),
        ):
            start = time.perf_counter()
            with pytest.raises(TooLarge):
                build()
            assert time.perf_counter() - start < 1.0


class TestCommutant:
    def test_only_scalars_commute_with_the_action(self):
        for k in (2, 4):
            hs = HilbertSpace(k, POL1)
            gens = [
                heisenberg_matrix(HeisenbergElement.of(k, unit, POL1), hs).matrix
                for unit in ((1, 0), (0, 1))
            ]
            dim = hs.dim
            rows = [
                np.kron(np.eye(dim), g) - np.kron(g.T, np.eye(dim)) for g in gens
            ]
            svals = np.linalg.svd(np.vstack(rows), compute_uv=False)
            assert int((svals < 1e-9).sum()) == 1
