import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.errors import BaseMismatch, NotTransverse, NotUnimodular, NotSymmetric
from torusquant.exact import freeze, mat_mul, signature, transpose, zeros
from torusquant.lattice import Lagrangian, SymplecticSpace, adapted_basis
from torusquant.maslov import (
    LagrangianLift,
    MpElement,
    SpElement,
    maslov_index,
    mp_act,
    mp_generator,
    mp_inv,
    mp_mul,
    triple_index,
    triple_index_transverse,
)
from torusquant.verify import random_lagrangian, random_lift, random_pair, random_sp

SP1 = SymplecticSpace.standard(1)
SP2 = SymplecticSpace.standard(2)

L_E1 = Lagrangian.make(SP1, [[1, 0]])
L_DIAG = Lagrangian.make(SP1, [[1, 1]])
L_E2 = Lagrangian.make(SP1, [[0, 1]])


class TestTripleIndex:
    def test_repeated_argument_vanishes(self):
        assert triple_index(L_E1, L_E1, L_E2) == 0
        assert triple_index(L_E1, L_E2, L_E2) == 0

    def test_basic_value(self):
        assert triple_index(L_E1, L_DIAG, L_E2) == 1

    def test_odd_permutation_flips_sign(self):
        assert triple_index(L_E2, L_DIAG, L_E1) == -1

    def test_transverse_route_agrees(self):
        assert triple_index_transverse(L_E1, L_DIAG, L_E2) == 1
        assert triple_index_transverse(L_E1, L_E1, L_E2) == 0
        assert triple_index_transverse(L_E1, L_E2, L_E2) == 0

    def test_transverse_route_requires_transversality(self):
        with pytest.raises(NotTransverse):
            triple_index_transverse(L_E1, L_DIAG, L_E1)

    def test_sp_invariance(self):
        rng = random.Random(3)
        for _ in range(25):
            space = SP2 if rng.random() < 0.6 else SP1
            l1, _ = random_pair(rng, space)
            l2, l3 = random_pair(rng, space)
            b = random_sp(rng, adapted_basis(random_lagrangian(rng, space)))
            assert triple_index(
                b.apply_lagrangian(l1), b.apply_lagrangian(l2), b.apply_lagrangian(l3)
            ) == triple_index(l1, l2, l3)

    def test_cocycle_identity(self):
        rng = random.Random(4)
        for _ in range(25):
            space = SP2 if rng.random() < 0.6 else SP1
            ls = [random_lagrangian(rng, space) for _ in range(4)]
            assert (
                triple_index(ls[0], ls[1], ls[2])
                - triple_index(ls[0], ls[1], ls[3])
                + triple_index(ls[0], ls[2], ls[3])
                - triple_index(ls[1], ls[2], ls[3])
                == 0
            )


def reference_triple_index(l1, l2, l3):
    """triple_index as it filled the Gram matrix before one loop took the
    three pairing blocks: a pair of nested loops per block."""
    space = l1.space
    r1, r2, r3 = l1.rank, l2.rank, l3.rank
    om12 = space.block(l1.gens, l2.gens)
    om23 = space.block(l2.gens, l3.gens)
    om31 = space.block(l3.gens, l1.gens)
    n = r1 + r2 + r3
    s = zeros(n, n)
    for i in range(r1):
        for j in range(r2):
            s[i][r1 + j] = om12[i][j]
            s[r1 + j][i] = om12[i][j]
    for i in range(r2):
        for j in range(r3):
            s[r1 + i][r1 + r2 + j] = om23[i][j]
            s[r1 + r2 + j][r1 + i] = om23[i][j]
    for i in range(r3):
        for j in range(r1):
            s[r1 + r2 + i][j] = om31[i][j]
            s[j][r1 + r2 + i] = om31[i][j]
    return signature(s).index


class TestTripleIndexAgainstNestedFill:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_ranks_and_repeats(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            space = SP2 if rng.random() < 0.6 else SP1
            ls = [
                random_lagrangian(rng, space, rank=rng.randrange(space.g + 1))
                for _ in range(3)
            ]
            # repeat one Lagrangian in about a third of the triples
            if rng.random() < 0.35:
                i, j = rng.sample(range(3), 2)
                ls[j] = ls[i]
            assert triple_index(*ls) == reference_triple_index(*ls)

    @pytest.mark.parametrize(
        "ls",
        [
            # a rank-0 Lagrangian in each position
            (Lagrangian.make(SP1, []),) * 3,
            (Lagrangian.make(SP1, []), L_E1, L_E2),
            (L_E1, Lagrangian.make(SP1, []), L_DIAG),
            (L_DIAG, L_E2, Lagrangian.make(SP1, [])),
            (Lagrangian.make(SP2, []), Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]]),
             Lagrangian.make(SP2, [[0, 0, 1, 0], [0, 1, 0, 1]])),
            # a repeated Lagrangian
            (L_E1, L_E1, L_E1),
            (L_DIAG, L_E2, L_DIAG),
            (L_E2, L_E2, L_DIAG),
        ],
    )
    def test_rank_zero_and_repeats(self, ls):
        assert triple_index(*ls) == reference_triple_index(*ls) == 0


class TestMaslovIndex:
    def test_self_index_vanishes(self):
        lift = LagrangianLift(L_E1, L_DIAG, 1, 4)
        assert maslov_index(lift, lift, 4) == 0

    def test_antisymmetry(self):
        a = LagrangianLift(L_E1, L_DIAG, 1, 4)
        b = LagrangianLift(L_E1, L_E2, 3, 4)
        assert (maslov_index(a, b, 4) + maslov_index(b, a, 4)) % 8 == 0

    def test_formula_value(self):
        a = LagrangianLift(L_E1, L_DIAG, 1, 4)
        b = LagrangianLift(L_E1, L_E2, 1, 4)
        assert maslov_index(a, b, 4) == 1

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            LagrangianLift(L_E1, L_E1, 1, 4)  # needs even lambda

    def test_base_mismatch(self):
        a = LagrangianLift(L_E1, L_DIAG, 1, 4)
        b = LagrangianLift(L_E2, L_DIAG, 1, 4)
        with pytest.raises(BaseMismatch):
            maslov_index(a, b, 4)

    def test_deck_shift(self):
        a = LagrangianLift(L_E1, L_DIAG, 1, 4)
        b = LagrangianLift(L_E1, L_E2, 1, 4)
        assert maslov_index(a.shifted(1), b, 4) == (maslov_index(a, b, 4) + 2) % 8


class TestSpElement:
    def test_rejects_nonsymplectic(self):
        with pytest.raises(Exception):
            SpElement(SP1, ((1, 1), (1, 1)))

    def test_apply_preserves_pairing(self):
        rng = random.Random(9)
        basis = adapted_basis(L_E1)
        for _ in range(10):
            b = random_sp(rng, basis)
            x = tuple(rng.randint(-3, 3) for _ in range(2))
            y = tuple(rng.randint(-3, 3) for _ in range(2))
            assert SP1.omega(b.apply(x), b.apply(y)) == SP1.omega(x, y)

    def test_inverse(self):
        rng = random.Random(10)
        basis = adapted_basis(L_E1)
        b = random_sp(rng, basis)
        assert (b * b.inv()).mat == SpElement.identity(SP1).mat

    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.integers(-3, 3).filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_check_matches_dense_form_on_single_entry_changes(self, g, seed, delta):
        """SpElement tests omega(col_a, col_b) = gram[a][b] for a < b only; the
        dense mat^T . gram . mat = gram is the reference.  Some single-entry
        changes are symplectic (a shear of the identity is), so each change
        is checked against the reference rather than assumed rejected."""
        space = SymplecticSpace.standard(g)
        basis = adapted_basis(random_lagrangian(random.Random(seed), space))
        mat = random_sp(random.Random(seed), basis, 3).mat
        gram = [list(r) for r in space.gram]
        rejected = 0
        for i in range(2 * g):
            for j in range(2 * g):
                m = [list(r) for r in mat]
                m[i][j] += delta
                if mat_mul(mat_mul(transpose(m), gram), m) == gram:
                    assert SpElement(space, freeze(m)).mat == freeze(m)
                else:
                    rejected += 1
                    with pytest.raises(NotSymmetric):
                        SpElement(space, freeze(m))
        # m stays symplectic only if row i of gram . mat is a multiple of e_j,
        # so at most one change per row i is accepted
        assert rejected >= 2 * g * (2 * g - 1)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_random_sp_is_the_map_of_random_mp_word(self, g):
        from torusquant.verify import random_mp_word

        space = SymplecticSpace.standard(g)
        for seed in range(40):
            basis = adapted_basis(random_lagrangian(random.Random(seed), space))
            length = seed % 6
            rng, rng_mp = random.Random(seed), random.Random(seed)
            assert random_sp(rng, basis, length) == random_mp_word(rng_mp, basis, length).b
            assert rng.getstate() == rng_mp.getstate()


class TestMpGroup:
    def setup_method(self):
        self.basis1 = adapted_basis(L_E1)
        self.eps = mp_generator(self.basis1, "epsilon")
        self.gamma = mp_generator(self.basis1, "gamma")
        self.beta1 = mp_generator(self.basis1, "beta", b=[[1]])

    def test_identity_element(self):
        e = MpElement(L_E1, SpElement.identity(SP1), 0)
        assert mp_mul(self.gamma, e) == self.gamma
        assert mp_mul(e, self.gamma) == self.gamma

    def test_epsilon_squares_to_identity(self):
        ee = mp_mul(self.eps, self.eps)
        assert ee.z == 0 and ee.b.mat == SpElement.identity(SP1).mat

    def test_gamma_beta_cube_odd_genus(self):
        gb = mp_mul(self.gamma, self.beta1)
        cube = mp_mul(mp_mul(gb, gb), gb)
        assert cube.b.mat == SpElement.identity(SP1).mat
        assert cube.z == 4  # the deck element for odd g

    def test_gamma_beta_cube_even_genus(self):
        base2 = Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]])
        basis2 = adapted_basis(base2)
        gamma2 = mp_generator(basis2, "gamma")
        beta2 = mp_generator(basis2, "beta", b=[[1, 0], [0, 1]])
        gb = mp_mul(gamma2, beta2)
        cube = mp_mul(mp_mul(gb, gb), gb)
        assert cube.z == 0
        assert cube.b.mat == SpElement.identity(SP2).mat

    def test_gamma_fourth_power(self):
        g2 = mp_mul(self.gamma, self.gamma)
        g4 = mp_mul(g2, g2)
        assert g4.b.mat == SpElement.identity(SP1).mat
        assert g4.z == 4

    def test_pinned_s_lift(self):
        # the lift (S, 5) = gamma * epsilon satisfies the modular relations
        s_tilde = mp_mul(self.gamma, self.eps)
        assert s_tilde.z == 5
        t_tilde = self.beta1
        st = mp_mul(s_tilde, t_tilde)
        st3 = mp_mul(mp_mul(st, st), st)
        assert st3.z == 0 and st3.b.mat == SpElement.identity(SP1).mat
        s2 = mp_mul(s_tilde, s_tilde)
        s4 = mp_mul(s2, s2)
        assert s4.z == 4 and s4.b.mat == SpElement.identity(SP1).mat

    def test_generator_kinds(self):
        alpha = mp_generator(self.basis1, "alpha", a=[[1]])
        assert alpha.z == 0 and alpha.b.mat == SpElement.identity(SP1).mat
        assert mp_generator(self.basis1, "alpha", a=[[-1]]).z == 2
        assert self.gamma.z == 1  # g mod 8
        with pytest.raises(NotUnimodular):
            mp_generator(self.basis1, "alpha", a=[[2]])
        base2 = adapted_basis(Lagrangian.make(SP2, [[1, 0, 0, 0], [0, 1, 0, 0]]))
        with pytest.raises(NotSymmetric):
            mp_generator(base2, "beta", b=[[1, 2], [3, 1]])

    def test_associativity_random(self):
        rng = random.Random(6)
        for space in (SP1, SP2):
            basis = adapted_basis(random_lagrangian(rng, space))
            for _ in range(10):
                x = mp_mul(mp_generator(basis, "gamma"), mp_generator(basis, "epsilon"))
                y = mp_generator(basis, "beta", b=[[rng.randint(-2, 2)] * space.g] * space.g) if space.g == 1 else mp_generator(basis, "gamma")
                z = mp_generator(basis, "gamma")
                assert mp_mul(mp_mul(x, y), z) == mp_mul(x, mp_mul(y, z))

    def test_inverse(self):
        rng = random.Random(7)
        basis = adapted_basis(L_E1)
        for _ in range(10):
            x = mp_mul(mp_generator(basis, "gamma"), mp_generator(basis, "beta", b=[[rng.randint(-2, 2)]]))
            left = mp_mul(mp_inv(x), x)
            assert left.z == 0 and left.b.mat == SpElement.identity(SP1).mat

    def test_z_parity_enforced(self):
        with pytest.raises(ValueError):
            MpElement(L_E1, SpElement.identity(SP1), 1)


class TestMpAction:
    def setup_method(self):
        self.basis1 = adapted_basis(L_E1)
        self.eps = mp_generator(self.basis1, "epsilon")
        self.gamma = mp_generator(self.basis1, "gamma")

    def test_identity_acts_trivially(self):
        e = MpElement(L_E1, SpElement.identity(SP1), 0)
        lift = LagrangianLift(L_E1, L_DIAG, 1, 4)
        assert mp_act(e, lift) == lift

    def test_epsilon_shifts_by_four(self):
        lift = LagrangianLift(L_E1, L_DIAG, 1, 4)
        moved = mp_act(self.eps, lift)
        assert moved.lag == lift.lag
        assert moved.lam == (lift.lam + 4) % 8

    def test_action_is_compatible_with_multiplication(self):
        rng = random.Random(8)
        for _ in range(20):
            space = SP1 if rng.random() < 0.5 else SP2
            base = random_lagrangian(rng, space)
            basis = adapted_basis(base)
            x = random_sp_word(rng, basis)
            y = random_sp_word(rng, basis)
            lift = random_lift(rng, base, random_lagrangian(rng, space))
            assert mp_act(mp_mul(x, y), lift) == mp_act(x, mp_act(y, lift))


def random_sp_word(rng, basis):
    from torusquant.verify import random_mp_word

    return random_mp_word(rng, basis, rng.randrange(1, 4))
