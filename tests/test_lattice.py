import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusquant.errors import (
    DimensionMismatch,
    NotIsotropic,
    NotPrimitive,
    NotUnimodular,
    SpaceMismatch,
    TorusQuantError,
)
from torusquant.exact import (
    det,
    frac_inv,
    freeze,
    hnf_rows,
    identity,
    mat_mul,
    quad_form,
    transpose,
)
from torusquant.lattice import (
    MAX_G,
    AdaptedBasis,
    Lagrangian,
    SymplecticSpace,
    adapted_basis,
    intersect,
    pair_adapted_bases,
)
from torusquant.maslov import SpElement
from torusquant.verify import random_lagrangian, random_pair, random_unimodular

SP1 = SymplecticSpace.standard(1)
SP2 = SymplecticSpace.standard(2)


def lag(space, *rows):
    return Lagrangian.make(space, rows)


class TestOmega:
    def test_standard_pairing(self):
        assert SP1.omega((1, 0), (0, 1)) == 1

    def test_skew(self):
        rng = random.Random(0)
        for _ in range(20):
            x = tuple(rng.randint(-4, 4) for _ in range(4))
            assert SP2.omega(x, x) == 0

    def test_bilinear_value(self):
        assert SP1.omega((1, 2), (1, 0)) == -2

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            SP1.omega((1, 0, 0), (0, 1))

    def test_gram_must_be_self_dual(self):
        with pytest.raises(NotUnimodular):
            SymplecticSpace(1, ((0, 2), (-2, 0)))
        with pytest.raises(NotIsotropic):
            SymplecticSpace(1, ((1, 0), (0, 1)))


class TestSparsePairing:
    """omega sums the nonzero gram entries; the dense form x . gram . y^T is
    the reference."""

    @given(st.sampled_from((1, 2, 3)), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_omega_matches_dense_form(self, g, standard, data):
        n = 2 * g
        gram = SymplecticSpace.standard(g).gram
        if not standard:
            p = random_unimodular(random.Random(data.draw(st.integers(0, 2**32))), n)
            gram = freeze(mat_mul(mat_mul(p, gram), transpose(p)))
        space = SymplecticSpace(g, gram)
        entry = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))
        vec = st.lists(entry, min_size=n, max_size=n)
        x, y = data.draw(vec), data.draw(vec)
        assert space.omega(x, y) == quad_form(x, gram, y)
        assert space.block([x], [y]) == ((quad_form(x, gram, y),),)

    @given(st.sampled_from((1, 2, 3)), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_wrong_lengths_raise(self, g, a, b):
        assume(a != 2 * g or b != 2 * g)
        with pytest.raises(DimensionMismatch):
            SymplecticSpace.standard(g).omega((1,) * a, (1,) * b)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_standard_is_one_validated_instance_per_g(self, g):
        space = SymplecticSpace.standard(g)
        assert SymplecticSpace.standard(g) is space
        fresh = SymplecticSpace(g, space.gram)
        assert fresh == space and hash(fresh) == hash(space)
        assert len(space.terms) == 2 * g


class TestLagrangianMake:
    def test_integral_values_are_converted(self):
        made = Lagrangian.make(SP1, [[np.int64(1), Fraction(2, 1)]])
        assert made == Lagrangian(SP1, ((1, 2),))
        assert all(type(x) is int for x in made.gens[0])

    @pytest.mark.parametrize("row", [[Fraction(3, 2), 1], [2.7, 1], [1, "2"], [None, 1]])
    def test_non_integral_values_raise(self, row):
        with pytest.raises(NotPrimitive, match="integer lattice vectors"):
            Lagrangian.make(SP1, [row])


_SP_GAMMA = ((0, 1), (-1, 0))

# (constructor, bad input, error code): the validations of the public lattice
# constructors, pinned
BAD_CONSTRUCTIONS = [
    ("space: g < 1", lambda: SymplecticSpace(0, ()), "DimensionMismatch"),
    ("space: not 2g x 2g", lambda: SymplecticSpace(1, ((0, 1),)), "DimensionMismatch"),
    ("space: not skew", lambda: SymplecticSpace(1, ((1, 0), (0, 1))), "NotIsotropic"),
    ("space: det != 1", lambda: SymplecticSpace(1, ((0, 2), (-2, 0))), "NotUnimodular"),
    ("space: g above MAX_G", lambda: SymplecticSpace(MAX_G + 1, ()), "TooLarge"),
    (
        "space: not integer",
        lambda: SymplecticSpace(1, ((0, Fraction(1)), (Fraction(-1), 0))),
        "DimensionMismatch",
    ),
    ("lagrangian: wrong length", lambda: Lagrangian(SP1, ((1, 0, 0),)), "DimensionMismatch"),
    (
        "lagrangian: dependent",
        lambda: Lagrangian(SP2, ((1, 0, 0, 0), (2, 0, 0, 0))),
        "NotPrimitive",
    ),
    (
        "lagrangian: not isotropic",
        lambda: Lagrangian(SP2, ((1, 0, 0, 0), (0, 0, 1, 0))),
        "NotIsotropic",
    ),
    ("lagrangian: more than g rows", lambda: Lagrangian(SP1, ((1, 0), (0, 1))), "NotIsotropic"),
    ("lagrangian: not primitive", lambda: Lagrangian(SP1, ((2, 4),)), "NotPrimitive"),
    ("lagrangian: not integer", lambda: Lagrangian(SP1, ((Fraction(3, 2), 1),)), "NotPrimitive"),
    ("lagrangian: float", lambda: Lagrangian(SP1, ((2.7, 1),)), "NotPrimitive"),
    ("basis: row count", lambda: AdaptedBasis(SP1, (), ((0, 1),)), "DimensionMismatch"),
    (
        "basis: W not isotropic",
        lambda: AdaptedBasis(SP2, ((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 0, 0, 1), (0, 1, 0, 0))),
        "NotIsotropic",
    ),
    (
        "basis: Wperp not isotropic",
        lambda: AdaptedBasis(SP2, ((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (1, 0, 0, 0))),
        "NotIsotropic",
    ),
    ("basis: pairing not delta", lambda: AdaptedBasis(SP1, ((1, 0),), ((0, -1),)), "NotIsotropic"),
    ("sp: not 2g x 2g", lambda: SpElement(SP1, ((1, 0, 0),)), "DimensionMismatch"),
    (
        "sp: not integer",
        lambda: SpElement(SP1, ((Fraction(1, 2), 0), (0, 2))),
        "NotUnimodular",
    ),
    ("sp: not symplectic", lambda: SpElement(SP1, ((1, 1), (1, 1))), "NotSymmetric"),
    ("sp: scales the form", lambda: SpElement(SP1, ((2, 0), (0, 1))), "NotSymmetric"),
    ("sp: reverses the form", lambda: SpElement(SP1, ((0, 1), (1, 0))), "NotSymmetric"),
    (
        "sp: off the nonstandard form",
        lambda: SpElement(SymplecticSpace(1, _SP_GAMMA), ((1, 0), (0, -1))),
        "NotSymmetric",
    ),
]


@pytest.mark.parametrize(
    "build, code", [c[1:] for c in BAD_CONSTRUCTIONS], ids=[c[0] for c in BAD_CONSTRUCTIONS]
)
def test_constructor_error_codes(build, code):
    with pytest.raises(TorusQuantError) as err:
        build()
    assert err.value.code == code


class TestLagrangian:
    def test_canonical_form_equality(self):
        assert lag(SP1, (-1, -2)) == lag(SP1, (1, 2))
        assert lag(SP2, (0, 1, 0, 0), (1, 0, 0, 0)) == lag(SP2, (1, 0, 0, 0), (0, 1, 0, 0))

    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitive):
            lag(SP1, (2, 4))

    def test_rejects_dependent_rows(self):
        with pytest.raises(NotPrimitive):
            lag(SP2, (1, 0, 0, 0), (2, 0, 0, 0))

    def test_rejects_nonisotropic(self):
        with pytest.raises(NotIsotropic):
            lag(SP2, (1, 0, 0, 0), (0, 0, 1, 0))

    def test_rank_zero_allowed(self):
        assert lag(SP1).rank == 0


class TestAdaptedBasis:
    def test_standard_line(self):
        b = adapted_basis(lag(SP1, (1, 0)))
        assert b.w == ((1, 0),)
        assert b.wperp == ((0, 1),)

    def test_slanted_line(self):
        lg = lag(SP1, (1, 2))
        b = adapted_basis(lg)
        assert b.w[0] == (1, 2)
        assert SP1.omega(b.w[0], b.wperp[0]) == 1
        assert abs(det(b.stack)) == 1

    def test_empty_lagrangian_nonstandard_gram(self):
        space = SymplecticSpace(1, ((0, -1), (1, 0)))
        b = adapted_basis(Lagrangian.make(space, []))
        assert space.omega(b.w[0], b.wperp[0]) == 1

    def test_deterministic(self):
        lg = lag(SP2, (1, 0, 2, 0), (0, 1, 0, 5))
        assert adapted_basis(lg) == adapted_basis(lg)

    def test_invariants_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(40):
            space = SP1 if rng.random() < 0.4 else SP2
            rank = rng.randint(0, space.g)
            lg = random_lagrangian(rng, space, rank=rank)
            b = adapted_basis(lg)  # construction validates all invariants
            assert hnf_rows(b.w[: lg.rank]) == lg.gens

    def test_validation_rejects_bad_basis(self):
        with pytest.raises(NotIsotropic):
            AdaptedBasis(SP1, ((1, 0),), ((0, -1),))
        with pytest.raises(NotIsotropic):
            AdaptedBasis(SP2, ((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 0, 0, 1), (0, 1, 0, 0)))


class TestIntersect:
    def test_idempotent(self):
        l1 = lag(SP2, (1, 0, 0, 0), (0, 1, 0, 0))
        assert intersect(l1, l1) == l1

    def test_transverse_lines(self):
        assert intersect(lag(SP1, (1, 0)), lag(SP1, (0, 1))).rank == 0

    def test_shared_line(self):
        l1 = lag(SP2, (1, 0, 0, 0), (0, 1, 0, 0))
        l2 = lag(SP2, (1, 0, 0, 0), (0, 0, 0, 1))
        assert intersect(l1, l2) == lag(SP2, (1, 0, 0, 0))

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            intersect(lag(SP1, (1, 0)), lag(SP2, (1, 0, 0, 0)))


class TestPairAdapted:
    def test_equal_inputs_share_everything(self):
        l1 = lag(SP2, (1, 0, 0, 0), (0, 1, 0, 0))
        b1, b2 = pair_adapted_bases(l1, l1)
        assert b1 == b2

    def test_transverse_inputs_are_canonical(self):
        l1, l2 = lag(SP1, (1, 0)), lag(SP1, (0, 1))
        b1, b2 = pair_adapted_bases(l1, l2)
        assert b1 == adapted_basis(l1)
        assert b2 == adapted_basis(l2)

    def test_shared_pairs_in_trailing_positions(self):
        l1 = lag(SP2, (1, 0, 0, 0), (0, 1, 0, 0))
        l2 = lag(SP2, (1, 0, 0, 0), (0, 0, 0, 1))
        b1, b2 = pair_adapted_bases(l1, l2)
        h = SP2.g - intersect(l1, l2).rank
        assert b1.w[h:] == b2.w[h:]
        assert b1.wperp[h:] == b2.wperp[h:]
        assert hnf_rows(b1.w[h:]) == intersect(l1, l2).gens
        assert hnf_rows(b1.w) == l1.gens
        assert hnf_rows(b2.w) == l2.gens

    def test_random_pairs_block_structure(self):
        rng = random.Random(5)
        for _ in range(30):
            space = SP2 if rng.random() < 0.7 else SP1
            l1, l2 = random_pair(rng, space)
            b1, b2 = pair_adapted_bases(l1, l2)
            g = space.g
            s = intersect(l1, l2).rank
            h = g - s
            ww = space.block(b2.w, b1.w)
            # rank of the leading block matches the transversality defect
            for i in range(g):
                for j in range(g):
                    if i >= h or j >= h:
                        assert ww[i][j] == 0
            if h:
                red = [row[:h] for row in ww[:h]]
                assert det(red) != 0
            # omega(2perp,1) omega(2,1)^{-1} is symmetric for transverse pairs
            if s == 0:
                m = mat_mul(space.block(b2.wperp, b1.w), frac_inv(ww))
                assert m == transpose(m)

    def test_transposition_relations(self):
        rng = random.Random(2)
        for _ in range(10):
            l1, l2 = random_pair(rng, SP2)
            b1, b2 = adapted_basis(l1), adapted_basis(l2)
            neg_t = lambda m: tuple(
                tuple(-m[j][i] for j in range(len(m))) for i in range(len(m[0]))
            )
            for rows_a in (b2.w, b2.wperp):
                for rows_b in (b1.w, b1.wperp):
                    assert SP2.block(rows_a, rows_b) == neg_t(SP2.block(rows_b, rows_a))

    def test_identity_blocks(self):
        b = adapted_basis(lag(SP1, (1, 0)))
        assert SP1.block(b.w, b.w) == ((0,),)
        assert SP1.block(b.w, b.wperp) == ((1,),)

    def test_canonical_crossing_blocks(self):
        b1 = adapted_basis(lag(SP1, (1, 0)))
        b2 = adapted_basis(lag(SP1, (0, 1)))
        assert b2.w == ((0, 1),) and b2.wperp == ((-1, 0),)
        assert SP1.block(b2.w, b1.w) == ((-1,),)


class TestLatticeProperties:
    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_adapted_basis_is_symplectic_and_spans(self, g, seed, data):
        space = SymplecticSpace.standard(g)
        rank = data.draw(st.integers(0, g))
        lag_ = random_lagrangian(random.Random(seed), space, rank=rank)
        b = adapted_basis(lag_)
        gram = [list(r) for r in space.gram]
        assert mat_mul(mat_mul(b.stack, gram), transpose(b.stack)) == gram
        assert abs(det(b.stack)) == 1
        assert hnf_rows(b.w[:rank]) == lag_.gens

    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_adapted_bases_share_the_intersection(self, g, seed, data):
        space, l1, l2 = _pair_sharing(g, seed, data)
        b1, b2 = pair_adapted_bases(l1, l2)
        meet = intersect(l1, l2)
        h = g - meet.rank
        assert b1.w[h:] == b2.w[h:]
        assert b1.wperp[h:] == b2.wperp[h:]
        assert hnf_rows(b1.w[h:]) == meet.gens
        assert hnf_rows(b1.w) == l1.gens
        assert hnf_rows(b2.w) == l2.gens

    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_adapted_blocks_are_reduced(self, g, seed, data):
        # the nontransverse closed form reads R, P, S off these blocks unchecked
        space, l1, l2 = _pair_sharing(g, seed, data)
        b1, b2 = pair_adapted_bases(l1, l2)
        h = g - intersect(l1, l2).rank
        om21 = space.block(b2.w, b1.w)
        mixed = (space.block(b2.w, b1.wperp), space.block(b2.wperp, b1.w))
        for i in range(g):
            for j in range(g):
                if i >= h or j >= h:
                    assert om21[i][j] == 0
                if (i >= h) != (j >= h):
                    assert all(m[i][j] == 0 for m in mixed)
        assert det([row[:h] for row in om21[:h]]) != 0

    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_frames_of_one_lagrangian_differ_by_a_lagrangian_map(self, g, seed, data):
        # the frame change reads A^{-1} and A^{-1}B off pairings unchecked
        _, l1, l2 = _pair_sharing(g, seed, data)
        canonical, paired = adapted_basis(l1), pair_adapted_bases(l1, l2)[0]
        for b1, b2 in ((canonical, paired), (paired, canonical)):
            w_coords = [b1.coords(x) for x in b2.w]
            assert all(c[g:] == (0,) * g for c in w_coords)
            a = transpose([c[:g] for c in w_coords])
            perp_coords = [b1.coords(x) for x in b2.wperp]
            a_inv = [c[g:] for c in perp_coords]
            assert mat_mul(a_inv, a) == identity(g)
            s = mat_mul(a_inv, transpose([c[:g] for c in perp_coords]))
            assert s == transpose(s)

    @given(st.sampled_from((1, 2, 3)), st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_stack_inv_is_the_frame_coordinates_of_the_unit_vectors(self, g, seed, data):
        _, l1, l2 = _pair_sharing(g, seed, data)
        for b in (adapted_basis(l1), *pair_adapted_bases(l1, l2)):
            want = tuple(b.coords(e) for e in identity(2 * g))
            assert b.stack_inv == want
            assert mat_mul(b.stack_inv, b.stack) == identity(2 * g)
            assert b.stack_inv is b.stack_inv


def _pair_sharing(g, seed, data):
    """Two full Lagrangians of the standard space that share a drawn number
    of generators."""
    space = SymplecticSpace.standard(g)
    rng = random.Random(seed)
    l1 = random_lagrangian(rng, space)
    shared = data.draw(st.integers(0, g))
    return space, l1, random_lagrangian(rng, space, contains=l1.gens[:shared])
