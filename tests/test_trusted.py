"""The images the lattice layer builds unchecked equal their checked
construction: re-running the public constructor on each gives an equal
object, so every validation it skips would have passed."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.errors import DimensionMismatch
from torusquant.exact import hnf_rows

from torusquant.lattice import (
    AdaptedBasis,
    Lagrangian,
    SymplecticSpace,
    adapted_basis,
    intersect,
    pair_adapted_bases,
)
from torusquant.maslov import MpElement, SpElement, _generator, mp_generator, mp_mul
from torusquant.quantize import HilbertSpace, Polarization
from torusquant.representations import _moved
from torusquant.verify import (
    _random_generators,
    random_lagrangian,
    random_mp_word,
    random_pair,
    random_sp,
)

CASES = settings(max_examples=100, deadline=None)
DRAWS = (st.sampled_from((1, 2, 3)), st.integers(0, 2**32))


def checked_lagrangian(lag: Lagrangian) -> Lagrangian:
    return Lagrangian.make(lag.space, lag.gens)


def checked_frame(basis: AdaptedBasis) -> AdaptedBasis:
    return AdaptedBasis(basis.space, basis.w, basis.wperp)


def checked_map(b: SpElement) -> SpElement:
    return SpElement(b.space, b.mat)


def checked_polarization(pol: Polarization) -> Polarization:
    return Polarization(pol.lag, pol.basis)


@CASES
@given(*DRAWS)
def test_lagrangian_images_and_spans(g, seed):
    rng = random.Random(seed)
    space = SymplecticSpace.standard(g)
    lag = random_lagrangian(rng, space)
    basis = adapted_basis(lag)
    b = random_sp(rng, basis, rng.randrange(1, 5))
    part = random_lagrangian(rng, space, rank=rng.randrange(g + 1))
    for img in (b.apply_lagrangian(lag), b.apply_lagrangian(part)):
        assert checked_lagrangian(img) == img
    # the image is the Lagrangian the image rows span
    assert b.apply_lagrangian(part) == Lagrangian.make(space, [b.apply(r) for r in part.gens])
    assert checked_lagrangian(basis.span()) == basis.span() == lag


@CASES
@given(*DRAWS)
def test_frame_images(g, seed):
    rng = random.Random(seed)
    basis = adapted_basis(random_lagrangian(rng, SymplecticSpace.standard(g)))
    b = random_sp(rng, basis, rng.randrange(1, 5))
    moved = b.apply_basis(basis)
    assert checked_frame(moved) == moved
    assert checked_lagrangian(moved.span()) == moved.span()


@CASES
@given(*DRAWS)
def test_generators_and_products(g, seed):
    rng = random.Random(seed)
    basis = adapted_basis(random_lagrangian(rng, SymplecticSpace.standard(g)))
    for args in _random_generators(rng, basis, 4):
        gen = _generator(basis, *args)[0]
        assert checked_map(gen) == gen
    b, c = (random_sp(rng, basis, rng.randrange(1, 5)) for _ in range(2))
    assert checked_map(b * c) == b * c


@CASES
@given(*DRAWS)
def test_intersections_and_pair_adapted_bases(g, seed):
    rng = random.Random(seed)
    space = SymplecticSpace.standard(g)
    l1, l2 = random_pair(rng, space)
    part = random_lagrangian(rng, space, rank=rng.randrange(g + 1))
    for a, b in ((l1, l2), (l2, l1), (l1, part), (part, l2)):
        meet = intersect(a, b)
        assert checked_lagrangian(meet) == meet
    for frame, lag in zip(pair_adapted_bases(l1, l2), (l1, l2)):
        assert checked_frame(frame) == frame
        assert frame.span() == lag


@CASES
@given(*DRAWS)
def test_mp_products_have_the_checked_parity(g, seed):
    rng = random.Random(seed)
    basis = adapted_basis(random_lagrangian(rng, SymplecticSpace.standard(g)))
    x, y = (random_mp_word(rng, basis, rng.randrange(1, 5)) for _ in range(2))
    for prod in (mp_mul(x, y), mp_mul(y, x), mp_mul(x, x)):
        assert MpElement(prod.base, prod.b, prod.z) == prod


@CASES
@given(*DRAWS)
def test_seeded_draws(g, seed):
    rng = random.Random(seed)
    space = SymplecticSpace.standard(g)
    for rank in range(g + 1):
        lag = random_lagrangian(rng, space, rank=rank)
        assert checked_lagrangian(lag) == lag and lag.rank == rank
    # a draw through given rows is checked whole, and contains them
    full = random_lagrangian(rng, space)
    part = random_lagrangian(rng, space, rank=rng.randrange(1, g + 1), contains=full.gens[:1])
    assert checked_lagrangian(part) == part
    assert hnf_rows(part.gens + full.gens[:1]) == part.gens


@CASES
@given(*DRAWS)
def test_generator_elements_have_the_checked_parity(g, seed):
    rng = random.Random(seed)
    basis = adapted_basis(random_lagrangian(rng, SymplecticSpace.standard(g)))
    for args in _random_generators(rng, basis, 4) + [("gamma", None, None)]:
        x = mp_generator(basis, *args)
        assert MpElement(x.base, x.b, x.z) == x


@CASES
@given(*DRAWS)
def test_canonical_and_moved_frames(g, seed):
    rng = random.Random(seed)
    space = SymplecticSpace.standard(g)
    pol = Polarization.canonical(random_lagrangian(rng, space))
    assert checked_polarization(pol) == pol
    b = random_sp(rng, pol.basis, rng.randrange(1, 5))
    moved = _moved(b, HilbertSpace(2, pol)).pol
    assert checked_polarization(moved) == moved
    assert moved.lag == b.apply_lagrangian(pol.lag)
    # the canonical frame still refuses a Lagrangian of rank below g
    with pytest.raises(DimensionMismatch):
        Polarization.canonical(random_lagrangian(rng, space, rank=rng.randrange(g)))
