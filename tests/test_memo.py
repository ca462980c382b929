"""The bounded memos of the lattice layer return what their uncached
derivation returns, for equal inputs that are not the same objects too and
after the cache is cleared; they hold no arrays and hit at desk scale."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant import lattice, quantize, verify
from torusquant.errors import NotTransverse, SpaceMismatch
from torusquant.lattice import Lagrangian, SymplecticSpace
from torusquant.quantize import Polarization
from torusquant.verify import random_lagrangian, random_pair

CASES = settings(max_examples=100, deadline=None)
DRAWS = (st.sampled_from((1, 2, 3)), st.integers(0, 2**32))
MEMOS = (
    lattice.intersect,
    Polarization.canonical,
    quantize._closed_form_setup,
)


def twin(lag: Lagrangian) -> Lagrangian:
    """An equal Lagrangian built afresh over a fresh, equal space."""
    space = SymplecticSpace(lag.space.g, [list(r) for r in lag.space.gram])
    return Lagrangian.make(space, [list(r) for r in lag.gens])


def arrays_in(obj, seen=None) -> int:
    """The ndarrays reachable from obj through containers and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(arrays_in(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(arrays_in(x, seen) for x in obj.values())
    return arrays_in(vars(obj), seen) if hasattr(obj, "__dict__") else 0


def test_twin_is_equal_but_not_identical():
    lag = random_lagrangian(random.Random(0), SymplecticSpace.standard(2))
    copy = twin(lag)
    assert copy == lag and hash(copy) == hash(lag)
    assert copy is not lag and copy.space is not lag.space and copy.gens is not lag.gens


def test_array_walk_finds_nested_arrays():
    frame = lattice.adapted_basis(random_lagrangian(random.Random(0), SymplecticSpace.standard(1)))
    assert arrays_in((frame, [1, {"a": (2,)}])) == 0
    assert arrays_in((frame, [1, {"a": (np.zeros(1),)}])) == 1


@CASES
@given(*DRAWS)
def test_memos_equal_their_derivation(g, seed):
    rng = random.Random(seed)
    space = SymplecticSpace.standard(g)
    l1, l2 = random_pair(rng, space)
    part = random_lagrangian(rng, space, rank=rng.randrange(g + 1))
    t1, t2 = twin(l1), twin(l2)
    frames = lattice.pair_adapted_bases(l1, l2)
    h = g - lattice.intersect.__wrapped__(l1, l2).rank
    calls = [
        (lattice.intersect, (l1, l2)),
        (lattice.intersect, (t1, part)),
        (lattice.intersect, (part, t2)),
        (Polarization.canonical, (l1,)),
        (Polarization.canonical, (t2,)),
        (quantize._closed_form_setup, (*frames, h)),
    ]
    for memo, args in calls:
        want = memo.__wrapped__(*args)
        for _ in range(2):
            got = memo(*args)
            assert got == want
            assert arrays_in(got) == 0
        memo.cache_clear()
        assert memo(*args) == want


def test_failures_are_not_cached():
    rng = random.Random(5)
    lag = random_lagrangian(rng, SymplecticSpace.standard(2))
    frame = lattice.adapted_basis(lag)
    other = random_lagrangian(rng, SymplecticSpace.standard(1))
    quantize._closed_form_setup.cache_clear()
    lattice.intersect.cache_clear()
    for _ in range(2):
        # R = omega(W, W) = 0 for two copies of one frame
        with pytest.raises(NotTransverse):
            quantize._closed_form_setup(frame, frame, 2)
        with pytest.raises(SpaceMismatch):
            lattice.intersect(lag, other)
    assert quantize._closed_form_setup.cache_info().currsize == 0
    assert lattice.intersect.cache_info().currsize == 0


def test_one_desk_pass_hits_every_memo():
    # the one-case call of each desk suite on one seed: each memo hits
    # inside a single call
    for memo in MEMOS:
        memo.cache_clear()
    for name, suite in verify.SUITES.items():
        if name != "oracle":
            assert suite(0, cases=1).failures == 0
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.hits > 0, (memo.__qualname__, info)
