import itertools

import numpy as np
import pytest

from levymult import rng as rngmod

SEEDS = [0, 1, 20249, 2**31 - 2, 2**40 + 7, 2**64 - 1, -5]
PREFIXES = [(rngmod.JUMPS,), (rngmod.BROWNIAN,), (rngmod.HAAR,), (rngmod.HAAR, 3), (rngmod.HAAR, 2**40)]
INDICES = [0, 1, 1000, 2**32 - 1]


def first_draws(gen) -> bytes:
    """Doubles, normals, and an odd number of 32-bit words (a half-used 64-bit output)."""
    return b"".join(
        a.tobytes() for a in (gen.random(3), gen.standard_normal(4), gen.integers(0, 2**32, 3, dtype=np.uint32))
    )


@pytest.mark.parametrize("seed,prefix", list(itertools.product(SEEDS, PREFIXES)))
def test_batch_opener_matches_the_reference_stream(seed, prefix):
    for i, gen in zip(INDICES, rngmod.streams(seed, prefix, INDICES)):
        assert first_draws(gen) == first_draws(rngmod.stream(seed, *prefix, i))
    # a chunk of one
    for i in INDICES:
        (gen,) = rngmod.streams(seed, prefix, [i])
        assert first_draws(gen) == first_draws(rngmod.stream(seed, *prefix, i))


def test_two_openers_used_in_turn():
    a = rngmod.streams(20249, (rngmod.JUMPS,), range(5))
    b = rngmod.streams(20249, (rngmod.BROWNIAN,), range(5))
    for i, (ga, gb) in enumerate(zip(a, b)):
        assert first_draws(ga) == first_draws(rngmod.stream(20249, rngmod.JUMPS, i))
        assert first_draws(gb) == first_draws(rngmod.stream(20249, rngmod.BROWNIAN, i))


@pytest.mark.parametrize("index", [2**32, 2**40, -1])
def test_index_outside_one_key_word_is_refused(index):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        list(rngmod.streams(3, (rngmod.JUMPS,), [0, index]))


def test_no_indices_open_no_stream():
    assert list(rngmod.streams(3, (rngmod.JUMPS,), [])) == []
