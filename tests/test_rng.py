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


def draw_first(gen, _):
    return first_draws(gen)


@pytest.mark.parametrize("seed,prefix", list(itertools.product(SEEDS, PREFIXES)))
def test_batch_opener_matches_the_reference_stream(seed, prefix):
    for i, draws in zip(INDICES, rngmod.streams(seed, prefix, INDICES, draw_first)):
        assert draws == first_draws(rngmod.stream(seed, *prefix, i))
    # a chunk of one
    for i in INDICES:
        (draws,) = rngmod.streams(seed, prefix, [i], draw_first)
        assert draws == first_draws(rngmod.stream(seed, *prefix, i))


def test_two_openers_used_in_turn():
    def jumps_around_brownian(gen, k):
        head = gen.random(2).tobytes()
        (brownian,) = rngmod.streams(20249, (rngmod.BROWNIAN,), [k], draw_first)
        return head + first_draws(gen), brownian

    for i, (ja, gb) in enumerate(rngmod.streams(20249, (rngmod.JUMPS,), range(5), jumps_around_brownian)):
        ref = rngmod.stream(20249, rngmod.JUMPS, i)
        assert ja == ref.random(2).tobytes() + first_draws(ref)
        assert gb == first_draws(rngmod.stream(20249, rngmod.BROWNIAN, i))


def test_the_draw_gets_each_position_in_turn():
    positions = rngmod.streams(20249, (rngmod.JUMPS,), [7, 3, 3, 0], lambda gen, k: (k, first_draws(gen)))
    assert [k for k, _ in positions] == [0, 1, 2, 3]
    assert [d for _, d in positions] == [first_draws(rngmod.stream(20249, rngmod.JUMPS, i)) for i in (7, 3, 3, 0)]


@pytest.mark.parametrize("index", [2**32, 2**40, -1])
def test_index_outside_one_key_word_is_refused(index):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rngmod.streams(3, (rngmod.JUMPS,), [0, index], draw_first)


def test_no_indices_open_no_stream():
    assert rngmod.streams(3, (rngmod.JUMPS,), [], draw_first) == []
