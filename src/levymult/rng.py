"""Counter-based random streams for reproducible parallel Monte Carlo.

Every consumer of randomness opens its own Philox stream keyed by
(master seed, purpose tag, indices...).  A stream's output depends only
on its key, never on how many other streams were opened or in which
order they were drawn from, so ensembles are reproducible path by path
regardless of scheduling.

``stream`` opens one stream and is the reference.  ``streams`` opens the
streams of a chunk of paths, keyed (master seed, *prefix, i), in one batch
and passes each to a draw callback, with the same draws: numpy's
``SeedSequence`` mixes the last key word (the path index) into a pool that
the earlier words fix, so that pool is mixed once per (seed, prefix), and
only the last round and the key hash run per path, on arrays over the chunk.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Purpose tags.  These are part of the reproducibility contract: changing
# them changes every simulated ensemble.
BROWNIAN = 1
JUMPS = 2
SUBORDINATOR = 4
SEARCH = 5
SPEC_DRAW = 6
HAAR = 7

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF

# the hash constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _key(master_seed: int, key) -> tuple:
    """The entropy and spawn key of a stream, each word taken mod 2**64."""
    return int(master_seed) & _MASK64, tuple(int(k) & _MASK64 for k in key)


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Open the Philox stream keyed by (master_seed, *key)."""
    entropy, spawn_key = _key(master_seed, key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)))


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seeds a Philox with its two uint64 key words, already hashed the way
    SeedSequence hashes them (cheaper than a Philox built from a SeedSequence)."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype):
        return self.key


@lru_cache(maxsize=32)
def _prefix_pool(entropy: int, spawn_key: tuple):
    """What every stream keyed (entropy, *spawn_key, i) shares.

    That is the pool of SeedSequence(entropy, spawn_key) times MIX_MULT_L,
    and the hash constants before and after each call that mixes one more
    key word into that pool (A) and then hashes the pool into a Philox key
    (B), as rows of four.
    """
    # the entropy is the seed padded to the pool size, then the key words;
    # the pool fill and the all-pairs mix make 4 + 12 hashmix calls, and
    # every further word 4 more
    calls = 4 * (_POOL + sum(max(1, -(-k.bit_length() // 32)) for k in spawn_key))
    runs = []
    for init, mult, first in ((_INIT_A, _MULT_A, calls), (_INIT_B, _MULT_B, 0)):
        run = np.array([init * pow(mult, first + i, 1 << 32) & _MASK32 for i in range(_POOL + 1)], dtype=np.uint32)
        runs += [run[:-1], run[1:]]
    pool = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key).pool * np.uint32(_MIX_MULT_L)
    for a in (pool, *runs):
        a.flags.writeable = False
    return pool, *runs


def streams(master_seed: int, prefix, indices, draw) -> list:
    """[draw(gen, k)] for the k-th index i of ``indices``, gen the stream ``stream(master_seed, *prefix, i)``.

    One generator is re-keyed for every index, so it is handed only to
    ``draw``, which must finish with it before the next index.  Indices
    must lie in [0, 2**32): a larger one is two key words, which this
    batch does not mix.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, 1)
    words = idx.ravel().tolist()
    if words and (min(words) < 0 or max(words) > _MASK32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    pool, pre_a, post_a, pre_b, post_b = _prefix_pool(*_key(master_seed, prefix))
    # the last mixing round: hashmix of the index word, mixed into every
    # pool word; the arithmetic wraps mod 2**32 (uint32 arrays)
    x = (idx.astype(np.uint32) ^ pre_a) * post_a
    x ^= x >> np.uint32(16)
    x = pool - x * np.uint32(_MIX_MULT_R)
    x ^= x >> np.uint32(16)
    # generate_state(2, uint64): the four pool words hashed and read as two
    # little-endian uint64 words
    x = (x ^ pre_b) * post_b
    x ^= x >> np.uint32(16)
    keys = x.astype("<u4", copy=False).view("<u8").tolist()
    if not keys:
        return []
    bitgen = np.random.Philox(_PhiloxKey(keys[0]))
    gen = np.random.Generator(bitgen)
    # a freshly keyed Philox (zero counter, empty buffer) to re-key
    state = bitgen.state if len(keys) > 1 else None
    out = [draw(gen, 0)]
    for k, key in enumerate(keys[1:], 1):
        state["state"]["key"] = key
        bitgen.state = state
        out.append(draw(gen, k))
    return out
