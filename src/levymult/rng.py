"""Counter-based random streams for reproducible parallel Monte Carlo.

Every consumer of randomness opens its own Philox stream keyed by
(master seed, purpose tag, indices...).  A stream's output depends only
on its key, never on how many other streams were opened or in which
order they were drawn from, so ensembles are reproducible path by path
regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

# Purpose tags.  These are part of the reproducibility contract: changing
# them changes every simulated ensemble.
BROWNIAN = 1
JUMPS = 2
SUBORDINATOR = 4
SEARCH = 5
SPEC_DRAW = 6
HAAR = 7


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Open the Philox stream keyed by (master_seed, *key)."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in key),
    )
    return np.random.Generator(np.random.Philox(ss))
