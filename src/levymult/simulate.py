"""Levy path simulation on T^1, T^2, SU(2), and subordinator ensembles.

Paths follow exponential Euler between jumps: the state is multiplied by
exp(sqrt(2c) dB . X + b dt), which stays on the group exactly.  Jumps
occur at exact Poisson event times (never snapped to the grid); the
diffusion is integrated to the event and the jump is applied after the
diffusion substep.  Randomness is drawn from counter-based streams keyed
by (seed, purpose, path index), so path i is the same no matter how many
other paths are simulated.

Paths are simulated in chunks laid out in flat node arrays (a single path
is a chunk of one): torus states are running sums, and SU(2) states are
advanced by one loop over the grid steps for the whole chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from . import rng as rngmod
from .groups import (
    SU2,
    GroupLevyMeasure,
    group_dim,
    su2_exp_batch,
    su2_product,
    su2_renormalise,
)
from .levy import BernsteinSpec


@dataclass(frozen=True)
class GroupProcessSpec:
    """Characteristics and discretisation of a group-valued Levy process.

    The diffusion matrix is c times the identity in the fixed orthonormal
    basis; drift is supported on the tori only.
    """

    group: str
    c: float
    jumps: GroupLevyMeasure
    horizon: float
    dt: float
    seed: int
    drift: tuple = ()

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError("diffusion coefficient must be nonnegative")
        if self.dt <= 0.0 or self.horizon < self.dt:
            raise ValueError("need dt > 0 and horizon >= dt")
        if self.jumps.group != self.group:
            raise ValueError("jump measure group mismatch")
        k = self.horizon / self.dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError("horizon must be an integer number of steps")
        d = group_dim(self.group)
        drift = tuple(float(x) for x in (self.drift or (0.0,) * d))
        if self.group == SU2:
            if any(x != 0.0 for x in drift):
                raise ValueError("drift is not supported on SU(2)")
            drift = (0.0, 0.0, 0.0)
        if len(drift) != d:
            raise ValueError(f"drift must have {d} components")
        object.__setattr__(self, "drift", drift)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @cached_property
    def grid_times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


#: ensembles are simulated and evaluated in chunks of paths sized so that no
#: batched table exceeds about this many bytes (larger chunks gain little speed
#: and raise the peak resident memory)
CHUNK_BYTES = 1 << 20

#: SU(2) states are projected back onto the group after every this many grid steps
RENORM_STEPS = 32


@dataclass
class PathRecord:
    """Simulated paths, segmented at grid times and exact event times.

    The nodes of a path are ordered points in time; every grid time is a
    node, every jump is its own node (after the grid node when times
    coincide).  Paths are laid out one after another in flat arrays: path
    ``indices[p]`` owns nodes ``offsets[p]:offsets[p + 1]``.  ``states[i]``
    is the state at node i after any event there; ``prestates[i]`` the
    state just before it.  ``db`` holds the standard Brownian increments
    over the segments (node i, node i + 1) inside each path, in node order
    (see ``segment_rows``).
    """

    spec: GroupProcessSpec
    indices: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    kinds: np.ndarray  # 0 grid node, 1 event node
    marks: np.ndarray  # atom index at event nodes, -1 elsewhere
    db: np.ndarray
    states: np.ndarray = None
    prestates: np.ndarray = None
    unitarity_residual: float = 0.0

    @cached_property
    def owner(self) -> np.ndarray:
        """Position in ``indices`` of the path each node belongs to."""
        return np.repeat(np.arange(len(self.indices)), np.diff(self.offsets))

    def _starts(self) -> np.ndarray:
        """Mask of the nodes that start a segment: all but the last of each path."""
        starts = np.ones(len(self.times), dtype=bool)
        starts[self.offsets[1:] - 1] = False
        return starts

    @cached_property
    def segment_rows(self) -> np.ndarray:
        """The node that starts each segment."""
        return np.flatnonzero(self._starts())

    @cached_property
    def ds(self) -> np.ndarray:
        """Length of each segment."""
        return (self.times[1:] - self.times[:-1])[self._starts()[:-1]]

    @property
    def end_rows(self) -> np.ndarray:
        """The last node (the horizon) of each path."""
        return self.offsets[1:] - 1

    @cached_property
    def grid_rows(self) -> np.ndarray:
        return np.flatnonzero(self.kinds == 0)

    @cached_property
    def event_rows(self) -> np.ndarray:
        return np.flatnonzero(self.kinds == 1)

    @property
    def n_events(self) -> int:
        return len(self.event_rows)

    def steps(self, rows) -> np.ndarray:
        """Grid step [t_k, t_{k+1}) holding each of the given nodes; an event
        exactly at a grid time follows the diffusion up to it, so it opens
        the next step."""
        k = np.searchsorted(self.spec.grid_times, self.times[rows], side="right") - 1
        return np.minimum(k, self.spec.n_steps - 1)

    @cached_property
    def cells(self) -> np.ndarray:
        """(path, grid step) of every node, flattened as path * n_steps + step."""
        return self.owner * self.spec.n_steps + self.steps(slice(None))


def _compound_poisson(gen: np.random.Generator, masses: np.ndarray, horizon: float):
    """Sorted event times on [0, horizon] at total rate sum(masses), and the atom of each event."""
    lam = float(np.sum(masses))
    count = int(gen.poisson(lam * horizon))
    times = np.sort(gen.uniform(0.0, horizon, size=count))
    marks = gen.choice(len(masses), size=count, p=masses / lam)
    return times, marks


def _draw_events(spec: GroupProcessSpec, index: int):
    masses = np.array([m for _, m in spec.jumps.atoms])
    if masses.size == 0:
        return np.zeros(0), np.zeros(0, dtype=int)
    return _compound_poisson(rngmod.stream(spec.seed, rngmod.JUMPS, index), masses, spec.horizon)


def _layout(spec: GroupProcessSpec, indices) -> PathRecord:
    """Draw each path's events and normals and lay its nodes out flat.

    Every path draws from its own streams, events first, exactly as a path
    simulated alone would; only the layout is shared.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=int))
    n_paths, k_steps = len(indices), spec.n_steps
    events = [_draw_events(spec, i) for i in indices]
    counts = np.array([len(t) for t, _ in events], dtype=int)
    offsets = np.zeros(n_paths + 1, dtype=int)
    np.cumsum(k_steps + 1 + counts, out=offsets[1:])
    t_ev = np.concatenate([t for t, _ in events])
    # an event follows its path's earlier nodes: the grid nodes at or before
    # it (grid node first on a time tie) and the earlier events
    ev_owner = np.repeat(np.arange(n_paths), counts)
    ev_rows = ev_owner * (k_steps + 1) + np.arange(len(t_ev)) + np.searchsorted(spec.grid_times, t_ev, side="right")
    kinds = np.zeros(offsets[-1], dtype=np.int8)
    kinds[ev_rows] = 1
    times = np.empty(offsets[-1])
    times[ev_rows] = t_ev
    times[kinds == 0] = np.tile(spec.grid_times, n_paths)
    marks = np.full(offsets[-1], -1)
    marks[ev_rows] = np.concatenate([m for _, m in events])
    # path p's segments are rows offsets[p] - p .. offsets[p + 1] - p - 1
    seg_start = offsets - np.arange(n_paths + 1)
    db = np.empty((seg_start[-1], group_dim(spec.group)))
    for i, a, b in zip(indices, seg_start[:-1], seg_start[1:]):
        rngmod.stream(spec.seed, rngmod.BROWNIAN, i).standard_normal(out=db[a:b])
    path = PathRecord(spec, indices, offsets, times, kinds, marks, db)
    db *= np.sqrt(path.ds)[:, None]
    return path


def _torus_states(path: PathRecord):
    """Exact states: running sums of drift, diffusion and jump increments."""
    spec = path.spec
    seg, ev_rows = path.segment_rows, path.event_rows
    # per node: the drift and diffusion of the segment ending there, and its jump
    incr = np.zeros((len(path.times), 2, group_dim(spec.group)))
    incr[seg + 1, 0] = np.asarray(spec.drift) * path.ds[:, None] + np.sqrt(2.0 * spec.c) * path.db
    jumps = np.array([tau for tau, _ in spec.jumps.atoms]).reshape(-1, incr.shape[2])[path.marks[ev_rows]]
    incr[ev_rows, 1] = jumps
    # each path's own running sums: the same as if it were simulated alone
    for a, b in zip(path.offsets[:-1], path.offsets[1:]):
        incr[a:b].cumsum(axis=0, out=incr[a:b])
    path.states = incr[:, 0] + incr[:, 1]
    path.prestates = path.states.copy()
    path.prestates[ev_rows] -= jumps
    return path


def _su2_evolve(path: PathRecord, record: bool) -> np.ndarray:
    """Evolve every path of the layout on SU(2) at once; returns the final states.

    One loop runs over the grid steps.  A step multiplies each state by the
    exponential of its last diffusion substep; before that, the substeps
    ending at events (sorted by step and rank within the step) are applied
    to the paths that have them, each followed by its jump.  States are
    projected back onto the group every ``RENORM_STEPS`` steps and at the
    horizon.  With ``record`` the state at every node is kept as well.
    """
    spec = path.spec
    k_steps, n_paths = spec.n_steps, len(path.indices)
    diffuse = spec.c > 0.0
    scale = np.sqrt(2.0 * spec.c)
    # segment j starts at node j + (its path's position): the one ending at
    # node i is segment i - 1 - (path of i)
    grid_nodes = path.grid_rows.reshape(n_paths, k_steps + 1)
    to_grid = (grid_nodes[:, 1:] - 1 - np.arange(n_paths)[:, None]).T  # (step, path)
    ev_nodes = path.event_rows
    ev_owner = np.searchsorted(path.offsets, ev_nodes, side="right") - 1
    to_event = ev_nodes - 1 - ev_owner
    ev_step = path.steps(ev_nodes)
    cell = ev_owner * k_steps + ev_step  # nondecreasing along the nodes
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)  # within its step
    # events of one step and rank, each on its own path, are applied together
    order = np.lexsort((ev_owner, rank, ev_step))
    cuts = np.flatnonzero(np.diff(ev_step[order]) | np.diff(rank[order])) + 1
    groups = {}
    for rows in np.split(order, cuts) if len(order) else ():
        groups.setdefault(int(ev_step[rows[0]]), []).append(rows)
    if diffuse:
        ev_rot = su2_exp_batch(scale * path.db[to_event])
    atom_mats = np.array([tau for tau, _ in spec.jumps.atoms], dtype=complex).reshape(-1, 2, 2)
    g = np.tile(np.eye(2, dtype=complex), (n_paths, 1, 1))
    if record:
        states = np.empty((len(path.times), 2, 2), dtype=complex)
        states[grid_nodes[:, 0]] = g
        prestates = np.empty_like(states)
    residual = 0.0
    for k0 in range(0, k_steps, RENORM_STEPS):
        k1 = min(k0 + RENORM_STEPS, k_steps)
        if diffuse:
            rot = su2_exp_batch(scale * path.db[to_grid[k0:k1].reshape(-1)]).reshape(k1 - k0, n_paths, 2, 2)
        for k in range(k0, k1):
            for rows in groups.get(k, ()):
                who, nodes = ev_owner[rows], ev_nodes[rows]
                pre = su2_product(g[who], ev_rot[rows]) if diffuse else g[who]
                g[who] = su2_product(pre, atom_mats[path.marks[nodes]])
                if record:
                    prestates[nodes] = pre
                    states[nodes] = g[who]
            if diffuse:
                g = su2_product(g, rot[k - k0])
            if record and k + 1 < k1:
                states[grid_nodes[:, k + 1]] = g
        g, res = su2_renormalise(g)
        residual = max(residual, res)
        if record:
            states[grid_nodes[:, k1]] = g
    path.unitarity_residual = residual
    if record:
        grid = grid_nodes.reshape(-1)
        prestates[grid] = states[grid]
        path.states, path.prestates = states, prestates
    return g


def simulate_paths(spec: GroupProcessSpec, indices) -> PathRecord:
    """Simulate the given path indices together; each is reproducible from
    (spec.seed, index) alone and does not depend on the others."""
    path = _layout(spec, indices)
    if spec.group == SU2:
        _su2_evolve(path, record=True)
        return path
    return _torus_states(path)


def simulate_path(spec: GroupProcessSpec, index: int) -> PathRecord:
    """Simulate path ``index``; reproducible from (spec.seed, index) alone."""
    return simulate_paths(spec, [index])


def paths_per_chunk(budget: int, bytes_per_path: float) -> int:
    """Paths per chunk: as many as fit ``budget`` bytes at bytes_per_path each, and at least one."""
    return max(1, int(budget // bytes_per_path))


def chunk_paths(paths: int, per_chunk: int):
    """Consecutive index ranges covering 0..paths-1, at most per_chunk long."""
    return [np.arange(s, min(s + per_chunk, paths)) for s in range(0, paths, per_chunk)]


def ensemble_final_states(spec: GroupProcessSpec, paths: int) -> np.ndarray:
    """phi(horizon) for all path indices, started at the identity.

    Paths are simulated in chunks, with the same draws and layout as
    ``simulate_paths``; on SU(2) only the final states are kept.  Path p
    agrees with ``simulate_path(spec, p)``.
    """
    d = group_dim(spec.group)
    # the widest table of a chunk holds each segment's normals (d floats)
    per_chunk = paths_per_chunk(CHUNK_BYTES, 8 * d * (spec.n_steps + 1 + spec.jumps.total_mass * spec.horizon))
    if spec.group == SU2:
        out = np.empty((paths, 2, 2), dtype=complex)
    else:
        out = np.empty((paths, d))
    for idx in chunk_paths(paths, per_chunk):
        path = _layout(spec, idx)
        if spec.group == SU2:
            out[idx] = _su2_evolve(path, record=False)
        else:
            out[idx] = _torus_states(path).states[path.end_rows]
    return out


@dataclass
class SubordinatorEnsemble:
    times: np.ndarray
    values: np.ndarray  # (paths, len(times)), nondecreasing along axis 1
    spec: BernsteinSpec


def simulate_subordinator(
    spec: BernsteinSpec, horizon: float, dt: float, seed: int, paths: int
) -> SubordinatorEnsemble:
    """Ensemble of subordinator paths T(t) = c t + compound Poisson jumps.

    Requires an atom-only Bernstein spec (discretise densities with
    ``bernstein_atoms`` first); its Laplace exponent is then exactly the
    one being simulated.
    """
    if spec.density is not None:
        raise ValueError("discretise the density part first (bernstein_atoms)")
    k = int(round(horizon / dt))
    if abs(k * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer number of steps")
    grid = np.arange(k + 1) * dt
    values = np.empty((paths, k + 1))
    for p in range(paths):
        base = spec.c * grid
        if spec.atoms:
            t_ev, marks = _compound_poisson(rngmod.stream(seed, rngmod.SUBORDINATOR, p), spec.atom_masses, horizon)
            cum = np.concatenate([[0.0], np.cumsum(spec.atom_y[marks])])
            base = base + cum[np.searchsorted(t_ev, grid, side="right")]
        values[p] = base
    return SubordinatorEnsemble(grid, values, spec)
