"""Levy path simulation on T^1, T^2, SU(2), and subordinator ensembles.

Paths follow exponential Euler between jumps: the state is multiplied by
exp(sqrt(2c) dB . X + b dt), which stays on the group exactly.  Jumps
occur at exact Poisson event times (never snapped to the grid); the
diffusion is integrated to the event and the jump is applied after the
diffusion substep.  Randomness is drawn from counter-based streams keyed
by (seed, purpose, path index), so path i is the same no matter how many
other paths are simulated.

Paths are simulated in chunks laid out in flat node arrays (a single path
is a chunk of one).  A segment lives on the node where it starts: its
Brownian increment and length are that node's rows, and a path's last node
holds zeros; pre-jump states are kept at events only.  Torus states are
running sums, and SU(2) states are advanced by one loop over the grid steps
for the whole chunk as first rows (a, b) of [[a, b], [-conj(b), conj(a)]],
expanded to matrices once per chunk.  The step exponentials are taken a
block of steps at a time and kept entries first, so that each step
multiplies contiguous (2, 2, paths) rows.  A path without events draws no
event times or atoms.  Final-state ensembles keep one chunk's layout alive
at a time.
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
    su2_matrix,
    su2_renormalise,
)
from .levy import BernsteinSpec
from .linalg import blocks


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


#: SU(2) states are projected back onto the group after every this many grid steps
RENORM_STEPS = 32


@dataclass
class PathRecord:
    """Simulated paths, segmented at grid times and exact event times.

    The nodes of a path are ordered points in time; every grid time is a
    node, every jump is its own node (after the grid node when times
    coincide) and has its atom in ``marks`` (-1 elsewhere).  Paths are laid
    out one after another in flat arrays: path ``indices[p]`` owns nodes
    ``offsets[p]:offsets[p + 1]``.  A segment lives on the node where it
    starts: ``db[i]`` and ``ds[i]`` are the standard Brownian increment and
    the length of the segment (node i, node i + 1), and zero at each path's
    last node.  ``states[i]`` is the state at node i after any event there;
    ``prestates[j]`` the state just before the event at ``event_rows[j]``.
    """

    spec: GroupProcessSpec
    indices: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    marks: np.ndarray  # atom index at event nodes, -1 elsewhere
    db: np.ndarray
    states: np.ndarray = None
    prestates: np.ndarray = None
    unitarity_residual: float = 0.0

    @cached_property
    def owner(self) -> np.ndarray:
        """Position in ``indices`` of the path each node belongs to."""
        return np.repeat(np.arange(len(self.indices)), np.diff(self.offsets))

    def _lengths(self) -> np.ndarray:
        """Length of the segment starting at each node, a new array on every call (``ds`` keeps one)."""
        ds = np.diff(self.times, append=self.spec.horizon)
        ds[self.end_rows] = 0.0  # -horizon across a path boundary
        return ds

    @cached_property
    def ds(self) -> np.ndarray:
        """Length of the segment starting at each node."""
        return self._lengths()

    @property
    def end_rows(self) -> np.ndarray:
        """The last node (the horizon) of each path."""
        return self.offsets[1:] - 1

    @cached_property
    def grid_rows(self) -> np.ndarray:
        return np.flatnonzero(self.marks < 0)

    @cached_property
    def event_rows(self) -> np.ndarray:
        return np.flatnonzero(self.marks >= 0)

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


#: (event times, atoms) of a path without events
_NO_EVENTS = (np.zeros(0), np.zeros(0, dtype=int))


def _compound_poisson(masses: np.ndarray, horizon: float):
    """The ``rng.streams`` draw of sorted event times on [0, horizon] at total
    rate sum(masses), and the atom of each event.

    The atoms are drawn as ``Generator.choice(p=masses / sum(masses))``
    draws them, from the cdf of p, without its per-call argument checks.
    """
    lam = float(np.sum(masses))
    cdf = np.cumsum(masses / lam)
    cdf /= cdf[-1]

    def draw(gen, _):
        count = int(gen.poisson(lam * horizon))
        if not count:  # an empty draw takes nothing from the stream
            return _NO_EVENTS
        times = np.sort(gen.uniform(0.0, horizon, size=count))
        return times, cdf.searchsorted(gen.random(count), side="right")

    return draw


def _draw_events(spec: GroupProcessSpec, indices) -> list:
    """(event times, atoms) of each path, from its own jump stream."""
    masses = np.array([m for _, m in spec.jumps.atoms])
    if masses.size == 0:
        return [_NO_EVENTS] * len(indices)
    return rngmod.streams(spec.seed, (rngmod.JUMPS,), indices, _compound_poisson(masses, spec.horizon))


def _layout(spec: GroupProcessSpec, indices) -> PathRecord:
    """Draw each path's events and normals and lay its nodes out flat.

    Every path draws from its own streams, events first, exactly as a path
    simulated alone would; only the layout is shared.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=int))
    n_paths, k_steps = len(indices), spec.n_steps
    events = _draw_events(spec, indices)
    counts = np.array([len(t) for t, _ in events], dtype=int)
    offsets = np.zeros(n_paths + 1, dtype=int)
    np.cumsum(k_steps + 1 + counts, out=offsets[1:])
    t_ev = np.concatenate([t for t, _ in events])
    # an event follows its path's earlier nodes: the grid nodes at or before
    # it (grid node first on a time tie) and the earlier events
    ev_owner = np.repeat(np.arange(n_paths), counts)
    ev_rows = ev_owner * (k_steps + 1) + np.arange(len(t_ev)) + np.searchsorted(spec.grid_times, t_ev, side="right")
    marks = np.full(offsets[-1], -1)
    marks[ev_rows] = np.concatenate([m for _, m in events])
    times = np.empty(offsets[-1])
    times[ev_rows] = t_ev
    np.place(times, marks < 0, spec.grid_times)  # every path's grid times, repeated in place
    # path p's segments start at its nodes but the last, which keeps zeros
    db = np.zeros((offsets[-1], group_dim(spec.group)))
    rngmod.streams(
        spec.seed, (rngmod.BROWNIAN,), indices, lambda gen, p: gen.standard_normal(out=db[offsets[p] : offsets[p + 1] - 1])
    )
    path = PathRecord(spec, indices, offsets, times, marks, db)
    root = path._lengths()  # not cached: an SU(2) evolve never reads ds
    db *= np.sqrt(root, out=root)[:, None]
    return path


def _torus_states(path: PathRecord):
    """Exact states: running sums of drift, diffusion and jump increments."""
    spec = path.spec
    ev_rows = path.event_rows
    # per node: the drift and diffusion of the segment ending there (the one
    # starting at the node before), and its jump
    incr = np.zeros((len(path.times), 2, group_dim(spec.group)))
    incr[1:, 0] = (np.asarray(spec.drift) * path.ds[:, None] + np.sqrt(2.0 * spec.c) * path.db)[:-1]
    jumps = np.array([tau for tau, _ in spec.jumps.atoms]).reshape(-1, incr.shape[2])[path.marks[ev_rows]]
    incr[ev_rows, 1] = jumps
    # each path's own running sums: the same as if it were simulated alone
    for a, b in zip(path.offsets[:-1], path.offsets[1:]):
        incr[a:b].cumsum(axis=0, out=incr[a:b])
    path.states = incr[:, 0] + incr[:, 1]
    path.prestates = path.states[ev_rows] - jumps
    return path


def _row_product(g: np.ndarray, m: np.ndarray, out, prod) -> np.ndarray:
    """First rows (2, paths) of g m for first rows g and matrices m (2, 2, paths): row 0 of
    ``su2_product``, as g_i m_ij into ``prod`` (2, 2, paths) and their sum over i into ``out``
    (None allocates)."""
    prod = np.multiply(g[:, None], m, out=prod)
    return np.add(prod[0], prod[1], out=out)


def _su2_evolve(path: PathRecord, record: bool) -> np.ndarray:
    """Evolve every path of the layout on SU(2) at once; returns the final states.

    One loop runs over the grid steps.  A step multiplies each state by the
    exponential of its last diffusion substep; before that, the substeps
    ending at events (sorted by step and rank within the step) are applied
    to the paths that have them, each followed by its jump; a path without
    events, which drew nothing after its event count, only takes the steps.
    States, first rows (``_row_product``), are projected back onto the group
    every ``RENORM_STEPS`` steps and at the horizon.  The step exponentials of
    such a block of steps are taken at once from its increments, gathered in
    (step, path) order into a reused buffer, and kept entries first
    (``su2_exp_batch``): a step's matrices are contiguous (2, 2, paths) rows,
    and the step is two ufunc calls on them.  ``ensemble_final_states`` keeps
    one chunk's layout alive at a time.  The substep ending at node i is the
    segment on node i - 1.  With ``record`` the state at every node and the
    pre-jump state at every event are kept as well.
    """
    spec = path.spec
    k_steps, n_paths = spec.n_steps, len(path.indices)
    diffuse = spec.c > 0.0
    scale = np.sqrt(2.0 * spec.c)
    # the substep ending at node i is the segment on node i - 1
    grid_nodes = path.grid_rows.reshape(n_paths, k_steps + 1)
    ev_nodes = path.event_rows
    ev_owner = np.searchsorted(path.offsets, ev_nodes, side="right") - 1
    ev_step = path.steps(ev_nodes)
    cell = ev_owner * k_steps + ev_step  # nondecreasing along the nodes
    rank = np.arange(len(cell)) - np.searchsorted(cell, cell)  # within its step
    # the events in the order they are applied, by step and rank within the step; those of one
    # step and rank, each on its own path, are applied together, as one slice of that order
    order = np.lexsort((ev_owner, rank, ev_step))
    ev_nodes, ev_owner, ev_step, rank = ev_nodes[order], ev_owner[order], ev_step[order], rank[order]
    firsts = np.flatnonzero(np.diff(ev_step, prepend=-1) | np.diff(rank, prepend=-1)).tolist()
    groups = {}
    for lo, hi in zip(firsts, firsts[1:] + [len(order)]):
        groups.setdefault(int(ev_step[lo]), []).append(slice(lo, hi))
    if diffuse:
        ev_rot = su2_exp_batch(scale * path.db[ev_nodes - 1]).transpose(1, 2, 0)
    atom_mats = np.array([tau for tau, _ in spec.jumps.atoms], dtype=complex).reshape(-1, 2, 2).transpose(1, 2, 0)
    ev_jump = atom_mats[..., path.marks[ev_nodes]]
    g = np.zeros((2, n_paths), dtype=complex) + [[1.0], [0.0]]
    prod = np.empty((2, 2, n_paths), dtype=complex)
    if record:
        states = np.empty((len(path.times), 2), dtype=complex)
        prestates = np.empty((len(ev_nodes), 2), dtype=complex)  # in event_rows order
    width = min(RENORM_STEPS, k_steps)
    block = np.empty((width + 1, 2, n_paths), dtype=complex)  # grid nodes k0..k1
    to_grid = np.empty((width, n_paths), dtype=int)  # the segments ending at grid nodes k0 + 1..k1
    incr = np.empty((width * n_paths, 3))
    for k0 in range(0, k_steps, RENORM_STEPS):
        k1 = min(k0 + RENORM_STEPS, k_steps)
        if diffuse:
            seg = np.subtract(grid_nodes[:, k0 + 1 : k1 + 1].T, 1, out=to_grid[: k1 - k0])
            v = np.take(path.db, seg.reshape(-1), axis=0, out=incr[: seg.size], mode="clip")
            v *= scale
            rot = su2_exp_batch(v).transpose(1, 2, 0).reshape(2, 2, k1 - k0, n_paths).transpose(2, 0, 1, 3)
        block[0] = g
        for k in range(k0, k1):
            g = block[k - k0].copy() if k in groups else block[k - k0]
            for rows in groups.get(k, ()):
                who, nodes = ev_owner[rows], ev_nodes[rows]
                pre = _row_product(g[:, who], ev_rot[..., rows], None, None) if diffuse else g[:, who]
                g[:, who] = _row_product(pre, ev_jump[..., rows], None, None)
                if record:
                    prestates[order[rows]] = pre.T
                    states[nodes] = g[:, who].T
            if diffuse:
                _row_product(g, rot[k - k0], block[k - k0 + 1], prod)
            else:
                block[k - k0 + 1] = g
        g, res = su2_renormalise(block[k1 - k0])
        path.unitarity_residual = max(path.unitarity_residual, res)
        if record:
            block[k1 - k0] = g
            states[grid_nodes[:, k0 : k1 + 1].T] = block[: k1 - k0 + 1].transpose(0, 2, 1)
    if record:
        path.states, path.prestates = (su2_matrix(*r.T) for r in (states, prestates))
    return su2_matrix(*g)


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


def ensemble_final_states(spec: GroupProcessSpec, paths: int) -> np.ndarray:
    """phi(horizon) for all path indices, started at the identity.

    Paths are simulated in chunks (``linalg.blocks``), with the same draws and
    layout as ``simulate_paths``; on SU(2) only the final states are kept.  One
    chunk's layout is alive at a time: it is dropped before the next one is laid
    out.  Path p agrees with ``simulate_path(spec, p)``, to the bit.
    """
    d = group_dim(spec.group)
    # the budget counts each node's normals (8 d bytes a node).  On criterion 10's central SU(2)
    # spec (tracemalloc) a layout keeps 40 B a node and peaks at 57 B a node while it is laid out, and
    # the evolve adds at most 27 B a node: a call peaks at 2.9 budgets (896 paths), below 3.25
    if spec.group == SU2:
        out = np.empty((paths, 2, 2), dtype=complex)
    else:
        out = np.empty((paths, d))
    for chunk in blocks(paths, 8 * d * (spec.n_steps + 1 + spec.jumps.total_mass * spec.horizon)):
        out[chunk] = _final_states(_layout(spec, np.arange(chunk.start, chunk.stop)))
    return out


def _final_states(path: PathRecord) -> np.ndarray:
    """The state at the horizon of each path of the layout."""
    if path.spec.group == SU2:
        return _su2_evolve(path, record=False)
    return _torus_states(path).states[path.end_rows]


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
    values = np.tile(spec.c * grid, (paths, 1))
    if spec.atoms:
        events = rngmod.streams(seed, (rngmod.SUBORDINATOR,), np.arange(paths), _compound_poisson(spec.atom_masses, horizon))
        for p, (t_ev, marks) in enumerate(events):
            cum = np.concatenate([[0.0], np.cumsum(spec.atom_y[marks])])
            values[p] += cum[np.searchsorted(t_ev, grid, side="right")]
    return SubordinatorEnsemble(grid, values, spec)
