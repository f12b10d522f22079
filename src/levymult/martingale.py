"""Martingale transcripts of simulated paths and their Monte Carlo checks.

For a band-limited f the projected value process M(t) = P_{T-t} f at the
moving point is evaluated exactly (the semigroup acts in closed form on
coefficients).  The transform by a pair (A, psi) is accumulated from the
stochastic-integral form: left-point Brownian sums, exact jump terms at
exact event times, and the jump compensator integrated in closed form in
time on every group (left-point in the state, but for the drift, which
moves the state in closed form along a segment).  The transcript also
carries the stochastic-integral representation of M itself (the
transform by (I, 1) plus the initial value); its gap to the exact M is
the discretisation bias and is reported, not assumed zero.

One engine serves T^1, T^2 and SU(2): the coefficient blocks of f are
grouped into stacks of equal-dimension irreps (a torus is one stack of
1x1 blocks, each SU(2) spin its own stack), and only the evaluation of
irreps at group elements and left translation are group specific.  A
stack evaluates its irreps at the atoms once, for the generator blocks and
the jumps of M.  The pairing estimate reads g at end elements by ``pw_inverse``.

Quadratic variations are accumulated termwise from the same increments,
so domination by the transform bounds holds path by path in floats.

Every Monte Carlo consumer evaluates chunks of paths (``ensemble_chunks``):
a transcript has one row per path, and final-value ensembles accumulate only
the transform, step by step as a transcript would.  Every segment term
(Brownian increment, length, A grad M, compensator, grid step) sits on the
node where the segment starts, so the per-step sums run over all nodes at
their cells; a path's last node starts no segment and adds exact zeros.

Work runs on two levels.  A path chunk is sized by the narrow arrays a path
keeps per node (times, marks, Brownian increments, states and a few value
columns: ``path_bytes``) against ``linalg.CHUNK_BLOCKS`` budgets.  Inside
it, the wide (rows x labels) tables of decay, representation and their rows
against the coefficient columns are built and reduced one node block of
``linalg.BLOCK_BYTES`` at a time.  A row's arithmetic does not depend on its
chunk or block, so neither do a path's values, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .groups import (
    SU2,
    PeterWeylCoeffs,
    get_irrep,
    group_dim,
    haar_sample,
    identity_element,
    irrep_stack_batch,
    multiply,
    pw_inverse,
)
from .linalg import CHUNK_BLOCKS, blocks, expm, matmul_rows, pair_matrix
from .simulate import GroupProcessSpec, PathRecord, ensemble_final_states, simulate_paths
from .symbols import atom_reps, central_symbols, generator_blocks, psi_values, stack_rows

#: generator blocks whose eigenvector matrix is worse conditioned than this
#: are exponentiated directly instead of through their eigendecomposition
EIG_COND_MAX = 1e8


def _expm1c(z: np.ndarray) -> np.ndarray:
    """expm1 for complex arrays, accurate near zero."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    out = np.exp(z) - 1.0
    zs = z[small]
    out[small] = zs * (1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0)))
    return out


@dataclass
class MartingaleTranscript:
    """Sampled value process, its transform, and their quadratic variations: one
    row per path, (paths, steps + 1) at the grid times, (paths, steps) for ``d_*``."""

    times: np.ndarray
    m: np.ndarray  # exact P_{T-t} f along the path
    m_repr: np.ndarray  # stochastic-integral representation of m
    m_transform: np.ndarray
    qv: np.ndarray
    qv_transform: np.ndarray
    d_qv: np.ndarray
    d_qv_transform: np.ndarray
    d_qv_cross: np.ndarray
    repr_gap: float  # largest |m - m_repr| over all paths


def check_differential_subordination(tr: MartingaleTranscript, bounds=None) -> np.ndarray:
    """Largest increment violation of each path; <= 0 means domination holds.

    Default: max_k (d[Y]_k - d[X]_k), nonpositive when the transform pair
    is bounded by one.  With bounds=(b, B): the non-symmetric form, the
    increments of [((B-b)/2) X] - [Y - ((b+B)/2) X].
    """
    if bounds is None:
        return np.max(tr.d_qv_transform - tr.d_qv, axis=1, initial=-np.inf)
    b, bb = bounds
    half_w = (bb - b) / 2.0
    mid = (bb + b) / 2.0
    dom = half_w**2 * tr.d_qv - (tr.d_qv_transform - 2.0 * mid * tr.d_qv_cross + mid**2 * tr.d_qv)
    return np.max(-dom, axis=1, initial=-np.inf)


# ---------------------------------------------------------------------------
# transform context (precomputed spectral data shared across an ensemble)


def _rows(decay: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Rows decay (m, L, F) (x) representation (m, L, d, d), flattened against ``h``."""
    rows = decay[..., None, None] * rep[:, :, None]
    return rows.reshape(len(rows), math.prod(rows.shape[1:]))


def _running(increments: np.ndarray) -> np.ndarray:
    """Running sums of (paths, steps) increments, starting from 0 at time 0."""
    return np.concatenate([np.zeros((len(increments), 1)), np.cumsum(increments, axis=1)], axis=1)


class _IrrepStack:
    """Coefficient blocks F of f on a stack of L equal-dimension irreps.

    With W = e^{sL} the decay of the generator block L(pi) = dpi(drift) +
    generator_blocks over the remaining time s, column q of ``h`` turns a
    row into sum_pi d_pi tr(Q_q W F pi(g)) for Q = I (the value M), dpi(X_i)
    (its gradients) and pi(tau_a) - I (its jump by atom a).  Rows are
    written in the eigenbasis L = P diag(w) P^{-1}, where the decay is the
    vector e^{sw}; a stack with a block too ill-conditioned for that keeps
    P = I and the full matrix W instead.
    """

    def __init__(self, spec: GroupProcessSpec, irreps: list, fblocks: np.ndarray):
        self.irreps = irreps
        n_blocks, dim = len(irreps), irreps[0].dim
        eye = np.eye(dim)
        gens = np.array([pi.generators for pi in irreps], dtype=complex)  # (L, n, d, d)
        self.drift = np.einsum("i,lixy->lxy", np.asarray(spec.drift), gens)
        reps = atom_reps(spec.jumps, irreps)
        self.gmat = generator_blocks(spec.c, spec.jumps, irreps, reps)
        self.lmat = self.drift + self.gmat
        jumps = np.reshape(reps, (-1, n_blocks, dim, dim)).transpose(1, 0, 2, 3) - eye
        ops = np.concatenate([np.broadcast_to(eye, (n_blocks, 1, dim, dim)), gens, jumps], axis=1)
        w, p = np.linalg.eig(self.lmat)
        self.eig = bool(np.all(np.linalg.cond(p) < EIG_COND_MAX))
        if self.eig:
            self.w = w
            pinv = np.linalg.inv(p)
            # the drift part of the eigenvalues (the drift commutes with the
            # generator blocks: the tori are abelian, SU(2) has no drift)
            self.w_drift = np.einsum("lij,ljk,lki->li", pinv, self.drift, p)
        else:
            p = pinv = np.broadcast_to(eye, self.lmat.shape)
        sub = "lbe,lqzb->lbezq" if self.eig else "lbe,lqzx->lxbezq"
        self.h = (dim * np.einsum(sub, pinv @ fblocks, ops @ p[:, None])).reshape(-1, ops.shape[1])
        # grid nodes and whole grid steps are shared by every path; only
        # event nodes and the segments they split vary
        self.grid_decay = self.decay(spec.horizon - spec.grid_times)
        # one row per grid node: the compensator over the step it starts, zero at the horizon
        lengths, step = np.unique(np.diff(spec.grid_times), return_inverse=True)
        integral = self.decay_integral(self.grid_decay[1:], self.step_factor(lengths)[step])
        self.grid_integral = np.concatenate([integral, np.zeros_like(integral[:1])])

    def decay(self, s: np.ndarray) -> np.ndarray:
        """Decay rows of e^{sL} at the remaining times s."""
        if self.eig:
            return np.exp(s[:, None, None] * self.w)
        n_blocks, dim = self.lmat.shape[:2]
        return np.array([expm(t * lm) for t in s for lm in self.lmat]).reshape(len(s), n_blocks, dim * dim)

    def step_factor(self, ds: np.ndarray) -> np.ndarray:
        """e^{ds D} int_0^{ds} e^{vG} dv for each segment length: decay-like rows, or matrices.

        This is int_0^{ds} e^{vL} e^{(ds - v)D} dv with D = dpi(drift) and
        G = L - D: the compensator over a segment, along which the state
        stays put but for the drift, which moves it in closed form.
        """
        if self.eig:
            g = self.w - self.w_drift
            gsafe = np.where(g == 0.0, 1.0, g)
            held = np.where(g != 0.0, _expm1c(ds[:, None, None] * g) / gsafe, ds[:, None, None])
            return np.exp(ds[:, None, None] * self.w_drift) * held
        # read off the exponential of the augmented matrix [[G, I], [0, 0]]
        n_blocks, dim = self.lmat.shape[:2]
        aug = np.zeros((n_blocks, 2 * dim, 2 * dim), dtype=complex)
        aug[:, :dim, :dim] = self.gmat
        aug[:, :dim, dim:] = np.eye(dim)
        phi = [expm(h * d) @ expm(h * a)[:dim, dim:] for h in ds for d, a in zip(self.drift, aug)]
        return np.array(phi).reshape(len(ds), n_blocks, dim, dim)

    def decay_integral(self, end: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Rows of int e^{(T-u)L} du over each segment: e^{(T - t_end)L} phi."""
        if self.eig:
            return end * phi
        m, n_blocks, dim = phi.shape[:3]
        return (end.reshape(phi.shape) @ phi).reshape(m, n_blocks, dim * dim)


class _TransformContext:
    """The irrep stacks of f under one process spec; see ``_IrrepStack``.

    A torus has one stack of 1x1 blocks, SU(2) one stack per spin.  Every
    evaluation runs over the flat node arrays of a ``PathRecord`` chunk, so
    transcripts and ensemble final values share the same arithmetic, and a
    path's values are the same in a chunk of one as in a larger chunk.
    """

    def __init__(self, spec: GroupProcessSpec, f: PeterWeylCoeffs):
        self.spec = spec
        self.dim = group_dim(spec.group)
        self.masses = spec.jumps.atom_masses
        self.stacks = [_IrrepStack(spec, irreps, fblocks) for irreps, fblocks in f.stacks()]
        # a node block of _values holds decay, representation and their rows: three complex tables as wide as h
        self.row_bytes = 48 * max(st.h.shape[0] for st in self.stacks)
        # a path chunk counts the narrow arrays of a path's nodes: times, marks, ds, owner, cells, src and the
        # columns of db (8 B a column each), three group elements (states, start points, elements), and twice
        # the complex at_nodes columns (at_nodes, then the atoms' compensators and the node terms taken from
        # it); pre-jump states are kept at events only
        element = identity_element(spec.group).nbytes
        self.path_bytes = spec.expected_nodes * (8 * (6 + self.dim) + 3 * element + 32 * (1 + self.dim + len(self.masses)))

    def _values(self, path: PathRecord, sigmas):
        """M and sqrt(2c) grad M at every node, the jump of M at every event,
        and each atom's compensator integral over the segment starting at
        every node (zero at the last), for the paths of ``path`` started at
        ``sigmas`` (one element per path).

        The wide (rows x labels) tables of each stack are built and reduced
        one node block (``linalg.blocks`` at ``row_bytes`` a row) at a time.
        A segment's compensator is reduced on the row of its node, with that
        node's representation.  Every row takes the arithmetic it takes in
        the whole chunk at once."""
        spec = self.spec
        n = self.dim
        times = path.times
        ev_rows = path.event_rows
        owner = path.owner
        if np.shape(sigmas) != (len(path.indices),) + np.shape(identity_element(spec.group)):
            raise ValueError("need one start element per path")
        starts = np.asarray(sigmas)[np.concatenate([owner, owner[ev_rows]])]
        elements = multiply(spec.group, starts, np.concatenate([path.states, path.prestates]))
        # rows are the nodes, then the events again at their pre-jump states;
        # a grid node reads its row of the grid table, an event its own decay
        src = np.empty(len(elements), dtype=int)
        src[path.grid_rows] = np.tile(np.arange(spec.n_steps + 1), len(path.indices))
        src[ev_rows] = src[len(times) :] = spec.n_steps + 1 + np.arange(len(ev_rows))
        at_nodes = np.zeros((len(elements), 1 + n + len(self.masses)), dtype=complex)
        if len(self.masses):
            # each row's compensator over the segment that starts there, a whole grid step unless an event
            # splits it, and zero at a path's end; the pre-jump rows read zeros too and are dropped
            at_starts = np.zeros((len(elements), len(self.masses)), dtype=complex)
            steps = np.minimum(src, spec.n_steps)
            event = path.marks >= 0
            split_rows = np.flatnonzero(event[:-1] | event[1:])
        for st in self.stacks:
            table = np.concatenate([st.grid_decay, st.decay(spec.horizon - times[ev_rows])])
            if len(self.masses):
                split_integral = st.decay_integral(table[src[split_rows + 1]], st.step_factor(path.ds[split_rows]))
            for rows in blocks(len(elements), self.row_bytes):
                rep = irrep_stack_batch(st.irreps, elements[rows])
                at_nodes[rows] += matmul_rows(_rows(table[src[rows]], rep), st.h)
                if len(self.masses):
                    # the segments split by an event among this block's rows
                    splits = slice(*split_rows.searchsorted((rows.start, rows.stop)))
                    integral = st.grid_integral[steps[rows]]
                    integral[split_rows[splits] - rows.start] = split_integral[splits]
                    at_starts[rows] += matmul_rows(_rows(integral, rep), st.h)[:, 1 + n :]
        at_events = at_nodes[len(times) :]
        m_node = at_nodes[: len(times), 0]
        grad = np.sqrt(2.0 * spec.c) * at_nodes[: len(times), 1 : 1 + n]
        dp_ev = at_events[np.arange(len(ev_rows)), 1 + n + path.marks[ev_rows]]
        comp_atom = at_starts[: len(times)] if len(self.masses) else None
        return m_node, grad, dp_ev, comp_atom

    def _increments(self, path: PathRecord, grad, dp_ev, comp_atom, a_use, psi_use):
        """Per-step increments (paths, steps) of the transform by (A, psi):
        left-point Brownian sums, minus the compensator, plus the jumps.
        Also returns the node terms A grad M and the event terms psi dM."""
        ev_rows = path.event_rows
        va = grad @ np.asarray(a_use, dtype=complex).T
        inc = np.zeros(len(path.indices) * self.spec.n_steps, dtype=complex)
        np.add.at(inc, path.cells, np.einsum("sd,sd->s", va, path.db))
        jump_t = np.zeros(0, dtype=complex)
        if len(self.masses):
            psi_vals = psi_values(psi_use, len(self.masses))
            np.add.at(inc, path.cells, -(comp_atom @ (self.masses * psi_vals)))
            jump_t = psi_vals[path.marks[ev_rows]] * dp_ev
            np.add.at(inc, path.cells[ev_rows], jump_t)
        return inc.reshape(len(path.indices), -1), va, jump_t

    def final_values(self, path: PathRecord, sigmas, amatrix, psi):
        """(M_0, M_T, transform at T) of every path, started at ``sigmas``.

        Only the transform is accumulated: no representation of M and no
        quadratic variations.  Summation follows ``transcript`` step by step.
        """
        m_node, grad, dp_ev, comp_atom = self._values(path, sigmas)
        inc, _, _ = self._increments(path, grad, dp_ev, comp_atom, pair_matrix(amatrix, self.dim), psi)
        return m_node[path.offsets[:-1]], m_node[path.end_rows], np.cumsum(inc, axis=1)[:, -1]

    def transcript(self, path: PathRecord, amatrix, psi, sigmas) -> MartingaleTranscript:
        """Transcripts of the paths of ``path``, started at ``sigmas``, one row per path."""
        n_paths, k_steps = len(path.indices), self.spec.n_steps
        m_node, grad, dp_ev, comp_atom = self._values(path, sigmas)
        repr_inc, v, _ = self._increments(path, grad, dp_ev, comp_atom, np.eye(self.dim), 1.0)
        tr_inc, va, jump_t = self._increments(path, grad, dp_ev, comp_atom, pair_matrix(amatrix, self.dim), psi)
        ds, ev_cells = path.ds, path.cells[path.event_rows]

        def per_step(node_terms, ev_terms):
            out = np.zeros(n_paths * k_steps)
            np.add.at(out, path.cells, node_terms)
            if len(self.masses):
                np.add.at(out, ev_cells, ev_terms)
            return out.reshape(n_paths, k_steps)

        d_qv = per_step(np.sum(np.abs(v) ** 2, axis=1) * ds, np.abs(dp_ev) ** 2)
        d_qv_t = per_step(np.sum(np.abs(va) ** 2, axis=1) * ds, np.abs(jump_t) ** 2)
        d_qv_c = per_step(
            np.real(np.einsum("sd,sd->s", va, np.conj(v))) * ds, np.real(np.conj(dp_ev) * jump_t)
        )
        m_exact = m_node[path.grid_rows].reshape(n_paths, k_steps + 1)
        m_repr = m_exact[:, :1] + _running(repr_inc)
        return MartingaleTranscript(
            times=self.spec.grid_times,
            m=m_exact,
            m_repr=m_repr,
            m_transform=_running(tr_inc),
            qv=_running(d_qv),
            qv_transform=_running(d_qv_t),
            d_qv=d_qv,
            d_qv_transform=d_qv_t,
            d_qv_cross=d_qv_c,
            repr_gap=float(np.max(np.abs(m_exact - m_repr))),
        )


def transform_context(spec: GroupProcessSpec, f: PeterWeylCoeffs):
    """Precompute the spectral data shared by every transcript of (spec, f)."""
    if f.group != spec.group:
        raise ValueError("coefficient table group mismatch")
    return _TransformContext(spec, f)


def martingale_transcript(
    path: PathRecord,
    f: PeterWeylCoeffs,
    amatrix,
    psi,
    sigma=None,
    ctx=None,
) -> MartingaleTranscript:
    """Transcript of one path started at ``sigma`` (default the identity): a chunk of one."""
    if ctx is None:
        ctx = transform_context(path.spec, f)
    if sigma is None:
        sigma = identity_element(path.spec.group)
    return ctx.transcript(path, amatrix, psi, np.asarray(sigma)[None])


# ---------------------------------------------------------------------------
# ensembles and estimators


@dataclass
class TransformEnsemble:
    """Final values over an ensemble: x = M_T (exact), y = transform at T."""

    x_final: np.ndarray
    y_final: np.ndarray


def ensemble_chunks(spec: GroupProcessSpec, ctx: _TransformContext, paths: int, seed: int, haar_start=True, haar_key=()):
    """(path indices, their simulated paths, their start points), chunk by chunk.

    Path i's start is a Haar sample from its own stream (seed, HAAR,
    *haar_key, i) unless haar_start is False, in which case all paths start
    at the identity.  Chunks are ``linalg.blocks`` of ``CHUNK_BLOCKS`` budgets at
    ``ctx.path_bytes`` a path, which counts the narrow per-node arrays only: the
    wide tables are node blocks of ``_values`` (see ``linalg.CHUNK_BLOCKS``).
    """
    key = (rngmod.HAAR, *haar_key)
    for chunk in blocks(paths, ctx.path_bytes / CHUNK_BLOCKS):
        idx = np.arange(chunk.start, chunk.stop)
        if haar_start:
            sigmas = np.array(rngmod.streams(seed, key, idx, lambda gen, _: haar_sample(spec.group, gen, 1)[0]))
        else:
            sigmas = np.array([identity_element(spec.group)] * len(idx))
        yield idx, simulate_paths(spec, idx), sigmas


def simulate_transform_ensemble(spec: GroupProcessSpec, f: PeterWeylCoeffs, amatrix, psi, paths: int) -> TransformEnsemble:
    """Simulate paths in chunks and collect their final values.

    Path i's values depend only on (spec.seed, i) and start at a Haar
    sample; see ``ensemble_chunks``.
    """
    ctx = transform_context(spec, f)
    x, y = np.zeros(paths, dtype=complex), np.zeros(paths, dtype=complex)
    for idx, path, sigmas in ensemble_chunks(spec, ctx, paths, spec.seed):
        _, x[idx], y[idx] = ctx.final_values(path, sigmas, amatrix, psi)
    return TransformEnsemble(x, y)


def empirical_burkholder(ensemble: TransformEnsemble, p: float):
    """(ratio, jackknife stderr) for |transform|_p / |M_T|_p over the ensemble."""
    num = np.abs(ensemble.y_final) ** p
    den = np.abs(ensemble.x_final) ** p
    n = len(num)
    if n < 2 or np.sum(den) == 0.0:
        raise ValueError("ensemble too small or zero denominator")
    ratio = float(np.mean(num) ** (1.0 / p) / np.mean(den) ** (1.0 / p))
    loo_num = (np.sum(num) - num) / (n - 1)
    loo_den = (np.sum(den) - den) / (n - 1)
    if np.any(loo_den == 0.0):
        raise ValueError("zero denominator in jackknife")
    loo = loo_num ** (1.0 / p) / loo_den ** (1.0 / p)
    stderr = float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))
    return ratio, stderr


@dataclass
class ProjectionEstimate:
    mc_value: float
    stderr: float
    deterministic: float


def projection_deterministic(
    f: PeterWeylCoeffs, g: PeterWeylCoeffs, amatrix, psi, spec: GroupProcessSpec
) -> complex:
    """Spectral value of the pairing functional at finite horizon (tori).

    -sum_k m(k) expm1(2 T Re alpha_k) fhat(k) ghat(-k)

    with m and alpha the central multiplier and exponent of the paired
    labels k (``central_symbols``); undefined modes contribute 0.
    """
    if spec.group == SU2:
        raise ValueError("deterministic projection values are computed on the tori")
    if f.group != spec.group or g.group != spec.group:
        raise ValueError("coefficient table group mismatch")
    pairs = [(k, g.blocks.get(tuple(-x for x in k) if isinstance(k, tuple) else -k)) for k in f.labels()]
    pairs = [(k, gb) for k, gb in pairs if gb is not None]
    if not pairs:
        return 0.0j
    pis = [get_irrep(spec.group, k) for k, _ in pairs]
    m, _, alpha = central_symbols(amatrix, psi, spec.c, spec.jumps, pis, None)
    fg = np.array([f.blocks[k][0, 0] * gb[0, 0] for k, gb in pairs])
    return complex(-np.sum(m[:, 0, 0] * np.expm1(2.0 * spec.horizon * alpha.real) * fg))


def projection_mc_estimate(
    f: PeterWeylCoeffs,
    g: PeterWeylCoeffs,
    amatrix,
    psi,
    spec: GroupProcessSpec,
    paths: int,
) -> ProjectionEstimate:
    """Haar-and-path average of transform_f(T) * g(phi_T), g synthesised at the end elements (``pw_inverse``),
    against its spectral value, which draws nothing and refuses SU(2) before any path is simulated."""
    det = projection_deterministic(f, g, amatrix, psi, spec)
    ctx = transform_context(spec, f)
    vals = np.zeros(paths, dtype=complex)
    for idx, path, sigmas in ensemble_chunks(spec, ctx, paths, spec.seed):
        _, _, y = ctx.final_values(path, sigmas, amatrix, psi)
        vals[idx] = y * pw_inverse(g, points=multiply(spec.group, sigmas, path.states[path.end_rows]))
    mc = complex(np.mean(vals))
    stderr = float(np.std(vals.real, ddof=1) / np.sqrt(paths))
    stderr_im = float(np.std(vals.imag, ddof=1) / np.sqrt(paths))
    return ProjectionEstimate(
        mc_value=float(mc.real),
        stderr=float(np.hypot(stderr, stderr_im)),
        deterministic=float(det.real),
    )


# ---------------------------------------------------------------------------
# empirical characteristic function of the path law


def empirical_char(states: np.ndarray, pi) -> tuple:
    """(mean, stderr) of pi(phi(t)) over an ensemble of final states.

    stderr is entrywise: std of the complex entries over paths divided by
    sqrt(paths).
    """
    reps = irrep_stack_batch([pi], states)[:, 0]
    mean = reps.mean(axis=0)
    n = reps.shape[0]
    var = np.var(reps.real, axis=0) + np.var(reps.imag, axis=0)
    return mean, np.sqrt(var / n)


@dataclass
class CharReport:
    """Empirical transform of the law at the horizon against both oracles."""

    label: object
    mean: np.ndarray
    stderr: np.ndarray
    alpha: complex
    scalar_oracle: np.ndarray  # e^{t alpha} I, exact only for central data
    matrix_oracle: np.ndarray  # e^{t L(pi)}, exact for any finite-activity data
    is_central: bool

    def max_sigmas(self, oracle: str = "matrix") -> float:
        """Largest entrywise |mean - oracle| in stderr units."""
        target = self.matrix_oracle if oracle == "matrix" else self.scalar_oracle
        err = np.abs(self.mean - target)
        floor = 1e-12 + np.max(self.stderr) * 1e-6
        return float(np.max(err / np.maximum(self.stderr, floor)))


def central_char_report(spec: GroupProcessSpec, pis, paths: int) -> list:
    """Empirical characteristic matrices with their two deterministic oracles.

    The scalar oracle e^{t alpha} I applies when the jump measure is
    central (flagged, not enforced); the matrix exponential of the
    generator block is exact for any finite-activity measure.
    """
    states = ensemble_final_states(spec, paths)
    t = spec.horizon
    central = spec.jumps.is_central()
    out = []
    for pi, (gen,) in zip(pis, stack_rows(pis, lambda stack: (generator_blocks(spec.c, spec.jumps, stack),))):
        mean, stderr = empirical_char(states, pi)
        alpha = complex(np.trace(gen) / pi.dim)  # the normalised trace, as in ``central_symbols``
        scalar = np.exp(t * alpha) * np.eye(pi.dim)
        matrix = expm(t * gen)
        out.append(CharReport(pi.label, mean, stderr, alpha, scalar, matrix, central))
    return out
