"""Martingale transcripts of simulated paths and their Monte Carlo checks.

For a band-limited f the projected value process M(t) = P_{T-t} f at the
moving point is evaluated exactly (the semigroup acts in closed form on
coefficients).  The transform by a pair (A, psi) is accumulated from the
stochastic-integral form: left-point Brownian sums, exact jump terms at
exact event times, and the jump compensator integrated in closed form in
time (left-point in the state) on every group.  The transcript also
carries the stochastic-integral representation of M itself (the
transform by (I, 1) plus the initial value); its gap to the exact M is
the discretisation bias and is reported, not assumed zero.

One engine serves T^1, T^2 and SU(2): the coefficient blocks of f are
grouped into stacks of equal-dimension irreps (a torus is one stack of
1x1 blocks, each SU(2) spin its own stack), and only the evaluation of
irreps at group elements and left translation are group specific.

Quadratic variations are accumulated termwise from the same increments,
so domination by the transform bounds holds path by path in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .groups import (
    SU2,
    PeterWeylCoeffs,
    get_irrep,
    group_dim,
    haar_sample,
    identity_element,
    irrep_evaluate_batch,
    irrep_stack_batch,
    multiply,
)
from .linalg import expm
from .simulate import GroupProcessSpec, PathRecord, ensemble_final_states, simulate_path
from .symbols import central_alpha, generator_blocks, generator_matrix, psi_values

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
    """Sampled value process, its transform, and their quadratic variations."""

    times: np.ndarray
    m: np.ndarray  # exact P_{T-t} f along the path
    m_repr: np.ndarray  # stochastic-integral representation of m
    m_transform: np.ndarray
    qv: np.ndarray
    qv_transform: np.ndarray
    qv_cross: np.ndarray
    d_qv: np.ndarray
    d_qv_transform: np.ndarray
    d_qv_cross: np.ndarray
    sigma: object
    repr_gap: float


def check_differential_subordination(tr: MartingaleTranscript, bounds=None) -> float:
    """Largest increment violation; <= 0 means domination holds pathwise.

    Default: max_k (d[Y]_k - d[X]_k), nonpositive when the transform pair
    is bounded by one.  With bounds=(b, B): the non-symmetric form, the
    increments of [((B-b)/2) X] - [Y - ((b+B)/2) X].
    """
    if bounds is None:
        return float(np.max(tr.d_qv_transform - tr.d_qv, initial=-np.inf))
    b, bb = bounds
    half_w = (bb - b) / 2.0
    mid = (bb + b) / 2.0
    dom = half_w**2 * tr.d_qv - (tr.d_qv_transform - 2.0 * mid * tr.d_qv_cross + mid**2 * tr.d_qv)
    return float(np.max(-dom, initial=-np.inf))


# ---------------------------------------------------------------------------
# transform context (precomputed spectral data shared across an ensemble)


def _rows(decay: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Rows decay (m, L, F) (x) representation (m, L, d, d), flattened against ``h``."""
    rows = decay[..., None, None] * rep[:, :, None]
    return rows.reshape(len(rows), math.prod(rows.shape[1:]))


def _running(increments: np.ndarray) -> np.ndarray:
    """Running sums of per-step increments, starting from 0 at time 0."""
    return np.concatenate([[0.0], np.cumsum(increments)])


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
        drift = np.einsum("i,lixy->lxy", np.asarray(spec.drift), gens)
        self.lmat = drift + generator_blocks(spec.c, spec.jumps, irreps)
        taus = [tau for tau, _ in spec.jumps.atoms]
        if taus:
            jumps = irrep_stack_batch(irreps, np.array(taus)).transpose(1, 0, 2, 3) - eye
        else:
            jumps = np.zeros((n_blocks, 0, dim, dim))
        ops = np.concatenate([np.broadcast_to(eye, (n_blocks, 1, dim, dim)), gens, jumps], axis=1)
        w, p = np.linalg.eig(self.lmat)
        self.eig = bool(np.all(np.linalg.cond(p) < EIG_COND_MAX))
        if self.eig:
            self.w = w
            pinv = np.linalg.inv(p)
        else:
            p = pinv = np.broadcast_to(eye, self.lmat.shape)
        sub = "lbe,lqzb->lbezq" if self.eig else "lbe,lqzx->lxbezq"
        self.h = (dim * np.einsum(sub, pinv @ fblocks, ops @ p[:, None])).reshape(-1, ops.shape[1])
        # d_pi tr(F pi(g)) = fvec . pi(g), the value at the horizon
        self.fvec = (dim * fblocks.transpose(0, 2, 1)).reshape(-1)
        # grid nodes and whole grid steps are shared by every path; only
        # event nodes and the segments they split vary
        self.grid_decay = self.decay(spec.horizon - spec.grid_times)
        lengths, step = np.unique(np.diff(spec.grid_times), return_inverse=True)
        self.grid_phi = self.step_factor(lengths)[step]

    def decay(self, s: np.ndarray) -> np.ndarray:
        """Decay rows of e^{sL} at the remaining times s."""
        if self.eig:
            return np.exp(s[:, None, None] * self.w)
        n_blocks, dim = self.lmat.shape[:2]
        return np.array([expm(t * lm) for t in s for lm in self.lmat]).reshape(len(s), n_blocks, dim * dim)

    def step_factor(self, ds: np.ndarray) -> np.ndarray:
        """int_0^{ds} e^{vL} dv for each segment length: decay-like rows, or matrices."""
        if self.eig:
            w = self.w
            wsafe = np.where(w == 0.0, 1.0, w)
            return np.where(w != 0.0, _expm1c(ds[:, None, None] * w) / wsafe, ds[:, None, None])
        # read off the exponential of the augmented matrix [[L, I], [0, 0]]
        n_blocks, dim = self.lmat.shape[:2]
        aug = np.zeros((n_blocks, 2 * dim, 2 * dim), dtype=complex)
        aug[:, :dim, :dim] = self.lmat
        aug[:, :dim, dim:] = np.eye(dim)
        phi = [expm(h * a)[:dim, dim:] for h in ds for a in aug]
        return np.array(phi).reshape(len(ds), n_blocks, dim, dim)

    def decay_integral(self, decay: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Rows of int e^{(T-u)L} du over segment k, e^{(T - t_{k+1})L} phi_k."""
        if self.eig:
            return decay[1:] * phi
        end = decay[1:].reshape(phi.shape)
        return (end @ phi).reshape(len(phi), len(self.irreps), -1)


class _TransformContext:
    """The irrep stacks of f under one process spec; see ``_IrrepStack``.

    A torus has one stack of 1x1 blocks, SU(2) one stack per spin.
    """

    def __init__(self, spec: GroupProcessSpec, f: PeterWeylCoeffs):
        self.spec = spec
        self.dim = group_dim(spec.group)
        self.masses = np.array([m for _, m in spec.jumps.atoms], dtype=float)
        by_dim = {}
        for label in f.labels():
            pi = get_irrep(spec.group, label)
            by_dim.setdefault(pi.dim, []).append((pi, f.blocks[label]))
        self.stacks = [
            _IrrepStack(spec, [pi for pi, _ in blocks], np.array([fb for _, fb in blocks], dtype=complex))
            for blocks in by_dim.values()
        ]

    def final_value(self, path: PathRecord, sigma) -> complex:
        g = multiply(self.spec.group, sigma, path.states[-1])[None]
        return complex(sum(irrep_stack_batch(st.irreps, g).reshape(-1) @ st.fvec for st in self.stacks))

    def transcript(self, path: PathRecord, amatrix, psi, sigma) -> MartingaleTranscript:
        spec = self.spec
        grid = spec.grid_times
        n_steps = spec.n_steps
        n = self.dim
        n_atoms = len(self.masses)
        times = path.times
        ds = np.diff(times)
        grid_rows = path.grid_rows
        ev_rows = np.flatnonzero(path.kinds == 1)
        marks = path.marks[ev_rows]
        n_nodes, n_events = len(times), len(ev_rows)
        seg_steps = np.clip(np.searchsorted(grid, times[:-1], side="right") - 1, 0, n_steps - 1)
        # a jump exactly at a grid time is processed after the diffusion
        # substep, i.e. it opens the following step
        ev_steps = np.clip(np.searchsorted(grid, times[ev_rows], side="right") - 1, 0, n_steps - 1)
        split = np.flatnonzero((path.kinds[:-1] == 1) | (path.kinds[1:] == 1))  # not whole grid steps
        # rows for the nodes, the pre-event states and (compensator) the segments
        elements = multiply(spec.group, sigma, np.concatenate([path.states, path.prestates[ev_rows]]))
        vals = 0.0
        for st in self.stacks:
            decay = np.empty((n_nodes,) + st.grid_decay.shape[1:], dtype=complex)
            decay[grid_rows] = st.grid_decay
            decay[ev_rows] = st.decay(spec.horizon - times[ev_rows])
            rep = irrep_stack_batch(st.irreps, elements)
            decays, reps = [decay, decay[ev_rows]], [rep]
            if n_atoms:
                phi = st.grid_phi[seg_steps]
                phi[split] = st.step_factor(ds[split])
                decays.append(st.decay_integral(decay, phi))
                reps.append(rep[: n_nodes - 1])
            vals = vals + _rows(np.concatenate(decays), np.concatenate(reps)) @ st.h
        m_node = vals[:n_nodes, 0]
        v = np.sqrt(2.0 * spec.c) * vals[:n_nodes, 1 : 1 + n]
        dp_ev = vals[n_nodes + np.arange(n_events), 1 + n + marks]
        comp_atom = vals[n_nodes + n_events :, 1 + n :]

        def accumulate(a_use, psi_use):
            va = v @ np.asarray(a_use, dtype=complex).T
            dm_c = np.einsum("sd,sd->s", va[:-1], path.db)
            dqv = np.sum(np.abs(v[:-1]) ** 2, axis=1) * ds
            dqv_t = np.sum(np.abs(va[:-1]) ** 2, axis=1) * ds
            dqv_x = np.real(np.einsum("sd,sd->s", va[:-1], np.conj(v[:-1]))) * ds
            inc = np.zeros(n_steps, dtype=complex)
            d_qv = np.zeros(n_steps)
            d_qv_t = np.zeros(n_steps)
            d_qv_c = np.zeros(n_steps)
            np.add.at(inc, seg_steps, dm_c)
            np.add.at(d_qv, seg_steps, dqv)
            np.add.at(d_qv_t, seg_steps, dqv_t)
            np.add.at(d_qv_c, seg_steps, dqv_x)
            if n_atoms:
                psi_vals = psi_values(psi_use, n_atoms)
                comp = comp_atom @ (self.masses * psi_vals)
                np.add.at(inc, seg_steps, -comp)
                jump_t = psi_vals[marks] * dp_ev
                np.add.at(inc, ev_steps, jump_t)
                np.add.at(d_qv, ev_steps, np.abs(dp_ev) ** 2)
                np.add.at(d_qv_t, ev_steps, np.abs(jump_t) ** 2)
                np.add.at(d_qv_c, ev_steps, np.real(np.conj(dp_ev) * jump_t))
            return inc, d_qv, d_qv_t, d_qv_c

        repr_inc, d_qv, _, _ = accumulate(np.eye(n), 1.0)
        a_use = np.zeros((n, n)) if amatrix is None else np.atleast_2d(amatrix)
        tr_inc, _, d_qv_t, d_qv_c = accumulate(a_use, psi)

        m_exact = m_node[grid_rows]
        m_repr = m_exact[0] + _running(repr_inc)
        return MartingaleTranscript(
            times=grid,
            m=m_exact,
            m_repr=m_repr,
            m_transform=_running(tr_inc),
            qv=_running(d_qv),
            qv_transform=_running(d_qv_t),
            qv_cross=_running(d_qv_c),
            d_qv=d_qv,
            d_qv_transform=d_qv_t,
            d_qv_cross=d_qv_c,
            sigma=np.asarray(sigma),
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
    """Transcript of one path: exact M, its representation, transform, QVs."""
    if ctx is None:
        ctx = transform_context(path.spec, f)
    if sigma is None:
        sigma = identity_element(path.spec.group)
    return ctx.transcript(path, amatrix, psi, sigma)


# ---------------------------------------------------------------------------
# ensembles and estimators


@dataclass
class TransformEnsemble:
    """Final values over an ensemble: x = M_T (exact), y = transform at T."""

    x_final: np.ndarray
    y_final: np.ndarray
    m_initial: np.ndarray
    transcripts: Optional[list] = None


def simulate_transform_ensemble(
    spec: GroupProcessSpec,
    f: PeterWeylCoeffs,
    amatrix,
    psi,
    paths: int,
    seed: Optional[int] = None,
    haar_start: bool = True,
    keep_transcripts: bool = False,
) -> TransformEnsemble:
    """Simulate paths, transcribe them, and collect the final values.

    Starting points are Haar samples (their own stream per path) unless
    haar_start is False, in which case all paths start at the identity.
    """
    seed = spec.seed if seed is None else seed
    ctx = transform_context(spec, f)
    x = np.zeros(paths, dtype=complex)
    y = np.zeros(paths, dtype=complex)
    m0 = np.zeros(paths, dtype=complex)
    kept = [] if keep_transcripts else None
    for i in range(paths):
        path = simulate_path(spec, i)
        if haar_start:
            sigma = haar_sample(spec.group, rngmod.stream(seed, rngmod.HAAR, i), 1)[0]
        else:
            sigma = identity_element(spec.group)
        tr = ctx.transcript(path, amatrix, psi, sigma)
        x[i] = tr.m[-1]
        y[i] = tr.m_transform[-1]
        m0[i] = tr.m[0]
        if kept is not None:
            kept.append(tr)
    return TransformEnsemble(x, y, m0, kept)


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
    paths: int


def projection_deterministic(
    f: PeterWeylCoeffs, g: PeterWeylCoeffs, amatrix, psi, spec: GroupProcessSpec
) -> complex:
    """Spectral value of the pairing functional at finite horizon (tori).

    sum_k [2c k.Ak + 2 sum_a mass_a psi_a (1 - cos k.tau_a)]
          * int_0^T e^{2 s Re alpha_k} ds * fhat(k) ghat(-k)
    """
    if spec.group == SU2:
        raise ValueError("deterministic projection values are computed on the tori")
    # the tori: one stack of 1x1 blocks, alpha_k = L(k), label k = frequency
    (stack,) = transform_context(spec, f).stacks
    d = group_dim(spec.group)
    a_use = np.zeros((d, d)) if amatrix is None else np.atleast_2d(amatrix)
    psi_vals = psi_values(psi, len(spec.jumps.atoms))
    total = 0.0 + 0.0j
    for pi, fk, al in zip(stack.irreps, stack.fvec, stack.lmat[:, 0, 0]):
        kvec = np.atleast_1d(np.asarray(pi.label, dtype=float))
        gb = g.blocks.get(tuple(-x for x in pi.label) if isinstance(pi.label, tuple) else -pi.label)
        if gb is None or fk == 0.0:
            continue
        quad = 2.0 * spec.c * complex(kvec @ (a_use @ kvec))
        jump = 0.0 + 0.0j
        for (tau, mass), pv in zip(spec.jumps.atoms, psi_vals):
            jump += 2.0 * mass * pv * (1.0 - np.cos(float(kvec @ tau)))
        re2 = 2.0 * float(np.real(al))
        if re2 == 0.0:
            weight = spec.horizon
        else:
            weight = float(np.expm1(re2 * spec.horizon) / re2)
        total += (quad + jump) * weight * fk * complex(gb[0, 0])
    return complex(total)


def projection_mc_estimate(
    f: PeterWeylCoeffs,
    g: PeterWeylCoeffs,
    amatrix,
    psi,
    spec: GroupProcessSpec,
    paths: int,
    seed: Optional[int] = None,
) -> ProjectionEstimate:
    """Haar-and-path average of transform_f(T) * M_g(T) against its spectral value."""
    seed = spec.seed if seed is None else seed
    ctx_f = transform_context(spec, f)
    ctx_g = transform_context(spec, g)
    vals = np.zeros(paths, dtype=complex)
    for i in range(paths):
        path = simulate_path(spec, i)
        sigma = haar_sample(spec.group, rngmod.stream(seed, rngmod.HAAR, i), 1)[0]
        tr = ctx_f.transcript(path, amatrix, psi, sigma)
        vals[i] = tr.m_transform[-1] * ctx_g.final_value(path, sigma)
    det = projection_deterministic(f, g, amatrix, psi, spec)
    mc = complex(np.mean(vals))
    stderr = float(np.std(vals.real, ddof=1) / np.sqrt(paths))
    stderr_im = float(np.std(vals.imag, ddof=1) / np.sqrt(paths))
    return ProjectionEstimate(
        mc_value=float(mc.real),
        stderr=float(np.hypot(stderr, stderr_im)),
        deterministic=float(det.real),
        paths=paths,
    )


# ---------------------------------------------------------------------------
# empirical characteristic function of the path law


def empirical_char(states: np.ndarray, pi) -> tuple:
    """(mean, stderr) of pi(phi(t)) over an ensemble of final states.

    stderr is entrywise: std of the complex entries over paths divided by
    sqrt(paths).
    """
    reps = irrep_evaluate_batch(pi, states)
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
    for pi in pis:
        mean, stderr = empirical_char(states, pi)
        alpha = central_alpha(spec.c, spec.jumps, pi)
        scalar = np.exp(t * alpha) * np.eye(pi.dim)
        matrix = expm(t * generator_matrix(spec.c, spec.jumps, pi))
        out.append(CharReport(pi.label, mean, stderr, alpha, scalar, matrix, central))
    return out
