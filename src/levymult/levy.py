"""Levy characteristics on R^n: exponents and Bernstein functions.

A jump measure is kept in a desk-friendly form: a finite list of atoms
plus an optional truncated density with an explicit inner cutoff.
Shrinking the inner cutoff approximates infinite activity; that is an
approximation by construction, not an exact representation.

Drift convention: the drift vector is the *given* drift after small-jump
compensation over the unit ball.  Comparing against texts that compensate
differently requires translating the drift accordingly.

Every jump sum sum_q w_q (1 - cos(xi . y_q)), in ``symbol_grid`` and in
``euclid``'s one jump-form helper, is ``oneminus_cos_sums`` over a whole
array of frequencies: 2 sum_q w_q sin^2(xi . y_q / 2), exact where
1 - cos rounds to 0, with half-angle sines taken once per distinct
coordinate value on lattices (``_separable_sums``) and per frequency
elsewhere (``_direct_sums``).

Every density sum, here and in ``euclid``, is ``refined_sum`` over the
density's coarse and fine ``quadratures``, each built once per density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import PSD_TOL, NotPositiveSemidefinite, blocks, pivoted_cholesky

#: relative tolerance for agreement of the coarse and refined quadratures
REFINE_RTOL = 1e-8


class QuadratureError(RuntimeError):
    """Successive quadrature refinements disagreed beyond tolerance."""


def refined_sum(quadratures, evaluate: Callable, offset=0.0):
    """evaluate(points, weights) on the fine of a density's (coarse, fine) ``quadratures``.

    Each value is refused with ``QuadratureError`` where its coarse/fine gap
    |Re| + |Im| exceeds REFINE_RTOL (1 + |offset + fine|); ``offset`` is
    what the sum is added to in the result (zero: the sum alone sets the scale).
    """
    coarse, fine = (np.asarray(evaluate(*quad)) for quad in quadratures)
    gap = np.abs(fine.real - coarse.real) + np.abs(fine.imag - coarse.imag)
    tol = REFINE_RTOL * (1.0 + np.abs(offset + fine))
    if np.any(gap > tol):
        raise QuadratureError(f"density quadrature did not stabilise: gap up to {np.max(gap / tol):.3g} x tolerance")
    return fine


def _log_gl_nodes(inner: float, outer: float, per_decade: int):
    """Composite Gauss-Legendre nodes/weights, one log-space panel per decade.

    Per-panel rules keep both ends resolved: log spacing tracks
    stable-like profiles over many decades, while the per-decade node
    count bounds the error for oscillatory integrands (resolving
    1 - cos(xi . y) needs roughly xi * y nodes over the top decade).
    """
    x, w = np.polynomial.legendre.leggauss(int(per_decade))
    n_panels = max(1, int(np.ceil(np.log10(outer / inner))))
    edges = np.log(np.geomspace(inner, outer, n_panels + 1))
    rs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        v = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        rs.append(np.exp(v))
        ws.append(0.5 * (hi - lo) * w * np.exp(v))  # dr = r dv
    return np.concatenate(rs), np.concatenate(ws)


@dataclass(frozen=True)
class RadialDensity:
    """Density part of a measure on R^n minus the origin, truncated to inner <= |y| <= outer.

    ``profile(r, u)`` is the Lebesgue density at y = r*u for radius array r
    and unit direction u.  Densities are supported for n <= 2; higher
    dimensions must use atoms.  ``nodes`` counts radial quadrature nodes
    per decade of [inner, outer].
    """

    profile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inner: float
    outer: float
    nodes: int

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError("need 0 < inner < outer")
        if self.nodes < 8:
            raise ValueError("need at least 8 radial nodes")

    def points_weights(self, dim: int, refine: int):
        """Quadrature points (q, dim) and weights, including the density values.

        ``refine`` scales the node counts; refine=2 is the refinement pass.
        """
        r, wr = _log_gl_nodes(self.inner, self.outer, self.nodes * refine)
        if dim == 1:
            dirs = np.array([[1.0], [-1.0]])
            wdir = np.array([1.0, 1.0])
        else:
            m = max(16, 2 * self.nodes // 3) * refine
            ang = 2.0 * np.pi * np.arange(m) / m
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            wdir = np.full(m, 2.0 * np.pi / m)
        # surface measure x r^{n-1} dr
        pts = r[:, None, None] * dirs[None, :, :]
        rad = r[:, None] ** (dim - 1)
        dens = np.stack([self.profile(r, dirs[j]) for j in range(len(dirs))], axis=1)
        wgt = wr[:, None] * wdir[None, :] * rad * dens
        return pts.reshape(-1, dim), wgt.reshape(-1)


@dataclass(frozen=True, eq=False)
class LevyMeasureRn:
    """Finite-atom plus truncated-density jump measure on R^n; its atom table is read-only (``atom_points``)."""

    dim: int
    atoms: tuple = ()
    density: Optional[RadialDensity] = None

    def __post_init__(self):
        if self.density is not None and self.dim > 2:
            raise ValueError("density quadrature supports dimensions 1 and 2 only")
        pts, masses = [], []
        for point, mass in self.atoms:
            p = np.atleast_1d(np.asarray(point, dtype=float))
            if p.shape != (self.dim,):
                raise ValueError(f"atom point {point!r} is not a {self.dim}-vector")
            if not np.any(p != 0.0):
                raise ValueError("atom at the origin is not allowed")
            if not mass > 0.0:
                raise ValueError("atom mass must be positive")
            pts.append(p)
            masses.append(float(mass))
        object.__setattr__(self, "atoms", tuple(zip(pts, masses)))
        object.__setattr__(self, "atom_points", np.array(pts).reshape(len(pts), self.dim))
        object.__setattr__(self, "atom_masses", np.array(masses))
        self.atom_points.flags.writeable = self.atom_masses.flags.writeable = False

    @cached_property
    def quadratures(self):
        """Density (points (q, dim), weights) at ``nodes`` and 2 x ``nodes`` per decade; None without one."""
        if self.density is None:
            return None
        return tuple(self.density.points_weights(self.dim, refine=refine) for refine in (1, 2))


@dataclass(frozen=True, eq=False)
class LevyTriple:
    """Characteristics (drift, diffusion, jump measure) of a Levy process on R^n."""

    drift: np.ndarray
    diffusion: np.ndarray
    nu: LevyMeasureRn

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.drift, dtype=float))
        a = np.atleast_2d(np.asarray(self.diffusion, dtype=float))
        n = self.nu.dim
        if b.shape != (n,):
            raise ValueError(f"drift must be a {n}-vector")
        if a.shape != (n, n):
            raise ValueError(f"diffusion must be {n}x{n}")
        scale = 1.0 + float(np.max(np.abs(a))) if a.size else 1.0
        if np.max(np.abs(a - a.T)) > PSD_TOL * scale:
            raise ValueError("diffusion matrix is not symmetric")
        if a.size and np.min(np.linalg.eigvalsh(a)) < -PSD_TOL * scale:
            raise NotPositiveSemidefinite("diffusion matrix has a negative eigenvalue")
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "diffusion", 0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return self.nu.dim


def factor_diffusion(a) -> np.ndarray:
    """Matrix Lambda with Lambda Lambda^T = 2a, for symmetric PSD a.

    Diagonal pivoting makes rank-deficient input acceptable; the factor is
    deterministic (lower triangular up to the pivot permutation).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    scale = 1.0 + float(np.max(np.abs(a))) if a.size else 1.0
    if np.max(np.abs(a - a.T)) > PSD_TOL * scale:
        raise ValueError("diffusion matrix is not symmetric")
    lam, _, rank = pivoted_cholesky(2.0 * a)
    out = np.zeros((n, n))
    out[:, :rank] = lam
    resid = np.max(np.abs(out @ out.T - 2.0 * a)) if n else 0.0
    if resid > 1e-10 * (1.0 + float(np.max(np.abs(a)))):
        raise NotPositiveSemidefinite(f"factorisation residual {resid:.3e} too large")
    return out


def oneminus_cos_sums(xi: np.ndarray, pts: np.ndarray, *weights) -> list:
    """[sum_q w_q (1 - cos(xi . y_q))] at each row of xi, one array per weight vector.

    Taken as 2 sum_q w_q sin^2(xi . y_q / 2), complex weights as their real
    and imaginary parts.  Direct sums take a sine per frequency and node.
    The lattice route sorts each coordinate (about two sines per frequency
    and axis), then per node takes 2 (n_first + n_rest) sines and cosines
    and products worth about 1/16 sine per point of the n_first x n_rest
    grid; it runs where that costs less.
    """
    half = 0.5 * np.atleast_2d(np.asarray(xi, dtype=float))
    parts = [(w.real, w.imag) if np.iscomplexobj(w) else (w,) for w in weights]
    wmat = np.stack([col for cols in parts for col in cols], axis=1)
    factors = _lattice_factors(half, len(pts))
    if factors is None:
        sums = _direct_sums(half, pts, wmat)
    else:
        firsts, first_idx, rests, rest_idx = factors
        sums = _separable_sums(firsts, rests, pts, wmat)[:, first_idx, rest_idx].T
    split = np.split(sums, np.cumsum([len(cols) for cols in parts])[:-1], axis=1)
    return [s[:, 0] + 1j * s[:, 1] if s.shape[1] == 2 else s[:, 0] for s in split]


def _lattice_factors(half: np.ndarray, n_nodes: int):
    """(firsts, first_idx, rests, rest_idx) of the frequencies, or None where direct sums cost less."""
    n_freq, dim = half.shape
    if n_nodes <= 2 * dim:  # the sorting alone would cost more
        return None
    axes = [np.unique(col, return_inverse=True) for col in half.T]
    (firsts, first_idx), n_rest, rest_idx = axes[0], 1, 0
    for values, idx in axes[1:]:
        n_rest, rest_idx = n_rest * len(values), rest_idx * len(values) + idx
    per_node = 2 * (len(firsts) + n_rest) + len(firsts) * n_rest / 16
    if per_node * n_nodes + 2 * dim * n_freq >= n_freq * n_nodes:
        return None
    rests = np.array(np.meshgrid(*[v for v, _ in axes[1:]], indexing="ij"))
    return firsts, first_idx, rests.reshape(-1, n_rest).T, rest_idx


def _direct_sums(half: np.ndarray, pts: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """2 sum_q w_q sin^2(h . y_q) for each row h of half, shape (len(half), weights)."""
    out = np.zeros((len(half), wmat.shape[1]))
    for nodes in blocks(len(pts), 8 * max(1, len(half))):
        s = np.sin(half @ pts[nodes].T)
        out += (s * s) @ wmat[nodes]
    return 2.0 * out


def _separable_sums(firsts, rests, pts: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """2 sum_q w_q sin^2(a + b) on the grid (weight, first value, rest tuple).

    a = f y_q1 for each distinct half first coordinate f, b = r . y_q' for
    each distinct tuple r of the others; sin(a + b) = sin a cos b + cos a sin b
    makes the sum three real matrix products.  The cross term's relative
    error, eps sum w (|a| + |b|)^2 / sum w (a + b)^2, stays near eps unless xi
    is nearly orthogonal to every node, which radial densities exclude.
    """
    n_w, n_first, n_rest = wmat.shape[1], len(firsts), len(rests)
    grid = np.zeros((n_w * n_first, n_rest))
    for nodes in blocks(len(pts), 24 * max(n_w * n_first, n_rest)):
        y, w = pts[nodes], wmat[nodes]
        a, b = np.multiply.outer(firsts, y[:, 0]), rests @ y[:, 1:].T
        sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        left = np.concatenate([sa * sa, sa * ca, ca * ca], axis=1)
        right = np.concatenate([cb * cb, 2.0 * sb * cb, sb * sb], axis=1)
        weighted = np.tile(w.T, 3)[:, None, :] * left
        grid += weighted.reshape(-1, left.shape[1]) @ right.T
    return 2.0 * grid.reshape(n_w, n_first, n_rest)


def symbol_grid(triple: LevyTriple, xi: np.ndarray):
    """Real and imaginary parts of the Levy exponent on an array of frequencies.

    xi has shape (m, n); returns (re (m,), im (m,)) with
    re = -a xi.xi + int(cos(xi.y) - 1) nu(dy)         (always <= 0)
    im = b.xi + int(sin(xi.y) - xi.y 1_{|y|<=1}) nu(dy)
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a, b, nu = triple.diffusion, triple.drift, triple.nu
    re = -np.einsum("mi,ij,mj->m", xi, a, xi)
    im = xi @ b

    def jump_part(points, weights):
        small = np.sum(points * points, axis=1) <= 1.0
        out = np.empty(len(xi), dtype=complex)
        out.real = -oneminus_cos_sums(xi, points, weights)[0]
        for rows in blocks(len(xi), 8 * len(points)):
            phase = xi[rows] @ points.T
            out.imag[rows] = (np.sin(phase) - np.where(small, phase, 0.0)) @ weights
        return out

    if len(nu.atoms):
        atom = jump_part(nu.atom_points, nu.atom_masses)
        re, im = re + atom.real, im + atom.imag
    if nu.density is not None:
        # checked against the whole exponent: the gap scale is 1 + |rho|
        dens = refined_sum(nu.quadratures, jump_part, offset=re + 1j * im)
        re, im = re + dens.real, im + dens.imag
    return np.minimum(re, 0.0), im


@dataclass(frozen=True)
class PositiveDensity:
    """Truncated density on (0, infinity) for a Bernstein jump measure."""

    profile: Callable[[np.ndarray], np.ndarray]
    inner: float
    outer: float
    nodes: int

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError("need 0 < inner < outer")
        if self.nodes < 1:
            raise ValueError("need at least 1 node per decade")

    @cached_property
    def quadratures(self):
        """(nodes, weights with the density values) at ``nodes`` and 2 x ``nodes`` per decade."""
        pairs = (_log_gl_nodes(self.inner, self.outer, self.nodes * refine) for refine in (1, 2))
        return tuple((y, w * self.profile(y)) for y, w in pairs)


@dataclass(frozen=True)
class BernsteinSpec:
    """Bernstein function h(u) = c u + int (1 - e^{-u y}) lambda(dy); its atom table is read-only (``atom_y``)."""

    c: float = 0.0
    atoms: tuple = ()
    density: Optional[PositiveDensity] = None

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError("linear coefficient must be nonnegative")
        cleaned = []
        for y, mass in self.atoms:
            if not (y > 0.0 and mass > 0.0):
                raise ValueError("Bernstein atoms need y > 0 and mass > 0")
            cleaned.append((float(y), float(mass)))
        object.__setattr__(self, "atoms", tuple(cleaned))
        object.__setattr__(self, "atom_y", np.array([y for y, _ in cleaned]))
        object.__setattr__(self, "atom_masses", np.array([m for _, m in cleaned]))
        self.atom_y.flags.writeable = self.atom_masses.flags.writeable = False


def bernstein_eval(spec: BernsteinSpec, u):
    """h(u) for scalar or array u > 0."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    uu = np.atleast_1d(u)
    if np.any(uu <= 0.0):
        raise ValueError("Bernstein functions are evaluated at u > 0")
    out = spec.c * uu
    if spec.atoms:
        out = out + (-np.expm1(-np.outer(uu, spec.atom_y))) @ spec.atom_masses
    if spec.density is not None:
        out = out + refined_sum(spec.density.quadratures, lambda y, w: (-np.expm1(-np.outer(uu, y))) @ w)
    return float(out[0]) if scalar else out


def bernstein_atoms(spec: BernsteinSpec) -> BernsteinSpec:
    """Discretise the density part into atoms at its quadrature nodes.

    The returned spec has the same linear coefficient and is exactly the
    Laplace exponent of the compound-Poisson subordinator that the
    simulator draws, so it is the oracle to compare simulations against.
    """
    if spec.density is None:
        return spec
    y, w = spec.density.quadratures[0]
    keep = w > 0.0
    extra = tuple((float(yy), float(ww)) for yy, ww in zip(y[keep], w[keep]))
    return BernsteinSpec(c=spec.c, atoms=spec.atoms + extra, density=None)
