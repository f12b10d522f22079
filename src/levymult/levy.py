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
1 - cos rounds to 0.  Direct sums (``_direct_sums``) take a sine per
frequency and node.  On lattices (``_separable_sums``) a half frequency
h = (f, r) is read on coordinate magnitudes: with a = |f| y_1, b = [r] . y'
for the class [r] = s(r) r of r up to its sign s(r) = +-1,
sin^2(h . y) = E + 2 sgn(f) s(r) C, where E = sin^2 a cos^2 b + cos^2 a sin^2 b
and C = sin a cos a sin b cos b.  So per node the sines and cosines are
taken once per distinct |f| and per class (33 + 33 on the nonzero 64^2
lattice), and E and C are real products of rank 2 and 1 on that grid
(33 x 33), costed at about 1/16 sine per grid point; the route runs
where it costs less than direct sums.  The cross term's relative error is
eps sum w (|a| + |b|)^2 / sum w (a + b)^2, near eps for radial densities.

Every density sum, here and in ``euclid``, is ``refined_sum`` over the density's coarse
and fine ``quadratures``, each built once per density, refined at the sum's own scale.
Every diffusion passes the one PSD test, ``factor_diffusion``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import NotPositiveSemidefinite, blocks, gauss_legendre, pivoted_cholesky, symmetric_scale

#: relative tolerance for agreement of the coarse and refined quadratures
REFINE_RTOL = 1e-8


class QuadratureError(RuntimeError):
    """Successive quadrature refinements disagreed beyond tolerance."""


def refined_sum(quadratures, evaluate: Callable):
    """evaluate(points, weights) on the fine of a density's (coarse, fine) ``quadratures``.

    Each value is refused with ``QuadratureError`` where its coarse/fine gap
    |Re| + |Im| exceeds REFINE_RTOL (1 + |fine|): the sum alone sets the scale,
    whatever drift, diffusion or atoms it is later added to.
    """
    coarse, fine = (np.asarray(evaluate(*quad)) for quad in quadratures)
    gap = np.abs(fine.real - coarse.real) + np.abs(fine.imag - coarse.imag)
    tol = REFINE_RTOL * (1.0 + np.abs(fine))
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
    x, w = gauss_legendre(int(per_decade))
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
    """Characteristics (drift, diffusion, jump measure) of a Levy process on R^n.

    The drift must be finite and the diffusion must pass ``factor_diffusion``, the one PSD test; its symmetric part
    is kept."""

    drift: np.ndarray
    diffusion: np.ndarray
    nu: LevyMeasureRn

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.drift, dtype=float))
        a = np.atleast_2d(np.asarray(self.diffusion, dtype=float))
        n = self.nu.dim
        if b.shape != (n,):
            raise ValueError(f"drift must be a {n}-vector")
        if not np.all(np.isfinite(b)):
            raise ValueError(f"drift must be finite, got {b.tolist()}")
        if a.shape != (n, n):
            raise ValueError(f"diffusion must be {n}x{n}")
        factor_diffusion(a)
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "diffusion", 0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return self.nu.dim


def factor_diffusion(a) -> np.ndarray:
    """Matrix Lambda with Lambda Lambda^T = 2a, for symmetric PSD a: the one PSD test of a diffusion.

    a is refused with a ValueError unless finite, then (``symmetric_scale``) unless symmetric to
    ``linalg.PSD_TOL`` (1 + max|a|), and with ``NotPositiveSemidefinite`` where the pivoted Cholesky of 2a
    leaves a block beyond PSD_TOL times its scale (``pivoted_cholesky``) or the residual
    |Lambda Lambda^T - 2a| exceeds 1e-10 (1 + max|a|).  Diagonal pivoting makes rank-deficient input
    acceptable; the factor is deterministic (lower triangular up to the pivot permutation).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError(f"diffusion must be finite, got {a.tolist()}")
    n = a.shape[0]
    scale = symmetric_scale(a)
    lam, _, rank = pivoted_cholesky(2.0 * a)
    out = np.zeros((n, n))
    out[:, :rank] = lam
    resid = np.max(np.abs(out @ out.T - 2.0 * a)) if n else 0.0
    if resid > 1e-10 * scale:
        raise NotPositiveSemidefinite(f"factorisation residual {resid:.3e} too large")
    return out


def oneminus_cos_sums(xi: np.ndarray, pts: np.ndarray, *weights) -> list:
    """[sum_q w_q (1 - cos(xi . y_q))] at each row of xi, one array per weight vector.

    Taken as 2 sum_q w_q sin^2(xi . y_q / 2), complex weights as their real
    and imaginary parts.  Direct sums take a sine per frequency and node.
    The lattice route sorts the frequencies (about two sines per frequency
    and axis) into n_mag distinct first-coordinate magnitudes |f| and
    n_class classes [r] of the other coordinates up to sign, then per node
    takes 2 (n_mag + n_class) sines and cosines and products worth about
    1/16 sine per point of the n_mag x n_class grid, where
    sin^2(h . y) = E + 2 sgn(f) s(r) C (``_separable_sums``, which states the
    cross term's error); it runs where that costs less.  On the nonzero
    64^2 lattice n_mag = n_class = 33.
    """
    half = 0.5 * np.atleast_2d(np.asarray(xi, dtype=float))
    parts = [(w.real, w.imag) if np.iscomplexobj(w) else (w,) for w in weights]
    wmat = np.stack([col for cols in parts for col in cols], axis=1)
    tables = _lattice_factors(half, len(pts))
    sums = _direct_sums(half, pts, wmat) if tables is None else _separable_sums(tables, pts, wmat)
    split = np.split(sums, np.cumsum([len(cols) for cols in parts])[:-1], axis=1)
    return [s[:, 0] + 1j * s[:, 1] if s.shape[1] == 2 else s[:, 0] for s in split]


def _lattice_factors(half: np.ndarray, n_nodes: int):
    """``_magnitude_tables(half)``, or None where direct sums cost less."""
    n_freq, dim = half.shape
    if n_nodes <= 2 * dim:  # the sorting alone would cost more
        return None
    tables = _magnitude_tables(half)
    n_mag, n_class = len(tables[0]), len(tables[2])
    per_node = 2 * (n_mag + n_class) + n_mag * n_class / 16
    if per_node * n_nodes + 2 * dim * n_freq >= n_freq * n_nodes:
        return None
    return tables


def _magnitude_tables(half: np.ndarray):
    """(mags, mag_idx, classes, class_idx, signs) of the rows h = (f, r) of half.

    mags are the distinct |f|, classes the distinct [r] = s(r) r, where s(r) = +-1
    is the sign of r's first nonzero coordinate (+1 at r = 0); row i has
    |f| = mags[mag_idx[i]], [r] = classes[class_idx[i]] and signs[i] = sgn(f) s(r).
    """
    first, rest = half[:, 0], half[:, 1:]
    lead = np.zeros(len(half))
    for col in rest.T[::-1]:
        lead = np.where(col != 0.0, col, lead)
    s_rest = np.where(lead < 0.0, -1.0, 1.0)
    canon = rest * s_rest[:, None] + 0.0  # + 0.0: -0.0 is 0.0
    # the rows of canon ranked one axis at a time by 1-d sorts, ten times faster than np.unique(axis=0)
    class_idx = np.zeros(len(half), dtype=np.intp)
    for col in canon.T:
        values, idx = np.unique(col, return_inverse=True)
        class_idx = np.unique(class_idx * len(values) + idx, return_inverse=True)[1]
    classes = np.empty((class_idx.max(initial=-1) + 1, rest.shape[1]))
    classes[class_idx] = canon
    mags, mag_idx = np.unique(np.abs(first), return_inverse=True)
    return mags, mag_idx, classes, class_idx, np.sign(first) * s_rest


def _direct_sums(half: np.ndarray, pts: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """2 sum_q w_q sin^2(h . y_q) for each row h of half, shape (len(half), weights).

    A node block fits ``BLOCK_BYTES`` at 8 bytes a value of its three tables (phases, sines, squares)."""
    out = np.zeros((len(half), wmat.shape[1]))
    for nodes in blocks(len(pts), 3 * 8 * max(1, len(half))):
        s = np.sin(half @ pts[nodes].T)
        out += (s * s) @ wmat[nodes]
    return 2.0 * out


def _separable_sums(tables, pts: np.ndarray, wmat: np.ndarray) -> np.ndarray:
    """2 sum_q w_q sin^2(h . y_q) at each row h = (f, r) of the frequencies in ``_magnitude_tables``, (rows, weights).

    With a = |f| y_q1 and b = [r] . y_q', h . y_q = sgn(f) a + s(r) b, and sin odd
    and cos even give sin^2(h . y_q) = E + 2 sgn(f) s(r) C, where
    E = sin^2 a cos^2 b + cos^2 a sin^2 b and C = sin a cos a sin b cos b:
    summed over the nodes, one real product of rank 2 and one of rank 1 on the
    n_mag x n_class grid, gathered to the rows with their sign products.  A row
    and its negative read the same grid points with the same sign product, so
    the sums are exactly even in h.  The cross term's relative error,
    eps sum w (|a| + |b|)^2 / sum w (a + b)^2, stays near eps unless xi is
    nearly orthogonal to every node, which radial densities exclude.  A node block fits ``BLOCK_BYTES``
    at 8 bytes for each per-node value: per magnitude and per class the angle, its sine and cosine,
    their squares and the two joined, and per magnitude the 2 n_w weighted rows.
    """
    mags, mag_idx, classes, class_idx, signs = tables
    n_w, n_mag, n_class = wmat.shape[1], len(mags), len(classes)
    even, cross = np.zeros((n_w * n_mag, n_class)), np.zeros((n_w * n_mag, n_class))
    for nodes in blocks(len(pts), 8 * ((7 + 2 * n_w) * n_mag + 7 * n_class)):
        y, w = pts[nodes], wmat[nodes]
        a, b = np.multiply.outer(mags, y[:, 0]), classes @ y[:, 1:].T
        sa, ca, sb, cb = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        left = np.tile(w.T, 2)[:, None, :] * np.concatenate([sa * sa, ca * ca], axis=1)
        even += left.reshape(n_w * n_mag, -1) @ np.concatenate([cb * cb, sb * sb], axis=1).T
        cross += (w.T[:, None, :] * (sa * ca)).reshape(n_w * n_mag, -1) @ (sb * cb).T
    at = (slice(None), mag_idx, class_idx)
    return (2.0 * even.reshape(n_w, n_mag, n_class)[at] + 4.0 * signs * cross.reshape(n_w, n_mag, n_class)[at]).T


def symbol_grid(triple: LevyTriple, xi: np.ndarray):
    """Real and imaginary parts of the Levy exponent on an array of frequencies.

    xi has shape (m, n); returns (re (m,), im (m,)) with
    re = -a xi.xi + int(cos(xi.y) - 1) nu(dy)         (always <= 0)
    im = b.xi + int(sin(xi.y) - xi.y 1_{|y|<=1}) nu(dy)

    The density's sum is ``refined_sum``'s, at its own scale whatever the drift and diffusion add.
    Row blocks of sines fit ``BLOCK_BYTES`` at 8 bytes a value of three tables (phases, sines, the last block's).
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a, b, nu = triple.diffusion, triple.drift, triple.nu
    re = -np.einsum("mi,ij,mj->m", xi, a, xi)
    im = xi @ b

    def jump_part(points, weights):
        large = np.sum(points * points, axis=1) > 1.0
        out = np.empty(len(xi), dtype=complex)
        out.real = -oneminus_cos_sums(xi, points, weights)[0]
        for rows in blocks(len(xi), 3 * 8 * len(points)):
            phase = xi[rows] @ points.T
            sines = np.sin(phase)
            phase[:, large] = 0.0  # compensated over the unit ball only
            out.imag[rows] = np.subtract(sines, phase, out=sines) @ weights
        return out

    if len(nu.atoms):
        atom = jump_part(nu.atom_points, nu.atom_masses)
        re, im = re + atom.real, im + atom.imag
    if nu.density is not None:
        dens = refined_sum(nu.quadratures, jump_part)
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
