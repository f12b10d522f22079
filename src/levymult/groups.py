"""Unitary duals, group elements, and Peter-Weyl transforms for T^1, T^2, SU(2).

Conventions fixed here and relied on everywhere else:

* T^1, T^2 elements are angle vectors theta (shape (1,) and (2,)), with
  characters exp(i k . theta) and basis fields d/d theta_i.
* SU(2) elements are 2x2 special-unitary matrices.  The metric is chosen
  so that X_i <-> (i/2) sigma_i is an orthonormal basis of the Lie
  algebra; the derived representation of spin j is d pi(X_i) = i J_i with
  the standard angular-momentum matrices, and the Casimir eigenvalue is
  j (j + 1).
* Fourier coefficients are fhat(pi) = int f(s) pi(s)^* ds against the
  normalised Haar measure, inverted by f(s) = sum d_pi tr(fhat(pi) pi(s)).
  A left-invariant field X acts on coefficients by left multiplication
  with d pi(X).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

T1 = "t1"
T2 = "t2"
SU2 = "su2"
GROUPS = (T1, T2, SU2)

#: residual allowed when checking that sum_i dpi(X_i)^2 is scalar
CASIMIR_TOL = 1e-10

Label = Union[int, tuple, float]


def group_dim(group: str) -> int:
    """Dimension of the Lie algebra (number of basis fields X_i)."""
    return {T1: 1, T2: 2, SU2: 3}[group]


# ---------------------------------------------------------------------------
# elements


def identity_element(group: str):
    if group == T1:
        return np.zeros(1)
    if group == T2:
        return np.zeros(2)
    if group == SU2:
        return np.eye(2, dtype=complex)
    raise ValueError(f"unknown group {group!r}")


def multiply(group: str, g, h):
    if group in (T1, T2):
        return np.asarray(g) + np.asarray(h)
    return su2_product(g, h)


def su2_product(a, b) -> np.ndarray:
    """a @ b for (stacks of) 2x2 matrices, entry by entry.

    On stacks this is several times faster than matmul, which makes one
    BLAS call per 2x2 product.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def su2_exp(v) -> np.ndarray:
    """exp(sum v_k X_k) with X_k = (i/2) sigma_k, in closed form."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    if theta == 0.0:
        return np.eye(2, dtype=complex)
    axis = v / theta
    sig = axis[0] * _PAULI[0] + axis[1] * _PAULI[1] + axis[2] * _PAULI[2]
    return np.cos(theta / 2.0) * np.eye(2) + 1j * np.sin(theta / 2.0) * sig


def su2_exp_batch(v: np.ndarray) -> np.ndarray:
    """Vectorised su2_exp for v of shape (m, 3)."""
    v = np.asarray(v, dtype=float)
    theta = np.sqrt(np.einsum("ij,ij->i", v, v))
    half = 0.5 * theta
    # sin(theta/2) times the unit axis; zero, not undefined, at theta = 0
    sv = v * (np.sin(half) / np.where(theta > 0.0, theta, 1.0))[:, None]
    out = np.empty((len(v), 2, 2), dtype=complex)
    re, im = out.real, out.imag
    re[:, 0, 0] = re[:, 1, 1] = np.cos(half)
    im[:, 0, 0], im[:, 1, 1] = sv[:, 2], -sv[:, 2]
    re[:, 0, 1], re[:, 1, 0] = sv[:, 1], -sv[:, 1]
    im[:, 0, 1] = im[:, 1, 0] = sv[:, 0]
    return out


def su2_renormalise(g: np.ndarray):
    """Project near-unitary 2x2 matrices back to SU(2) via their quaternion.

    Returns (projected, residual) where residual is the largest correction.
    """
    g = np.asarray(g, dtype=complex)
    # Frobenius projection onto the quaternion basis {I, i s1, i s2, i s3}
    wr = (g[..., 0, 0] + g[..., 1, 1]).real / 2.0
    zr = (g[..., 0, 0] - g[..., 1, 1]).imag / 2.0
    xr = (g[..., 0, 1] + g[..., 1, 0]).imag / 2.0
    yr = (g[..., 0, 1] - g[..., 1, 0]).real / 2.0
    norm = np.sqrt(wr**2 + xr**2 + yr**2 + zr**2)
    out = np.zeros_like(g)
    out[..., 0, 0] = (wr + 1j * zr) / norm
    out[..., 1, 1] = (wr - 1j * zr) / norm
    out[..., 0, 1] = (1j * xr + yr) / norm
    out[..., 1, 0] = (1j * xr - yr) / norm
    residual = float(np.max(np.abs(out - g))) if g.size else 0.0
    return out, residual


def haar_sample(group: str, rng: np.random.Generator, size: int):
    """size Haar-uniform elements; angles (size, d) or matrices (size, 2, 2)."""
    if group in (T1, T2):
        return rng.uniform(0.0, 2.0 * np.pi, size=(size, group_dim(group)))
    q = rng.standard_normal(size=(size, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    out = np.zeros((size, 2, 2), dtype=complex)
    out[:, 0, 0] = q[:, 0] + 1j * q[:, 3]
    out[:, 1, 1] = q[:, 0] - 1j * q[:, 3]
    out[:, 0, 1] = 1j * q[:, 1] + q[:, 2]
    out[:, 1, 0] = 1j * q[:, 1] - q[:, 2]
    return out


# ---------------------------------------------------------------------------
# irreducible representations


@dataclass(frozen=True)
class Irrep:
    """One point of the unitary dual: label, dimension, Casimir, generators."""

    group: str
    label: Label
    dim: int
    casimir: float
    generators: tuple

    def __repr__(self):
        return f"Irrep({self.group}, {self.label}, dim={self.dim}, casimir={self.casimir})"


@lru_cache(maxsize=None)
def _angular_momentum(twice_j: int):
    """Standard (J1, J2, J3) for spin j = twice_j / 2, basis m = j..-j."""
    j = twice_j / 2.0
    d = twice_j + 1
    m = j - np.arange(d)
    j3 = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for a in range(1, d):
        mm = m[a]
        jp[a - 1, a] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.conj().T
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2.0j
    return j1, j2, j3


def su2_irrep(j: float) -> Irrep:
    twice = int(round(2 * j))
    if twice < 0 or abs(2 * j - twice) > 1e-12:
        raise ValueError(f"spin must be a half-integer, got {j}")
    gens = tuple(1j * jm for jm in _angular_momentum(twice))
    return Irrep(SU2, twice / 2.0, twice + 1, (twice / 2.0) * (twice / 2.0 + 1.0), gens)


def torus_irrep(group: str, label) -> Irrep:
    if group == T1:
        k = int(label)
        return Irrep(T1, k, 1, float(k * k), (np.array([[1j * k]]),))
    k1, k2 = (int(label[0]), int(label[1]))
    gens = (np.array([[1j * k1]]), np.array([[1j * k2]]))
    return Irrep(T2, (k1, k2), 1, float(k1 * k1 + k2 * k2), gens)


def dual_enumerate(group: str, cutoff) -> list:
    """Irreps up to the cutoff: |k| (tori) or spin j (SU(2))."""
    if cutoff < 0.5:
        raise ValueError("cutoff must be at least 1 (or spin 1/2)")
    if group == T1:
        c = int(cutoff)
        return [torus_irrep(T1, k) for k in range(-c, c + 1)]
    if group == T2:
        c = int(cutoff)
        return [
            torus_irrep(T2, (k1, k2))
            for k1 in range(-c, c + 1)
            for k2 in range(-c, c + 1)
        ]
    if group == SU2:
        twice_max = int(round(2 * cutoff))
        return [su2_irrep(t / 2.0) for t in range(twice_max + 1)]
    raise ValueError(f"unknown group {group!r}")


def get_irrep(group: str, label) -> Irrep:
    if group == SU2:
        return su2_irrep(float(label))
    return torus_irrep(group, label)


def casimir_of_label(group: str, label) -> float:
    return get_irrep(group, label).casimir


def casimir_eigenvalue(pi: Irrep) -> float:
    """Casimir eigenvalue recovered from the generators, with a scalarity check."""
    s = sum(g @ g for g in pi.generators)
    kappa = -float(np.trace(s).real) / pi.dim
    if np.max(np.abs(s + kappa * np.eye(pi.dim))) > CASIMIR_TOL:
        raise ValueError("metric normalization broken: sum of squared generators is not scalar")
    return kappa


def _su2_axis_angle(g: np.ndarray):
    """theta in [0, 2pi] and unit axis for batched 2x2 SU(2) matrices.

    g = cos(t/2) I + i sin(t/2) n.sigma.  sin(t/2) n is read off the
    quaternion vector part and theta = 2 atan2(sin(t/2), cos(t/2)), so
    angle and axis stay accurate near +-I, where sqrt(1 - cos^2) cancels.
    """
    g = np.asarray(g, dtype=complex)
    cos_half = (g[..., 0, 0] + g[..., 1, 1]).real / 2.0
    x = (g[..., 0, 1] + g[..., 1, 0]).imag / 2.0
    y = (g[..., 0, 1] - g[..., 1, 0]).real / 2.0
    z = (g[..., 0, 0] - g[..., 1, 1]).imag / 2.0
    sin_half = np.sqrt(x * x + y * y + z * z)
    theta = 2.0 * np.arctan2(sin_half, cos_half)
    # at +-I the axis is arbitrary; pick e3
    deg = sin_half == 0.0
    safe = np.where(deg, 1.0, sin_half)
    return theta, np.stack([x / safe, y / safe, np.where(deg, 1.0, z / safe)], axis=-1)


def su2_irrep_batch(pi: Irrep, gs: np.ndarray) -> np.ndarray:
    """pi(g) for a batch of 2x2 SU(2) elements, shape (..., d, d)."""
    gs = np.asarray(gs, dtype=complex)
    single = gs.ndim == 2
    g = gs[None] if single else gs
    theta, axis = _su2_axis_angle(g)
    j1, j2, j3 = (gen / 1j for gen in pi.generators)
    h = theta[..., None, None] * (
        axis[..., 0, None, None] * j1
        + axis[..., 1, None, None] * j2
        + axis[..., 2, None, None] * j3
    )
    w, v = np.linalg.eigh(h)
    out = np.einsum("...ab,...b,...cb->...ac", v, np.exp(1j * w), v.conj())
    return out[0] if single else out


def irrep_stack_batch(irreps, gs) -> np.ndarray:
    """pi(g) for a stack of equal-dimension irreps at a batch of elements.

    ``gs`` holds angle vectors (m, n) on the tori and 2x2 matrices
    (m, 2, 2) on SU(2); the result has shape (m, len(irreps), d, d).
    """
    if irreps[0].group in (T1, T2):
        # labels are the frequency vectors k.  The phase k . theta is taken as
        # a complex product: acceptance details are compared bitwise across
        # versions, and a real product rounds differently.  Multiplying by 1j
        # after the product, not before, keeps the complex exp off a slow
        # path that directly follows a BLAS call (about 10x on AVX-512 Xeons).
        theta = np.atleast_2d(np.asarray(gs, dtype=complex))
        k = np.array([pi.label for pi in irreps], dtype=float).reshape(len(irreps), -1)
        return np.exp(1j * (theta @ k.T))[:, :, None, None]
    gs = np.asarray(gs, dtype=complex)
    return np.stack([su2_irrep_batch(pi, gs) for pi in irreps], axis=1)


def irrep_evaluate_batch(pi: Irrep, gs) -> np.ndarray:
    return irrep_stack_batch([pi], gs)[:, 0]


def irrep_evaluate(pi: Irrep, g) -> np.ndarray:
    """pi(g) as a unitary d x d matrix."""
    g = np.asarray(g)
    if pi.group == SU2 and g.shape != (2, 2):
        raise ValueError("SU(2) elements are 2x2 matrices")
    return irrep_evaluate_batch(pi, g[None])[0]


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass
class GroupQuadrature:
    """Nodes and weights that integrate band-limited functions exactly.

    ``band`` is the largest spin / frequency for which matrix coefficients
    are integrated exactly (so transforms of products need the sum of the
    factors' bands).  SU(2) grids keep their Euler angles for fast Wigner
    evaluation; node counts are n_alpha x n_beta x n_alpha with
    n_alpha = 2*band+2 (uniform on [0, 4 pi)) and n_beta = 2*band+16
    (Gauss-Legendre on [0, pi]).
    """

    group: str
    band: float
    points: np.ndarray
    weights: np.ndarray
    euler: Optional[tuple] = None
    _rep_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def rep_on_grid(self, pi: Irrep) -> np.ndarray:
        key = pi.label
        if key not in self._rep_cache:
            self._rep_cache[key] = _rep_on_grid(self, pi)
        return self._rep_cache[key]


def quadrature_grid(group: str, band) -> GroupQuadrature:
    if group in (T1, T2):
        m = int(np.ceil(band)) + 1
        theta = 2.0 * np.pi * np.arange(m) / m
        if group == T1:
            pts = theta[:, None]
            w = np.full(m, 1.0 / m)
        else:
            a, b = np.meshgrid(theta, theta, indexing="ij")
            pts = np.stack([a.ravel(), b.ravel()], axis=1)
            w = np.full(m * m, 1.0 / (m * m))
        return GroupQuadrature(group, float(band), pts, w)
    if group != SU2:
        raise ValueError(f"unknown group {group!r}")
    twice_band = int(np.ceil(2 * band))
    n_ang = twice_band + 2 + (twice_band % 2)  # even
    n_beta = twice_band + 16
    alpha = 4.0 * np.pi * np.arange(n_ang) / n_ang
    x, wx = np.polynomial.legendre.leggauss(n_beta)
    beta = 0.5 * np.pi * (x + 1.0)
    wbeta = 0.5 * np.pi * wx * np.sin(beta)
    aa, bb, cc = np.meshgrid(alpha, beta, alpha, indexing="ij")
    weights = np.zeros((n_ang, n_beta, n_ang))
    weights[:] = wbeta[None, :, None] / (2.0 * n_ang * n_ang)
    # assemble the 2x2 matrices e^{alpha X3} e^{beta X2} e^{gamma X3}
    half_a, half_b, half_c = aa.ravel() / 2.0, bb.ravel() / 2.0, cc.ravel() / 2.0
    ea = np.exp(1j * half_a)
    ec = np.exp(1j * half_c)
    cb, sb = np.cos(half_b), np.sin(half_b)
    pts = np.zeros((half_a.size, 2, 2), dtype=complex)
    pts[:, 0, 0] = ea * cb * ec
    pts[:, 0, 1] = ea * sb / ec
    pts[:, 1, 0] = -sb * ec / ea
    pts[:, 1, 1] = cb / (ea * ec)
    return GroupQuadrature(
        SU2,
        float(band),
        pts,
        weights.ravel(),
        euler=(alpha, beta, wbeta, n_ang, n_beta),
    )


def _rep_on_grid(grid: GroupQuadrature, pi: Irrep) -> np.ndarray:
    if grid.group in (T1, T2):
        return irrep_evaluate_batch(pi, grid.points)
    alpha, beta, _, n_ang, n_beta = grid.euler
    j1, j2, j3 = (gen / 1j for gen in pi.generators)
    m = np.diag(j3).real
    phase_a = np.exp(1j * np.outer(alpha, m))  # (n_ang, d)
    w2, v2 = np.linalg.eigh(j2)
    d_beta = np.einsum("ab,nb,cb->nac", v2, np.exp(1j * np.outer(beta, w2)), v2.conj())
    full = (
        phase_a[:, None, None, :, None]
        * d_beta[None, :, None, :, :]
        * phase_a[None, None, :, None, :]
    )
    return full.reshape(n_ang * n_beta * n_ang, pi.dim, pi.dim)


# ---------------------------------------------------------------------------
# Peter-Weyl coefficient tables


@dataclass
class PeterWeylCoeffs:
    """Band-limited coefficient table: label -> d_pi x d_pi complex block."""

    group: str
    cutoff: float
    blocks: dict

    def labels(self):
        return sorted(self.blocks.keys())

    def map_blocks(self, fn: Callable[[Label, np.ndarray], np.ndarray]) -> "PeterWeylCoeffs":
        return PeterWeylCoeffs(
            self.group, self.cutoff, {k: np.asarray(fn(k, v)) for k, v in self.blocks.items()}
        )

    def l2_norm(self) -> float:
        total = 0.0
        for label, block in self.blocks.items():
            d = get_irrep(self.group, label).dim
            total += d * float(np.sum(np.abs(block) ** 2))
        return np.sqrt(total)


def plancherel_pairing(f: PeterWeylCoeffs, g: PeterWeylCoeffs) -> complex:
    """sum_pi d_pi tr(fhat(pi) ghat(pi)^*), the coefficient side of Plancherel."""
    total = 0.0 + 0.0j
    for label, fb in f.blocks.items():
        gb = g.blocks.get(label)
        if gb is None:
            continue
        d = get_irrep(f.group, label).dim
        total += d * np.trace(fb @ gb.conj().T)
    return complex(total)


def pw_forward(
    f,
    group: str,
    cutoff,
    band=None,
    grid: Optional[GroupQuadrature] = None,
    dual: Optional[list] = None,
) -> PeterWeylCoeffs:
    """Peter-Weyl transform of a band-limited function.

    ``f`` is either a callable on group elements (vectorised over the
    leading axis) or an array of samples aligned with ``grid.points``.
    ``band`` declares the band limit of f (default: cutoff).  The grid
    must resolve band + cutoff, otherwise the transform would alias.
    """
    band = cutoff if band is None else band
    if band > cutoff:
        raise ValueError("aliasing: declared band exceeds the dual cutoff")
    if grid is None:
        grid = quadrature_grid(group, band + cutoff)
    if grid.band + 1e-9 < band + cutoff:
        raise ValueError(
            f"aliasing: grid resolves band {grid.band}, need {band + cutoff}"
        )
    values = np.asarray(f(grid.points) if callable(f) else f, dtype=complex)
    if values.shape != (len(grid.weights),):
        raise ValueError("sample array does not match the quadrature grid")
    wf = grid.weights * values
    dual = dual_enumerate(group, cutoff) if dual is None else dual
    blocks = {}
    for pi in dual:
        d_mat = grid.rep_on_grid(pi)
        blocks[pi.label] = np.einsum("q,qba->ab", wf, d_mat.conj())
    return PeterWeylCoeffs(group, cutoff, blocks)


def pw_inverse(coeffs: PeterWeylCoeffs, points=None, grid: Optional[GroupQuadrature] = None):
    """Synthesis f(s) = sum_pi d_pi tr(fhat(pi) pi(s)) at the given points."""
    if (points is None) == (grid is None):
        raise ValueError("give exactly one of points / grid")
    if grid is None:
        if coeffs.group in (T1, T2):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
        else:
            pts = np.asarray(points, dtype=complex)
            if pts.ndim == 2:
                pts = pts[None]
        n = len(pts)
    else:
        pts = None
        n = len(grid.weights)
    out = np.zeros(n, dtype=complex)
    for label, block in coeffs.blocks.items():
        pi = get_irrep(coeffs.group, label)
        d_mat = grid.rep_on_grid(pi) if grid is not None else irrep_evaluate_batch(pi, pts)
        out += pi.dim * np.einsum("ab,qba->q", block, d_mat)
    return out


def heat_coeffs(coeffs: PeterWeylCoeffs, t: float) -> PeterWeylCoeffs:
    """Heat-semigroup action on coefficients: each block scaled by e^{-t kappa}."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return coeffs.map_blocks(
        lambda label, block: np.exp(-t * casimir_of_label(coeffs.group, label)) * block
    )


def random_band_limited(
    group: str,
    cutoff,
    rng: np.random.Generator,
    real: bool = False,
    scale: float = 1.0,
) -> PeterWeylCoeffs:
    """Random coefficient table; with real=True the synthesised function is real."""
    dual = dual_enumerate(group, cutoff)
    blocks = {}
    for pi in dual:
        z = rng.standard_normal((pi.dim, pi.dim)) + 1j * rng.standard_normal((pi.dim, pi.dim))
        blocks[pi.label] = scale * z / np.sqrt(2.0 * pi.dim)
    coeffs = PeterWeylCoeffs(group, cutoff, blocks)
    if not real:
        return coeffs
    grid = quadrature_grid(group, 2 * cutoff)
    vals = pw_inverse(coeffs, grid=grid).real.astype(complex)
    return pw_forward(vals, group, cutoff, band=cutoff, grid=grid)


# ---------------------------------------------------------------------------
# jump measures on the group


@dataclass(frozen=True)
class GroupLevyMeasure:
    """Finite-activity jump measure: a list of (element, mass) atoms."""

    group: str
    atoms: tuple = ()

    def __post_init__(self):
        cleaned = []
        for tau, mass in self.atoms:
            if not mass > 0.0:
                raise ValueError("atom mass must be positive")
            if self.group in (T1, T2):
                t = np.atleast_1d(np.asarray(tau, dtype=float))
                if t.shape != (group_dim(self.group),):
                    raise ValueError("atom has wrong angle dimension")
                if np.all(np.abs(np.mod(t + np.pi, 2.0 * np.pi) - np.pi) < 1e-12):
                    raise ValueError("atom at the identity is not allowed")
                cleaned.append((t, float(mass)))
            else:
                g = np.asarray(tau, dtype=complex)
                if g.shape != (2, 2):
                    raise ValueError("SU(2) atom must be a 2x2 matrix")
                if np.max(np.abs(g - np.eye(2))) < 1e-12:
                    raise ValueError("atom at the identity is not allowed")
                cleaned.append((g, float(mass)))
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def is_central(self) -> bool:
        """Whether the measure is conjugation invariant as given."""
        if self.group in (T1, T2):
            return True
        return all(np.max(np.abs(tau + np.eye(2))) < 1e-12 for tau, _ in self.atoms)
