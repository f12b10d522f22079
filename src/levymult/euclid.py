"""Frequency multipliers on R^n built from Levy data and a transform pair (A, psi).

Two evaluation routes are provided.  ``multiplier_autonomous`` is the
closed ratio of quadratic-plus-jump forms (unscaled frequency convention);
``multiplier_time_dependent`` integrates the semigroup decay in time and
uses the 2*pi-scaled convention, so that for constant data
``multiplier_time_dependent(spec, triple, xi) == multiplier_autonomous(..., 2*pi*xi)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .gammafn import gamma
from .levy import (
    REFINE_RTOL,
    LevyMeasureRn,
    LevyTriple,
    QuadratureError,
    factor_diffusion,
    symbol_grid,
)
from .linalg import operator_norm

PsiLike = Union[None, float, complex, np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _psi_on_atoms(psi: PsiLike, nu: LevyMeasureRn) -> np.ndarray:
    n_at = len(nu.atoms)
    if psi is None:
        return np.zeros(n_at)
    if callable(psi):
        return np.asarray(psi(nu.atom_points)) if n_at else np.zeros(0)
    arr = np.asarray(psi)
    if arr.ndim == 0:
        return np.full(n_at, complex(arr)) if np.iscomplexobj(arr) else np.full(n_at, float(arr))
    if arr.shape != (n_at,):
        raise ValueError("per-atom psi table must match the atom count")
    return arr


def _psi_on_density(psi: PsiLike):
    """Density modulator: None -> 0, scalar -> constant, callable -> itself."""
    if psi is None:
        return None
    if callable(psi):
        return psi
    arr = np.asarray(psi)
    if arr.ndim == 0:
        val = complex(arr)
        return lambda pts: np.full(len(pts), val)
    raise ValueError("a per-atom psi table cannot modulate a density part")


def _chunked_oneminus_cos(xi: np.ndarray, pts: np.ndarray, *weights) -> list:
    """[sum_q w_q (1 - cos(xi . y_q))] per weight vector, blocked to bound memory.

    The cosine matrix is the expensive part, so it is formed once per
    block and contracted against every weight vector.
    """
    block = max(1, (1 << 22) // max(1, len(pts)))
    outs = [np.empty(len(xi), dtype=w.dtype) for w in weights]
    for lo in range(0, len(xi), block):
        hi = min(lo + block, len(xi))
        oc = 1.0 - np.cos(xi[lo:hi] @ pts.T)
        for out, w in zip(outs, weights):
            out[lo:hi] = oc @ w
    return outs


def multiplier_autonomous_grid(
    amatrix,
    psi: PsiLike,
    a,
    nu: LevyMeasureRn,
    xi: np.ndarray,
    lam: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Autonomous multiplier on an array of frequencies (m, n).

    m(xi) = [ (1/2) (L^T xi) . A (L^T xi) + int (1 - cos(xi.y)) psi(y) nu(dy) ]
            / [ a xi . xi + int (1 - cos(xi.y)) nu(dy) ],   L L^T = 2a.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    amatrix = np.atleast_2d(np.asarray(amatrix)) if amatrix is not None else np.zeros(a.shape)
    if lam is None:
        lam = factor_diffusion(a)
    u = xi @ lam  # rows are L^T xi
    num = 0.5 * np.einsum("mi,ij,mj->m", u, amatrix, u)
    den = np.einsum("mi,ij,mj->m", xi, a, xi)

    if len(nu.atoms):
        phase = xi @ nu.atom_points.T
        oneminus = 1.0 - np.cos(phase)
        den = den + oneminus @ nu.atom_masses
        num = num + oneminus @ (nu.atom_masses * _psi_on_atoms(psi, nu))
    if nu.density is not None:
        mod = _psi_on_density(psi)
        pts_c, w_c = nu._quad_coarse
        pts_f, w_f = nu._quad_fine
        (den_c,) = _chunked_oneminus_cos(xi, pts_c, w_c)
        fine_weights = [w_f] if mod is None else [w_f, w_f * np.asarray(mod(pts_f))]
        fine = _chunked_oneminus_cos(xi, pts_f, *fine_weights)
        den_f = fine[0]
        if np.any(np.abs(den_f - den_c) > REFINE_RTOL * (1.0 + np.abs(den_f))):
            raise QuadratureError("jump-part quadrature did not stabilise on refinement")
        den = den + den_f
        if mod is not None:
            num = num + fine[1]
    if np.any(den <= 0.0):
        raise ValueError("zero-symbol frequency: denominator vanishes (xi = 0 or degenerate data)")
    return (num + 0.0j) / den


def multiplier_autonomous(amatrix, psi: PsiLike, a, nu: LevyMeasureRn, xi) -> complex:
    """Autonomous multiplier at a single frequency."""
    out = multiplier_autonomous_grid(amatrix, psi, a, nu, np.atleast_2d(np.asarray(xi, float)))
    return complex(out[0])


def riesz2_symbol_rn(c, xi):
    """Quadratic-form symbol sum_jk C_jk xi_j xi_k / |xi|^2 (second-order Riesz)."""
    c = np.atleast_2d(np.asarray(c))
    pts = np.atleast_2d(np.asarray(xi, dtype=float))
    norms = np.einsum("mi,mi->m", pts, pts)
    if np.any(norms == 0.0):
        raise ValueError("Riesz symbol is undefined at xi = 0")
    vals = np.einsum("ij,mi,mj->m", c, pts, pts) / norms
    return complex(vals[0]) if np.asarray(xi).ndim == 1 else vals


@dataclass(frozen=True)
class ImaginaryPowerProfile:
    """Time profile whose Laplace-transform-type symbol is the imaginary power u^{-i*gamma}.

    A(s) = (2s)^{i*gamma} / Gamma(1 + i*gamma) times the identity.  (The
    conjugate parameterisation gives u^{+i*gamma}; this one is fixed so
    that the symbol matches the imaginary-power operator as stated.)
    """

    gamma: float

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.exp(1j * self.gamma * np.log(2.0 * s)) / gamma_one_plus_i(self.gamma)

    @property
    def sup_norm(self) -> float:
        return 1.0 / abs(gamma_one_plus_i(self.gamma))


def gamma_one_plus_i(g: float) -> complex:
    return complex(gamma(1.0 + 1j * g))


def profile_time_integral(profile: Callable, rate: float, n_nodes: int = 4096) -> complex:
    """int_0^infty profile(s) * exp(2 s rate) ds for rate < 0.

    Log-time trapezoid rule.  The substitution keeps oscillatory profiles
    like (2s)^{i*gamma} band-limited in the integration variable, where a
    fixed-interval rule in exp(2 s rate) would pile unbounded oscillation
    near the endpoint.
    """
    if not rate < 0.0:
        raise ValueError("non-integrable time profile: decay rate must be negative")
    s_scale = 1.0 / (2.0 * abs(rate))
    v0 = np.log(s_scale) - 36.0
    v1 = np.log(s_scale) + np.log(50.0)
    v = np.linspace(v0, v1, n_nodes)
    s = np.exp(v)
    f = np.asarray(profile(s), dtype=complex) * np.exp(2.0 * s * rate) * s
    return complex(np.trapezoid(f, v))


def _const_time_integral(rate: float) -> float:
    """int_0^infty exp(2 s rate) ds = 1 / (-2 rate)."""
    if not rate < 0.0:
        raise ValueError("non-integrable time profile: decay rate must be negative")
    return 1.0 / (-2.0 * rate)


@dataclass(frozen=True)
class MultiplierSpec:
    """A transform pair (A, psi) with declared norm bounds.

    ``amatrix`` is a constant complex matrix, or ``aprofile`` a catalog
    time profile (exclusive).  ``psi`` follows the conventions of
    ``multiplier_autonomous``: scalar, per-atom table, or callable.
    """

    a_bound: float
    psi_bound: float
    amatrix: Optional[np.ndarray] = None
    aprofile: Optional[ImaginaryPowerProfile] = None
    psi: PsiLike = None

    def __post_init__(self):
        if (self.amatrix is None) == (self.aprofile is None):
            raise ValueError("exactly one of amatrix / aprofile must be given")
        if self.amatrix is not None:
            object.__setattr__(self, "amatrix", np.atleast_2d(np.asarray(self.amatrix)))

    def validate(self, nu: LevyMeasureRn, slack: float = 1e-12) -> None:
        """Check measured sups against the declared bounds (atoms + sample grid)."""
        if self.amatrix is not None:
            measured = operator_norm(self.amatrix)
        else:
            measured = self.aprofile.sup_norm
        if measured > self.a_bound + slack:
            raise ValueError(f"declared |A| bound {self.a_bound} exceeded: measured {measured}")
        sup_psi = 0.0
        if len(nu.atoms):
            sup_psi = float(np.max(np.abs(_psi_on_atoms(self.psi, nu))))
        if nu.density is not None:
            mod = _psi_on_density(self.psi)
            if mod is not None:
                pts, _ = nu._quad_coarse
                sup_psi = max(sup_psi, float(np.max(np.abs(np.asarray(mod(pts))))))
        if sup_psi > self.psi_bound + slack:
            raise ValueError(f"declared |psi| bound {self.psi_bound} exceeded: measured {sup_psi}")


def multiplier_time_dependent(spec: MultiplierSpec, triple: LevyTriple, xi) -> complex:
    """Multiplier from the time-integrated form, 2*pi-scaled frequency convention.

    m(xi) = 4 pi^2 int [A(s) L^T xi . L^T xi] e^{2 s Re rho(2 pi xi)} ds
          + 2 int int e^{2 s Re rho(2 pi xi)} (1 - cos(2 pi xi . y)) psi(y) ds nu(dy)
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    re, _ = symbol_grid(triple, 2.0 * np.pi * xi[None, :])
    rate = float(re[0])
    if rate == 0.0:
        raise ValueError("non-integrable time profile: Re rho(2 pi xi) = 0")
    lam = factor_diffusion(triple.diffusion)
    u = lam.T @ xi

    if spec.amatrix is not None:
        quad = complex(u @ (np.asarray(spec.amatrix) @ u))
        m1 = 4.0 * np.pi**2 * quad * _const_time_integral(rate)
    else:
        m1 = 4.0 * np.pi**2 * float(u @ u) * profile_time_integral(spec.aprofile, rate)

    m2 = 0.0 + 0.0j
    nu = triple.nu
    time_factor = _const_time_integral(rate)
    if len(nu.atoms):
        oneminus = 1.0 - np.cos(nu.atom_points @ (2.0 * np.pi * xi))
        m2 += 2.0 * np.sum(oneminus * nu.atom_masses * _psi_on_atoms(spec.psi, nu)) * time_factor
    if nu.density is not None:
        mod = _psi_on_density(spec.psi)
        if mod is not None:
            pts, w = nu._quad_fine
            oneminus = 1.0 - np.cos(pts @ (2.0 * np.pi * xi))
            m2 += 2.0 * np.sum(oneminus * w * np.asarray(mod(pts))) * time_factor
    return complex(m1 + m2)
