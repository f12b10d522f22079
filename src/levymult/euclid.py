"""Frequency multipliers on R^n built from Levy data and a transform pair (A, psi).

Two evaluation routes are provided.  ``multiplier_autonomous`` is the
closed ratio of quadratic-plus-jump forms (unscaled frequency convention);
``multiplier_time_dependent`` integrates the semigroup decay in time and
uses the 2*pi-scaled convention, so that for constant data
``multiplier_time_dependent(spec, triple, xi) == multiplier_autonomous(..., 2*pi*xi)``.

Every jump sum sum_q w_q (1 - cos(xi . y_q)) is ``levy.oneminus_cos_sums``.
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
    oneminus_cos_sums,
    symbol_grid,
)
from .linalg import operator_norm

PsiLike = Union[None, float, complex, np.ndarray, Callable[[np.ndarray], np.ndarray]]


def psi_values(psi, n_atoms: int) -> np.ndarray:
    """psi on each atom of a jump measure: None (zero), a scalar, or a per-atom table."""
    arr = np.asarray(0.0 if psi is None else psi)
    if arr.ndim == 0:
        return np.full(n_atoms, complex(arr))
    if arr.shape != (n_atoms,):
        raise ValueError("a per-atom psi table must match the atom count (densities take no table)")
    return arr.astype(complex)


def _psi_at(psi: PsiLike, pts: np.ndarray) -> np.ndarray:
    """psi at the jump points (atoms or density nodes): a callable evaluated there, else ``psi_values``."""
    return np.asarray(psi(pts)) if callable(psi) else psi_values(psi, len(pts))


def multiplier_autonomous_grid(
    amatrix,
    psi: PsiLike,
    a,
    nu: LevyMeasureRn,
    xi: np.ndarray,
) -> np.ndarray:
    """Autonomous multiplier on an array of frequencies (m, n).

    m(xi) = [ (1/2) (L^T xi) . A (L^T xi) + int (1 - cos(xi.y)) psi(y) nu(dy) ]
            / [ a xi . xi + int (1 - cos(xi.y)) nu(dy) ],   L L^T = 2a.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    amatrix = np.atleast_2d(np.asarray(amatrix)) if amatrix is not None else np.zeros(a.shape)
    u = xi @ factor_diffusion(a)  # rows are L^T xi
    num = 0.5 * np.einsum("mi,ij,mj->m", u, amatrix, u)
    den = np.einsum("mi,ij,mj->m", xi, a, xi)

    if len(nu.atoms):
        masses = nu.atom_masses
        sums = oneminus_cos_sums(xi, nu.atom_points, masses, masses * _psi_at(psi, nu.atom_points))
        den, num = den + sums[0], num + sums[1]
    if nu.density is not None:
        pts_c, w_c = nu._quad_coarse
        pts_f, w_f = nu._quad_fine
        (den_c,) = oneminus_cos_sums(xi, pts_c, w_c)
        fine_weights = [w_f] if psi is None else [w_f, w_f * _psi_at(psi, pts_f)]
        fine = oneminus_cos_sums(xi, pts_f, *fine_weights)
        den_f = fine[0]
        if np.any(np.abs(den_f - den_c) > REFINE_RTOL * (1.0 + np.abs(den_f))):
            raise QuadratureError("jump-part quadrature did not stabilise on refinement")
        den = den + den_f
        if psi is not None:
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


#: nodes of the log-time trapezoid rule of ``profile_time_integral``
TIME_NODES = 4096


def profile_time_integral(profile: Callable, rate: float) -> complex:
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
    v = np.linspace(v0, v1, TIME_NODES)
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
            sup_psi = float(np.max(np.abs(_psi_at(self.psi, nu.atom_points))))
        if nu.density is not None and self.psi is not None:
            pts, _ = nu._quad_coarse
            sup_psi = max(sup_psi, float(np.max(np.abs(_psi_at(self.psi, pts)))))
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
        (sums,) = oneminus_cos_sums(2.0 * np.pi * xi, nu.atom_points, nu.atom_masses * _psi_at(spec.psi, nu.atom_points))
        m2 += 2.0 * sums[0] * time_factor
    if nu.density is not None and spec.psi is not None:
        pts, w = nu._quad_fine
        (sums,) = oneminus_cos_sums(2.0 * np.pi * xi, pts, w * _psi_at(spec.psi, pts))
        m2 += 2.0 * sums[0] * time_factor
    return complex(m1 + m2)
