"""Frequency multipliers on R^n built from Levy data and a transform pair (A, psi).

Two evaluation routes are provided, each over an array of frequencies
(m, n).  ``multiplier_autonomous_grid`` is the closed ratio of
quadratic-plus-jump forms (unscaled frequency convention);
``multiplier_time_dependent`` integrates the semigroup decay in time and
uses the 2*pi-scaled convention, so that for constant data
``multiplier_time_dependent(spec, triple, xi) == multiplier_autonomous_grid(..., 2*pi*xi)``.

Every jump sum sum_q w_q (1 - cos(xi . y_q)) is one ``levy.oneminus_cos_sums``
call over all rows, and every density sum, psi-weighted ones included, is
``levy.refined_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .gammafn import gamma
from .levy import (
    LevyMeasureRn,
    LevyTriple,
    factor_diffusion,
    oneminus_cos_sums,
    refined_sum,
    symbol_grid,
)
from .linalg import blocks, operator_norm, pair_matrix

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
    if not np.all(np.any(xi != 0.0, axis=1)):  # the denominator is 0 there: refused before any work
        raise ValueError("zero-symbol frequency: denominator vanishes at xi = 0")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    amatrix = pair_matrix(amatrix, len(a))
    u = xi @ factor_diffusion(a)  # rows are L^T xi
    num = 0.5 * np.einsum("mi,ij,mj->m", u, amatrix, u)
    den = np.einsum("mi,ij,mj->m", xi, a, xi)

    if len(nu.atoms):
        masses = nu.atom_masses
        sums = oneminus_cos_sums(xi, nu.atom_points, masses, masses * _psi_at(psi, nu.atom_points))
        den, num = den + sums[0], num + sums[1]
    if nu.density is not None:

        def jump_sums(pts, w):
            weights = [w] if psi is None else [w, w * _psi_at(psi, pts)]
            return np.array(oneminus_cos_sums(xi, pts, *weights))

        sums = refined_sum(nu.quadratures, jump_sums)
        den = den + sums[0].real
        if psi is not None:
            num = num + sums[1]
    if np.any(den <= 0.0):
        raise ValueError("zero-symbol frequency: denominator vanishes (degenerate data)")
    return (num + 0.0j) / den


def riesz2_symbol_rn(c, xi) -> np.ndarray:
    """Quadratic-form symbol sum_jk C_jk xi_j xi_k / |xi|^2 (second-order Riesz) on an array of frequencies (m, n)."""
    c = np.atleast_2d(np.asarray(c))
    pts = np.atleast_2d(np.asarray(xi, dtype=float))
    norms = np.einsum("mi,mi->m", pts, pts)
    if np.any(norms == 0.0):
        raise ValueError("Riesz symbol is undefined at xi = 0")
    return np.einsum("ij,mi,mj->m", c, pts, pts) / norms


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


def profile_time_integral(profile: Callable, rate) -> np.ndarray:
    """int_0^infty profile(s) * exp(2 s rate) ds for each entry of an array of rates < 0.

    Log-time trapezoid rule, one row of ``TIME_NODES`` nodes per rate, in
    ``linalg.blocks`` of rows.  The substitution keeps
    oscillatory profiles like (2s)^{i*gamma} band-limited in the
    integration variable, where a fixed-interval rule in exp(2 s rate)
    would pile unbounded oscillation near the endpoint.
    """
    rate = np.asarray(rate, dtype=float)
    if not np.all(rate < 0.0):
        raise ValueError("non-integrable time profile: decay rate must be negative")
    out = np.empty(rate.size, dtype=complex)
    for rows in blocks(rate.size, 16 * TIME_NODES):
        r = rate.reshape(-1)[rows]
        log_scale = np.log(1.0 / (2.0 * np.abs(r)))
        # contiguous rows, so that each row sums as a single rate's would
        v = np.ascontiguousarray(np.linspace(log_scale - 36.0, log_scale + np.log(50.0), TIME_NODES, axis=1))
        s = np.exp(v)
        f = np.asarray(profile(s), dtype=complex) * np.exp(2.0 * s * r[:, None]) * s
        out[rows] = np.trapezoid(f, v, axis=1)
    return out.reshape(rate.shape)


BOUND_SLACK = 1e-12  # absolute slack of ``MultiplierSpec.validate`` over the declared bounds


@dataclass(frozen=True)
class MultiplierSpec:
    """A transform pair (A, psi) with declared norm bounds.

    ``amatrix`` is a constant complex matrix, or ``aprofile`` a catalog
    time profile (exclusive).  ``psi`` follows the conventions of
    ``multiplier_autonomous_grid``: scalar, per-atom table, or callable.
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

    def validate(self, nu: LevyMeasureRn) -> None:
        """Check measured sups against the declared bounds (atoms + sample grid), up to ``BOUND_SLACK``."""
        if self.amatrix is not None:
            measured = operator_norm(self.amatrix)
        else:
            measured = self.aprofile.sup_norm
        if measured > self.a_bound + BOUND_SLACK:
            raise ValueError(f"declared |A| bound {self.a_bound} exceeded: measured {measured}")
        sup_psi = 0.0
        if len(nu.atoms):
            sup_psi = float(np.max(np.abs(_psi_at(self.psi, nu.atom_points))))
        if nu.density is not None and self.psi is not None:
            pts, _ = nu.quadratures[0]
            sup_psi = max(sup_psi, float(np.max(np.abs(_psi_at(self.psi, pts)))))
        if sup_psi > self.psi_bound + BOUND_SLACK:
            raise ValueError(f"declared |psi| bound {self.psi_bound} exceeded: measured {sup_psi}")


def multiplier_time_dependent(spec: MultiplierSpec, triple: LevyTriple, xi: np.ndarray) -> np.ndarray:
    """Multiplier from the time-integrated form on an array of frequencies (m, n), 2*pi-scaled convention.

    m(xi) = 4 pi^2 int [A(s) L^T xi . L^T xi] e^{2 s Re rho(2 pi xi)} ds
          + 2 int int e^{2 s Re rho(2 pi xi)} (1 - cos(2 pi xi . y)) psi(y) ds nu(dy)
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    rate, _ = symbol_grid(triple, 2.0 * np.pi * xi)
    if np.any(rate == 0.0):
        raise ValueError("non-integrable time profile: Re rho(2 pi xi) = 0")
    u = xi @ factor_diffusion(triple.diffusion)  # rows are L^T xi
    time_factor = 1.0 / (-2.0 * rate)  # int_0^infty e^{2 s rate} ds

    if spec.amatrix is not None:
        m1 = 4.0 * np.pi**2 * np.einsum("mi,ij,mj->m", u, pair_matrix(spec.amatrix, triple.dim), u) * time_factor
    else:
        m1 = 4.0 * np.pi**2 * np.einsum("mi,mi->m", u, u) * profile_time_integral(spec.aprofile, rate)

    m2 = np.zeros(len(xi), dtype=complex)
    nu = triple.nu
    if len(nu.atoms):
        (sums,) = oneminus_cos_sums(2.0 * np.pi * xi, nu.atom_points, nu.atom_masses * _psi_at(spec.psi, nu.atom_points))
        m2 += 2.0 * sums * time_factor
    if nu.density is not None and spec.psi is not None:
        jump_sums = lambda pts, w: oneminus_cos_sums(2.0 * np.pi * xi, pts, w * _psi_at(spec.psi, pts))[0]
        m2 += 2.0 * refined_sum(nu.quadratures, jump_sums) * time_factor
    return m1 + m2
