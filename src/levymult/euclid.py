"""Frequency multipliers on R^n built from Levy data and a transform pair (A, psi).

Two evaluation routes are provided, each over an array of frequencies
(m, n).  ``multiplier_autonomous_grid`` is the closed ratio of
quadratic-plus-jump forms for a constant matrix A (unscaled frequency
convention); ``multiplier_time_dependent`` integrates the semigroup decay
in time for a scalar time profile A(s) = profile(s) I (2*pi-scaled
convention).  The time-integrated multiplier of a constant A at xi is the
autonomous route at 2*pi*xi, so only profiles take the time route.

Both routes take their jump forms from ``_jump_forms``: every jump sum
sum_q w_q (1 - cos(xi . y_q)) is one ``levy.oneminus_cos_sums`` call over all
rows, and every density sum is one ``levy.refined_sum`` (one refinement rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .gammafn import gamma
from .levy import (
    LevyMeasureRn,
    factor_diffusion,
    oneminus_cos_sums,
    refined_sum,
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
    den, num = _jump_forms(xi, nu, psi, np.einsum("mi,ij,mj->m", xi, a, xi), num)
    if np.any(den <= 0.0):
        raise ValueError("zero-symbol frequency: denominator vanishes (degenerate data)")
    return (num + 0.0j) / den


def _jump_forms(xi: np.ndarray, nu: LevyMeasureRn, psi: PsiLike, den, num):
    """(den + int (1 - cos xi.y) nu(dy), num + int (1 - cos xi.y) psi(y) nu(dy)) at each row of xi.

    Atoms first, then the density through one ``refined_sum``, checked against the sums alone.
    """
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
    return den, num


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


BOUND_SLACK = 1e-12  # absolute slack of ``check_bounds`` over the declared bounds


def check_bounds(apair, psi: PsiLike, nu: LevyMeasureRn, a_bound, psi_bound) -> None:
    """Check the sups of a pair (A: a matrix or a profile, psi on the atoms and the coarse density nodes)
    against its declared bounds, up to ``BOUND_SLACK``."""
    measured = apair.sup_norm if isinstance(apair, ImaginaryPowerProfile) else operator_norm(apair)
    if measured > a_bound + BOUND_SLACK:
        raise ValueError(f"declared |A| bound {a_bound} exceeded: measured {measured}")
    sup_psi = 0.0
    if len(nu.atoms):
        sup_psi = float(np.max(np.abs(_psi_at(psi, nu.atom_points))))
    if nu.density is not None and psi is not None:
        pts, _ = nu.quadratures[0]
        sup_psi = max(sup_psi, float(np.max(np.abs(_psi_at(psi, pts)))))
    if sup_psi > psi_bound + BOUND_SLACK:
        raise ValueError(f"declared |psi| bound {psi_bound} exceeded: measured {sup_psi}")


def multiplier_time_dependent(profile: Callable, psi: PsiLike, a, nu: LevyMeasureRn, xi: np.ndarray) -> np.ndarray:
    """Multiplier of a scalar time profile A(s) = profile(s) I on an array of frequencies (m, n), 2*pi-scaled.

    m(xi) = 4 pi^2 |L^T xi|^2 int profile(s) e^{-2 s den} ds + 2 num int e^{-2 s den} ds,
    den = -Re rho(2 pi xi) and num the autonomous route's forms at 2 pi xi, from ``_jump_forms``
    with its one refinement rule; the time integrals are the route's own factor.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    xi2 = 2.0 * np.pi * xi
    den, num = _jump_forms(xi2, nu, psi, np.einsum("mi,ij,mj->m", xi2, a, xi2), 0.0j)
    if np.any(den <= 0.0):
        raise ValueError("non-integrable time profile: Re rho(2 pi xi) = 0")
    u = xi @ factor_diffusion(a)  # rows are L^T xi
    m1 = 4.0 * np.pi**2 * np.einsum("mi,mi->m", u, u) * profile_time_integral(profile, -den)
    return m1 + 2.0 * num * (1.0 / (2.0 * den))  # int_0^infty e^{-2 s den} ds = 1 / (2 den)
