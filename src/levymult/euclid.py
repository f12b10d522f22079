"""Frequency multipliers on R^n built from Levy data and a transform pair (A, psi).

One route, ``multiplier_autonomous_grid``, evaluates the closed ratio of
quadratic-plus-jump forms over an array of frequencies (m, n), for a
constant matrix A or for the imaginary-power time profile
A(s) = (2s)^{i gamma} / Gamma(1 + i gamma) I.  The time-integrated
multiplier of a constant A at xi is the autonomous ratio at 2 pi xi; so is
the profile's, with A = den^{-i gamma} I at each frequency, because the
profile's Laplace transform is closed:
int_0^infty A(s) e^{-2 s den} ds = (1/2) den^{-1-i gamma} I.

Every jump sum sum_q w_q (1 - cos(xi . y_q)) is one ``levy.oneminus_cos_sums``
call over all rows, and every density sum is one ``levy.refined_sum`` (one
refinement rule), both from ``_jump_forms``.  psi is None (zero), a number or a
per-atom table; a density takes a number (``density_psi``), so its sum s is
taken once with the weights w, and refined as the pair [s, psi s].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .gammafn import gamma
from .levy import (
    LevyMeasureRn,
    factor_diffusion,
    oneminus_cos_sums,
    refined_sum,
)
from .linalg import pair_matrix

PsiLike = Union[None, float, complex, np.ndarray]


def psi_values(psi, n_atoms: int) -> np.ndarray:
    """psi on each atom of a jump measure: None (zero), a scalar, or a per-atom table."""
    arr = np.asarray(0.0 if psi is None else psi)
    if arr.dtype.kind not in "biufc":  # a callable or a string, say
        raise ValueError(f"psi on atoms is None, a number or a per-atom table of numbers, not {psi!r}")
    if arr.ndim == 0:
        return np.full(n_atoms, complex(arr))
    if arr.shape != (n_atoms,):
        raise ValueError("a per-atom psi table must match the atom count (densities take no table)")
    return arr.astype(complex)


def density_psi(psi):
    """psi on a density: one number for all of its nodes, None being zero; any other form raises ValueError."""
    if not (psi is None or isinstance(psi, (int, float, complex, np.number))):
        raise ValueError(f"a density takes psi as one number, not {psi!r}")
    return 0.0 if psi is None else psi


def multiplier_autonomous_grid(
    apair,
    psi: PsiLike,
    a,
    nu: LevyMeasureRn,
    xi: np.ndarray,
) -> np.ndarray:
    """Autonomous multiplier on an array of frequencies (m, n).

    m(xi) = [ (1/2) (L^T xi) . A (L^T xi) + int (1 - cos(xi.y)) psi(y) nu(dy) ]
            / [ a xi . xi + int (1 - cos(xi.y)) nu(dy) ],   L L^T = 2a.

    ``apair`` is the constant matrix A or an ``ImaginaryPowerProfile``, whose A = den^{-i gamma} I
    at each row (den the denominator) makes m its time-integrated multiplier at xi / (2 pi):
    4 pi^2 |L^T xi'|^2 (1/2) den^{-1-i gamma} = (1/2) |L^T (2 pi xi')|^2 den^{-i gamma} / den.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if not np.all(np.any(xi != 0.0, axis=1)):  # the denominator is 0 there: refused before any work
        raise ValueError("zero-symbol frequency: denominator vanishes at xi = 0")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    profile = isinstance(apair, ImaginaryPowerProfile)
    u = xi @ factor_diffusion(a)  # rows are L^T xi
    num = 0.0j if profile else 0.5 * np.einsum("mi,ij,mj->m", u, pair_matrix(apair, len(a)), u)
    den, num = _jump_forms(xi, nu, psi, np.einsum("mi,ij,mj->m", xi, a, xi), num)
    if np.any(den <= 0.0):  # refused before den^{-i gamma} is taken
        raise ValueError("zero-symbol frequency: denominator vanishes (degenerate data)")
    if profile:
        num = 0.5 * np.einsum("mi,mi->m", u, u) * apair.power(den) + num
    return (num + 0.0j) / den


def _jump_forms(xi: np.ndarray, nu: LevyMeasureRn, psi: PsiLike, den, num):
    """(den + int (1 - cos xi.y) nu(dy), num + int (1 - cos xi.y) psi(y) nu(dy)) at each row of xi.

    Atoms first, with the weights m and m psi, the latter real when every psi is; then the density, its psi one
    number (``density_psi``, checked before any sum): its sum s is taken once, and [s, psi s] is one ``refined_sum``.
    """
    psi_d = None if nu.density is None else density_psi(psi)
    if len(nu.atoms):
        masses = nu.atom_masses
        wpsi = masses * psi_values(psi, len(masses))
        sums = oneminus_cos_sums(xi, nu.atom_points, masses, wpsi if wpsi.imag.any() else wpsi.real)
        den, num = den + sums[0], num + sums[1]
    if psi_d is not None:  # the pair [s, psi s] = (1, psi) (x) s
        sums = refined_sum(nu.quadratures, lambda pts, w: np.outer([1.0, psi_d], oneminus_cos_sums(xi, pts, w)[0]))
        den, num = den + sums[0].real, num + sums[1]
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
        if np.isinf(self.sup_norm):
            raise ValueError(f"A(s) overflows at gamma = {self.gamma}: 1 / |Gamma(1 + i gamma)| is not finite")
        s = np.asarray(s, dtype=float)
        return np.exp(1j * self.gamma * np.log(2.0 * s)) / gamma_one_plus_i(self.gamma)

    def power(self, kappa):
        """kappa^{-i gamma} = exp(-i gamma log kappa) at rates kappa > 0, the closed form of
        int_0^infty 2 kappa e^{-2 s kappa} A(s) ds = kappa^{-i gamma} I that R^n and the groups both take."""
        return np.exp(-1j * self.gamma * np.log(kappa))

    @property
    def sup_norm(self) -> float:
        """1 / |Gamma(1 + i gamma)|: infinite where it overflows, for gamma above about 454.39."""
        modulus = abs(gamma_one_plus_i(self.gamma))
        return 1.0 / modulus if modulus > 0.0 else np.inf


def gamma_one_plus_i(g: float) -> complex:
    return complex(gamma(1.0 + 1j * g))


BOUND_SLACK = 1e-12  # absolute slack of ``check_bounds`` over the declared bounds


def check_bounds(apair, psi: PsiLike, nu: LevyMeasureRn, a_bound, psi_bound) -> None:
    """Check the sups of a pair (A: a matrix or a profile, psi) against its declared bounds, up to ``BOUND_SLACK``."""
    measured = apair.sup_norm if isinstance(apair, ImaginaryPowerProfile) else np.linalg.norm(apair, 2)
    if measured > a_bound + BOUND_SLACK:
        raise ValueError(f"declared |A| bound {a_bound} exceeded: measured {measured}")
    sup_psi = 0.0 if nu.density is None else abs(density_psi(psi))
    if len(nu.atoms):
        sup_psi = max(sup_psi, float(np.max(np.abs(psi_values(psi, len(nu.atoms))))))
    if sup_psi > psi_bound + BOUND_SLACK:
        raise ValueError(f"declared |psi| bound {psi_bound} exceeded: measured {sup_psi}")

