"""Multiplier symbols on compact groups.

All symbols act on coefficient tables by left block multiplication.
Second-order Riesz transforms, Laplace-transform-type profiles
(including imaginary powers of the Laplacian), subordination symbols,
and the general symbol of a transform pair over a central process.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .euclid import ImaginaryPowerProfile, profile_time_integral, psi_values
from .groups import GroupLevyMeasure, Irrep, irrep_stack_batch
from .levy import BernsteinSpec, bernstein_eval


def riesz2_symbol_group(c, pi: Irrep) -> np.ndarray:
    """Second-order Riesz symbol -(1/kappa) sum_{ij} C_{ji} dpi(X_i) dpi(X_j)."""
    if pi.casimir <= 0.0:
        raise ValueError("Riesz symbol undefined on constants (trivial representation)")
    c = np.atleast_2d(np.asarray(c))
    n = len(pi.generators)
    if c.shape != (n, n):
        raise ValueError(f"coefficient matrix must be {n}x{n}")
    return -_gradient_sums(c, [pi])[0] / pi.casimir


def _atom_reps(nu: GroupLevyMeasure, irreps):
    """pi(tau) at every atom for a stack of equal-dimension irreps, (atoms, L, d, d)."""
    return irrep_stack_batch(irreps, np.array([tau for tau, _ in nu.atoms])) if nu.atoms else ()


def _gradient_sums(a, irreps) -> np.ndarray:
    """sum_{ij} A_{ji} dpi(X_i) dpi(X_j) for a stack of equal-dimension irreps, (L, d, d)."""
    gens = np.array([pi.generators for pi in irreps])  # (L, n, d, d)
    out = np.zeros((len(irreps),) + gens.shape[2:], dtype=complex)
    for i, j in zip(*np.nonzero(a.T)):
        out += a[j, i] * (gens[:, i] @ gens[:, j])
    return out


def _jump_sums(psi, nu: GroupLevyMeasure, reps, shape) -> np.ndarray:
    """int (2I - pi(tau) - pi(tau)^*) psi(tau) nu(dtau) for a stack of irreps, ``shape`` (L, d, d)."""
    total = np.zeros(shape, dtype=complex)
    for (_, mass), pv, rep in zip(nu.atoms, psi_values(psi, len(nu.atoms)), reps):
        total += mass * pv * (2.0 * np.eye(shape[-1]) - rep - rep.conj().swapaxes(-1, -2))
    return total


ProfileLike = Union[np.ndarray, ImaginaryPowerProfile]


def laplace_type_symbol(profile: ProfileLike, pi: Irrep) -> np.ndarray:
    """int_0^infty 2 kappa e^{-2 s kappa} A(s) ds.

    For a constant matrix the exponential density integrates to one, so
    the symbol is A itself; for the imaginary-power profile the result,
    kappa^{-i gamma} I, is evaluated by quadrature.
    """
    kappa = pi.casimir
    if kappa <= 0.0:
        raise ValueError("Laplace-transform-type symbol undefined on the trivial representation")
    if isinstance(profile, ImaginaryPowerProfile):
        val = 2.0 * kappa * profile_time_integral(profile, -kappa)
        return val * np.eye(pi.dim)
    # constant profile: with u = e^{-2 s kappa} the integral is int_0^1 A du = A
    return np.atleast_2d(np.asarray(profile)).astype(complex)


def subordination_symbol(
    psi, h: BernsteinSpec, nu: GroupLevyMeasure, pi: Irrep
) -> np.ndarray:
    """(1/(2 h(kappa))) int (2I - pi(tau) - pi(tau)^*) psi(tau) nu(dtau)."""
    if pi.casimir <= 0.0:
        raise ValueError("subordination symbol undefined on the trivial representation")
    hk = float(bernstein_eval(h, pi.casimir))
    if hk == 0.0:
        raise ValueError("h(kappa) = 0: subordination symbol undefined")
    return _jump_sums(psi, nu, _atom_reps(nu, [pi]), (1, pi.dim, pi.dim))[0] / (2.0 * hk)


def _central_alphas(c: float, nu: GroupLevyMeasure, irreps, reps) -> np.ndarray:
    """``central_alpha`` of a stack of equal-dimension irreps from their ``_atom_reps``, (L,)."""
    if c < 0.0:
        raise ValueError("diffusion coefficient must be nonnegative")
    alpha = -c * np.array([pi.casimir for pi in irreps]) + 0.0j
    for (_, mass), rep in zip(nu.atoms, reps):
        alpha += mass * (np.trace(rep, axis1=-2, axis2=-1) / irreps[0].dim - 1.0)
    return alpha


def central_alpha(c: float, nu: GroupLevyMeasure, pi: Irrep) -> complex:
    """Exponent alpha_pi = -c kappa + int (normalised character - 1) d nu."""
    return complex(_central_alphas(c, nu, [pi], _atom_reps(nu, [pi]))[0])


def generator_blocks(c: float, nu: GroupLevyMeasure, irreps) -> np.ndarray:
    """Generator blocks -c kappa I + int (pi(tau) - I) d nu of equal-dimension irreps, (L, d, d)."""
    eye = np.eye(irreps[0].dim)
    kappa = np.array([pi.casimir for pi in irreps])
    out = -c * kappa[:, None, None] * eye.astype(complex)
    for (_, mass), rep in zip(nu.atoms, _atom_reps(nu, irreps)):
        out += mass * (rep - eye)
    return out


def generator_matrix(c: float, nu: GroupLevyMeasure, pi: Irrep) -> np.ndarray:
    """Block of the process generator: -c kappa I + int (pi(tau) - I) d nu."""
    return generator_blocks(c, nu, [pi])[0]


#: a mode is undefined where Re alpha >= -UNDEFINED_RTOL (c kappa + total jump mass), zero up to
#: rounding: the trivial irrep, and with c = 0 every irrep on which all atoms act trivially
UNDEFINED_RTOL = 1e-12
UNDEFINED = "Re alpha = 0: multiplier undefined"


def central_symbols(amatrix, psi, c: float, nu: GroupLevyMeasure, irreps, alpha):
    """``central_multiplier`` and ``central_alpha`` of a stack of equal-dimension irreps.

    ``alpha`` is None (the exponents of (c, nu)) or holds one value per
    irrep.  Returns the multipliers (L, d, d), the exponents (L,) and the
    mask (L,) of the modes where the multiplier is defined; undefined modes
    get zero blocks.  Each atom's pi(tau) is evaluated once.
    """
    reps = _atom_reps(nu, irreps)
    if alpha is None:
        alpha = _central_alphas(c, nu, irreps, reps)
    alpha = np.broadcast_to(alpha, (len(irreps),)).astype(complex)
    kappa = np.array([pi.casimir for pi in irreps])
    defined = alpha.real < -UNDEFINED_RTOL * (c * kappa + nu.total_mass)
    re_alpha = np.where(defined, alpha.real, np.inf)  # zero blocks at undefined modes
    a = np.zeros((0, 0)) if amatrix is None else np.atleast_2d(np.asarray(amatrix))
    out = _gradient_sums(a, irreps) * (c / re_alpha)[:, None, None]
    return out - _jump_sums(psi, nu, reps, out.shape) / (2.0 * re_alpha)[:, None, None], alpha, defined


def central_multipliers(amatrix, psi, c: float, nu: GroupLevyMeasure, irreps, alpha=None) -> np.ndarray:
    """``central_multiplier`` of a stack of equal-dimension irreps, (L, d, d); ``alpha`` may hold one
    value per irrep.  Raises on an undefined mode."""
    out, _, defined = central_symbols(amatrix, psi, c, nu, irreps, alpha)
    if not defined.all():
        raise ValueError(UNDEFINED)
    return out


def central_multiplier(
    amatrix,
    psi,
    c: float,
    nu: GroupLevyMeasure,
    pi: Irrep,
    alpha: Optional[complex] = None,
) -> np.ndarray:
    """Symbol of the transform pair (A, psi) over a central process.

    m(pi) = (c/Re alpha) sum_{ij} A_{ji} dpi(X_i) dpi(X_j)
          - (1/(2 Re alpha)) int (2I - pi - pi^*) psi d nu

    The diffusion coefficient multiplies the gradient term because the
    transform acts on the sqrt(2c)-scaled gradients; this is what keeps
    |m| <= |A| v |psi| for every c (at c = 1 it reduces to the
    second-order Riesz symbol).  ``alpha`` overrides the exponent; pass
    -h(kappa) to realise the subordinated-diffusion special case, whose
    own jump measure is not finite-atomic.
    """
    return central_multipliers(amatrix, psi, c, nu, [pi], alpha)[0]


def symbol_table(dual, fn, trivial=None) -> dict:
    """Build a label -> matrix table, substituting ``trivial`` where fn raises.

    ``trivial`` (a scalar) handles symbols undefined on constants; None
    re-raises, matching symbols that must be total.
    """
    table = {}
    for pi in dual:
        try:
            table[pi.label] = np.atleast_2d(np.asarray(fn(pi), dtype=complex))
        except ValueError:
            if trivial is None or pi.casimir > 0.0:
                raise
            table[pi.label] = complex(trivial) * np.eye(pi.dim, dtype=complex)
    return table
