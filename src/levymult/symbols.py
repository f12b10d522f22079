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
from .groups import GroupLevyMeasure, Irrep, irrep_evaluate, irrep_stack_batch
from .levy import BernsteinSpec, bernstein_eval


def riesz2_symbol_group(c, pi: Irrep) -> np.ndarray:
    """Second-order Riesz symbol -(1/kappa) sum_{ij} C_{ji} dpi(X_i) dpi(X_j)."""
    if pi.casimir <= 0.0:
        raise ValueError("Riesz symbol undefined on constants (trivial representation)")
    c = np.atleast_2d(np.asarray(c))
    n = len(pi.generators)
    if c.shape != (n, n):
        raise ValueError(f"coefficient matrix must be {n}x{n}")
    out = np.zeros((pi.dim, pi.dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            out -= c[j, i] * (pi.generators[i] @ pi.generators[j])
    return out / pi.casimir


ProfileLike = Union[np.ndarray, ImaginaryPowerProfile]


def laplace_type_symbol(profile: ProfileLike, pi: Irrep, n_nodes: int = 4096) -> np.ndarray:
    """int_0^infty 2 kappa e^{-2 s kappa} A(s) ds.

    For a constant matrix the exponential density integrates to one, so
    the symbol is A itself; for the imaginary-power profile the result,
    kappa^{-i gamma} I, is evaluated by quadrature.
    """
    kappa = pi.casimir
    if kappa <= 0.0:
        raise ValueError("Laplace-transform-type symbol undefined on the trivial representation")
    if isinstance(profile, ImaginaryPowerProfile):
        val = 2.0 * kappa * profile_time_integral(profile, -kappa, n_nodes=n_nodes)
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
    vals = psi_values(psi, len(nu.atoms))
    out = np.zeros((pi.dim, pi.dim), dtype=complex)
    for (tau, mass), pv in zip(nu.atoms, vals):
        rep = irrep_evaluate(pi, tau)
        out += mass * pv * (2.0 * np.eye(pi.dim) - rep - rep.conj().T)
    return out / (2.0 * hk)


def central_alpha(c: float, nu: GroupLevyMeasure, pi: Irrep) -> complex:
    """Exponent alpha_pi = -c kappa + int (normalised character - 1) d nu."""
    if c < 0.0:
        raise ValueError("diffusion coefficient must be nonnegative")
    alpha = -c * pi.casimir + 0.0j
    for tau, mass in nu.atoms:
        rep = irrep_evaluate(pi, tau)
        alpha += mass * (np.trace(rep) / pi.dim - 1.0)
    return complex(alpha)


def generator_blocks(c: float, nu: GroupLevyMeasure, irreps) -> np.ndarray:
    """Generator blocks -c kappa I + int (pi(tau) - I) d nu of equal-dimension irreps, (L, d, d)."""
    eye = np.eye(irreps[0].dim)
    kappa = np.array([pi.casimir for pi in irreps])
    out = -c * kappa[:, None, None] * eye.astype(complex)
    if nu.atoms:
        reps = irrep_stack_batch(irreps, np.array([tau for tau, _ in nu.atoms]))
        for (_, mass), rep in zip(nu.atoms, reps):
            out += mass * (rep - eye)
    return out


def generator_matrix(c: float, nu: GroupLevyMeasure, pi: Irrep) -> np.ndarray:
    """Block of the process generator: -c kappa I + int (pi(tau) - I) d nu."""
    return generator_blocks(c, nu, [pi])[0]


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
    if alpha is None:
        alpha = central_alpha(c, nu, pi)
    re_alpha = float(np.real(alpha))
    if re_alpha == 0.0:
        raise ValueError("Re alpha = 0: multiplier undefined")
    n = len(pi.generators)
    a = np.zeros((n, n)) if amatrix is None else np.atleast_2d(np.asarray(amatrix))
    out = np.zeros((pi.dim, pi.dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            if a[j, i] != 0.0:
                out += a[j, i] * (pi.generators[i] @ pi.generators[j])
    out = out * (c / re_alpha)
    vals = psi_values(psi, len(nu.atoms))
    if np.any(vals != 0.0):
        jump = np.zeros((pi.dim, pi.dim), dtype=complex)
        for (tau, mass), pv in zip(nu.atoms, vals):
            rep = irrep_evaluate(pi, tau)
            jump += mass * pv * (2.0 * np.eye(pi.dim) - rep - rep.conj().T)
        out = out - jump / (2.0 * re_alpha)
    return out


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
