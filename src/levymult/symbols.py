"""Multiplier symbols on compact groups, each evaluated on a stack of equal-dimension irreps.

Every symbol returns blocks (L, d, d), acting on coefficient tables by left
block multiplication, and the mask (L,) of the modes where it is defined
(zero blocks elsewhere): the symbol of a transform pair over a central
process with its exponents (second-order Riesz transforms are its case
c = 1 without jumps), the Laplace-transform-type symbol of the
imaginary-power profile (imaginary powers of the Laplacian, in closed form)
and subordination symbols.  ``stack_rows`` evaluates one once per dimension
stack of a dual.
The one-irrep views and ``symbol_table`` serve callers outside the library.
Every symbol reads the generators, their pair products and the Casimir
values of its stack from one cached table (``stack_table``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .euclid import psi_values
from .groups import GroupLevyMeasure, Irrep, dim_stacks, get_irrep, irrep_stack_batch
from .levy import BernsteinSpec, bernstein_eval
from .linalg import pair_matrix


def stack_rows(irreps, evaluate) -> list:
    """evaluate(stack) once per ``dim_stacks`` stack of irreps, read back as one tuple of outputs
    (block, defined, ...) per irrep, in the order of irreps."""
    rows = {}
    for stack in dim_stacks(irreps):
        rows.update(zip([pi.label for pi in stack], zip(*evaluate(stack))))
    return [rows[pi.label] for pi in irreps]


def atom_reps(nu: GroupLevyMeasure, irreps):
    """pi(tau) at every atom for a stack of equal-dimension irreps, (atoms, L, d, d)."""
    return irrep_stack_batch(irreps, nu.atom_points) if nu.atoms else ()


class StackTable(NamedTuple):
    """The data of a stack of L equal-dimension irreps that no symbol's inputs change; read-only arrays."""

    gens: np.ndarray  # dpi(X_i) at [:, i], (L, n, d, d)
    products: np.ndarray  # dpi(X_i) dpi(X_j) at [:, i, j], (L, n, n, d, d)
    casimir: np.ndarray  # (L,)


def stack_table(irreps) -> StackTable:
    """The ``StackTable`` of a stack of equal-dimension irreps, built once per (group, labels) and shared, the last
    1024 kept."""
    return _stack_table(irreps[0].group, tuple(pi.label for pi in irreps))


@lru_cache(maxsize=1024)
def _stack_table(group: str, labels: tuple) -> StackTable:
    irreps = [get_irrep(group, label) for label in labels]
    gens = np.array([pi.generators for pi in irreps])
    n = gens.shape[1]
    products = np.empty((len(irreps), n, n) + gens.shape[2:], dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        products[:, i, j] = gens[:, i] @ gens[:, j]
    casimir = np.array([pi.casimir for pi in irreps])
    for a in (gens, products, casimir):
        a.flags.writeable = False
    return StackTable(gens, products, casimir)


def _gradient_sums(a, irreps) -> np.ndarray:
    """sum_{ij} A_{ji} dpi(X_i) dpi(X_j) for a stack of equal-dimension irreps, (L, d, d)."""
    products = stack_table(irreps).products
    out = np.zeros((len(irreps),) + products.shape[3:], dtype=complex)
    for i, j in zip(*np.nonzero(a.T)):
        out += a[j, i] * products[:, i, j]
    return out


def _jump_sums(psi, nu: GroupLevyMeasure, reps, shape) -> np.ndarray:
    """int (2I - pi(tau) - pi(tau)^*) psi(tau) nu(dtau) for a stack of irreps, ``shape`` (L, d, d)."""
    total = np.zeros(shape, dtype=complex)
    for mass, pv, rep in zip(nu.atom_masses, psi_values(psi, len(nu.atoms)), reps):
        total += mass * pv * (2.0 * np.eye(shape[-1]) - rep - rep.conj().swapaxes(-1, -2))
    return total


def laplace_symbols(profile, irreps):
    """int_0^infty 2 kappa e^{-2 s kappa} A(s) ds on a stack of equal-dimension irreps: (blocks, defined).

    A(s) is the imaginary-power profile, as on R^n (a constant A would give
    A itself: the exponential density integrates to one).  Undefined on the
    trivial irrep.  The integral is closed, kappa^{-i gamma} I, and is read
    from ``profile.power`` at the defined modes' Casimir values.
    """
    kappa = stack_table(irreps).casimir
    defined = kappa > 0.0
    val = np.zeros(len(irreps), dtype=complex)
    val[defined] = profile.power(kappa[defined])
    return val[:, None, None] * np.eye(irreps[0].dim), defined


def subordination_symbols(psi, h: BernsteinSpec, nu: GroupLevyMeasure, irreps):
    """(1/(2 h(kappa))) int (2I - pi(tau) - pi(tau)^*) psi(tau) nu(dtau) on a stack of equal-dimension irreps:
    (blocks, defined), undefined on the trivial irrep and where h(kappa) = 0 (h evaluated once for the stack)."""
    kappa = stack_table(irreps).casimir
    hk = np.zeros(len(irreps))
    hk[kappa > 0.0] = bernstein_eval(h, kappa[kappa > 0.0])
    defined = hk != 0.0
    dim = irreps[0].dim
    sums = _jump_sums(psi, nu, atom_reps(nu, irreps), (len(irreps), dim, dim))
    return sums / (2.0 * np.where(defined, hk, np.inf))[:, None, None], defined


def generator_blocks(c: float, nu: GroupLevyMeasure, irreps, reps=None) -> np.ndarray:
    """Generator blocks -c kappa I + int (pi(tau) - I) d nu of equal-dimension irreps (L, d, d), from ``reps`` if given."""
    if c < 0.0:
        raise ValueError("diffusion coefficient must be nonnegative")
    eye = np.eye(irreps[0].dim)
    out = -c * stack_table(irreps).casimir[:, None, None] * eye.astype(complex)
    for mass, rep in zip(nu.atom_masses, atom_reps(nu, irreps) if reps is None else reps):
        out += mass * (rep - eye)
    return out


def generator_matrix(c: float, nu: GroupLevyMeasure, pi: Irrep) -> np.ndarray:
    """Block of the process generator: -c kappa I + int (pi(tau) - I) d nu."""
    return generator_blocks(c, nu, [pi])[0]


def central_alpha(c: float, nu: GroupLevyMeasure, pi: Irrep) -> complex:
    """Exponent alpha_pi = -c kappa + int (normalised character - 1) d nu, the generator block's normalised trace."""
    return complex(np.trace(generator_matrix(c, nu, pi)) / pi.dim)


#: a mode is undefined where Re alpha >= -UNDEFINED_RTOL (c kappa + total jump mass), zero up to
#: rounding: the trivial irrep, and with c = 0 every irrep on which all atoms act trivially
UNDEFINED_RTOL = 1e-12
UNDEFINED = "Re alpha = 0: multiplier undefined"


def central_symbols(amatrix, psi, c: float, nu: GroupLevyMeasure, irreps, alpha):
    """Symbols of the transform pair (A, psi) over a central process on a stack of equal-dimension
    irreps: (blocks (L, d, d), defined (L,), exponents (L,)).

    m(pi) = (c/Re alpha) sum_{ij} A_{ji} dpi(X_i) dpi(X_j)
          - (1/(2 Re alpha)) int (2I - pi - pi^*) psi d nu

    The diffusion coefficient multiplies the gradient term because the
    transform acts on the sqrt(2c)-scaled gradients; this is what keeps
    |m| <= |A| v |psi| for every c (at c = 1 without jumps it is the
    second-order Riesz symbol).  ``alpha`` is None, for the exponents of
    (c, nu) (the normalised traces of ``generator_blocks``), or holds one
    value per irrep; pass -h(kappa) to realise the subordinated-diffusion
    special case, whose own jump measure is not finite-atomic.  Each atom's
    pi(tau) is evaluated once.
    """
    reps = atom_reps(nu, irreps)
    if alpha is None:
        alpha = np.trace(generator_blocks(c, nu, irreps, reps), axis1=1, axis2=2) / irreps[0].dim
    alpha = np.broadcast_to(alpha, (len(irreps),)).astype(complex)
    defined = alpha.real < -UNDEFINED_RTOL * (c * stack_table(irreps).casimir + nu.total_mass)
    re_alpha = np.where(defined, alpha.real, np.inf)[:, None, None]  # zero blocks at undefined modes
    out = _gradient_sums(pair_matrix(amatrix, len(irreps[0].generators)), irreps) * (c / re_alpha)
    if nu.atoms:  # without atoms the zero jump term is left out: subtracting it would turn -0 entries into +0
        out = out - _jump_sums(psi, nu, reps, out.shape) / (2.0 * re_alpha)
    return out, defined, alpha


def central_multiplier(amatrix, psi, c: float, nu: GroupLevyMeasure, pi: Irrep) -> np.ndarray:
    """``central_symbols`` of one irrep at its own exponent; raises ValueError where it is undefined."""
    (block,), (ok,), _ = central_symbols(amatrix, psi, c, nu, [pi], None)
    if not ok:
        raise ValueError(UNDEFINED)
    return block


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
