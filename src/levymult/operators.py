"""Applying multiplier symbols on periodic grids and coefficient tables.

Grid functions model the torus with the e^{+2 pi i xi . x} analysis
convention: the FFT coefficient at lattice index k is the amplitude of
the mode e^{-2 pi i k . x / period}.  Norms are taken against normalised
(cell-average) weights so constants have norm |c| and grid Plancherel
matches the group-side convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .groups import PeterWeylCoeffs, plancherel_pairing, quadrature_grid, pw_inverse
from .levy import LevyTriple, symbol_grid


@dataclass
class GridFunction:
    """Complex samples on a periodic grid with power-of-two shape."""

    values: np.ndarray
    period: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if not self.period:
            self.period = (1.0,) * self.values.ndim
        if len(self.period) != self.values.ndim:
            raise ValueError("period must have one entry per axis")
        for n in self.values.shape:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"grid axis length {n} is not a power of two")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def dims(self) -> tuple:
        return self.values.shape

    def coeffs(self) -> np.ndarray:
        """Coefficient of the mode e^{-2 pi i k.x/period} at lattice index k."""
        return np.fft.ifftn(self.values)

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, period: tuple = ()) -> "GridFunction":
        return cls(np.fft.fftn(np.asarray(coeffs, dtype=complex)), period)


def frequency_lattice(f: GridFunction) -> np.ndarray:
    """Physical frequencies xi on the lattice, shape dims + (ndim,)."""
    axes = [
        np.fft.fftfreq(n) * n / p for n, p in zip(f.dims, f.period)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def symbol_on_lattice(
    m: Callable[[np.ndarray], np.ndarray],
    dims: tuple,
    period: tuple = (),
    zero_mode: float = 0.0,
) -> np.ndarray:
    """m sampled on the frequency lattice of a grid of shape ``dims``.

    ``m`` maps an array of frequency vectors (q, n) to complex values.
    If m is not finite at xi = 0 (Riesz-type symbols), ``zero_mode`` is
    used there; non-finite values elsewhere raise.
    """
    flat = frequency_lattice(GridFunction(np.zeros(dims), period)).reshape(-1, len(dims))
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            vals = np.asarray(m(flat), dtype=complex)
        except (ZeroDivisionError, ValueError):
            nonzero = np.any(flat != 0.0, axis=1)
            vals = np.zeros(len(flat), dtype=complex)
            vals[nonzero] = np.asarray(m(flat[nonzero]), dtype=complex)
            vals[~nonzero] = np.nan
    vals = vals.reshape(dims)
    zero_index = (0,) * len(dims)
    if not np.isfinite(vals[zero_index]):
        vals[zero_index] = zero_mode
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol is not finite on the frequency lattice")
    return vals


def apply_symbol_grid(
    m: Callable[[np.ndarray], np.ndarray],
    f: GridFunction,
    zero_mode: float = 0.0,
) -> GridFunction:
    """Inverse transform of m(xi) fhat(xi) on the grid (m as in ``symbol_on_lattice``)."""
    return _multiply(symbol_on_lattice(m, f.dims, f.period, zero_mode), f)


def _multiply(values: np.ndarray, f: GridFunction) -> GridFunction:
    """The grid function with coefficients values * fhat."""
    return GridFunction(np.fft.fftn(values * f.coeffs()), f.period)


def apply_symbol_coeffs(symbol: dict, coeffs: PeterWeylCoeffs) -> PeterWeylCoeffs:
    """Blockwise left multiplication fhat(pi) -> m(pi) fhat(pi)."""
    blocks = {}
    for label, block in coeffs.blocks.items():
        if label not in symbol:
            raise KeyError(f"symbol has no block for label {label!r}")
        blocks[label] = np.atleast_2d(np.asarray(symbol[label])) @ block
    return PeterWeylCoeffs(coeffs.group, coeffs.cutoff, blocks)


def lp_norm(f, p: float) -> float:
    """(sum w |f|^p)^{1/p} with normalised weights; exact for constants."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, infinity)")
    if isinstance(f, GridFunction):
        values = f.values.ravel()
        weights = np.full(values.size, 1.0 / values.size)
    else:
        values, weights = f
        values = np.asarray(values).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
    return float(np.sum(weights * np.abs(values) ** p) ** (1.0 / p))


def plancherel_residual(f, g, grid=None) -> float:
    """|int f conj(g) - sum_pi d_pi tr(fhat ghat^*)| for grids or coefficient tables."""
    if isinstance(f, GridFunction):
        space = complex(np.mean(f.values * np.conj(g.values)))
        freq = complex(np.sum(f.coeffs() * np.conj(g.coeffs())))
        return abs(space - freq)
    if grid is None:
        grid = quadrature_grid(f.group, 2 * max(f.cutoff, g.cutoff))
    fv = pw_inverse(f, grid=grid)
    gv = pw_inverse(g, grid=grid)
    space = complex(np.sum(grid.weights * fv * np.conj(gv)))
    return abs(space - plancherel_pairing(f, g))


def semigroup_symbol(triple: LevyTriple, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Symbol e^{t rho(-2 pi xi)} of the transition semigroup on the grid."""

    def m(xi: np.ndarray) -> np.ndarray:
        re, im = symbol_grid(triple, -2.0 * np.pi * np.atleast_2d(xi))
        return np.exp(t * (re + 1j * im))

    return m


@dataclass
class SearchResult:
    """Lower bound on an operator p-norm with the witness that attains it."""

    ratio: float
    witness: GridFunction
    p: float
    trials: int
    refine_steps: int


def _band_coeffs(shape: tuple, band: int, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    slices = np.ix_(*[
        np.concatenate([np.arange(0, band + 1), np.arange(n - band, n)]) for n in shape
    ])
    size = tuple(2 * band + 1 for _ in shape)
    out[slices] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return out


def norm_lower_bound_search(
    values: np.ndarray,
    p: float,
    trials: int = 8,
    refine_steps: int = 6,
    seed: int = 0,
    band: Optional[int] = None,
    period: tuple = (),
) -> SearchResult:
    """Largest found ratio |S f|_p / |f|_p over random band-limited f.

    ``values`` is the symbol sampled on the frequency lattice of the grid
    (``symbol_on_lattice``); the grid shape is ``values.shape``.  Random
    starts are refined by a nonlinear power iteration through the adjoint
    (conjugate symbol).  The reported value is a lower bound on the
    operator norm; it is deterministic for a fixed seed.
    """
    values = np.asarray(values, dtype=complex)
    adjoint = np.conj(values)
    shape = values.shape
    if band is None:
        band = min(shape) // 4
    band = max(1, min(band, (min(shape) - 2) // 2))
    q = p / (p - 1.0)

    best_ratio = -np.inf
    best = None
    for trial in range(trials):
        gen = rngmod.stream(seed, rngmod.SEARCH, trial)
        x = GridFunction.from_coeffs(_band_coeffs(shape, band, gen), period)
        for _ in range(refine_steps + 1):
            nx = lp_norm(x, p)
            if nx == 0.0:
                break
            y = _multiply(values, x)
            ratio = lp_norm(y, p) / nx
            if ratio > best_ratio:
                best_ratio, best = ratio, x
            # dual vector of y in L^p, pulled back through the adjoint
            yv = y.values
            dual = np.abs(yv) ** (p - 1.0) * np.exp(1j * np.angle(yv))
            zv = _multiply(adjoint, GridFunction(dual, y.period)).values
            xv = np.abs(zv) ** (q - 1.0) * np.exp(1j * np.angle(zv))
            scale = np.max(np.abs(xv))
            if scale == 0.0 or not np.all(np.isfinite(xv)):
                break
            x = GridFunction(xv / scale, y.period)
    if best is None:
        raise ValueError("all trial functions degenerated to zero norm")
    return SearchResult(float(best_ratio), best, p, trials, refine_steps)
