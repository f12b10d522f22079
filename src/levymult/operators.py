"""Applying multiplier symbols on periodic grids and coefficient tables.

Grid functions model the unit-period torus with the e^{+2 pi i xi . x}
analysis convention: the FFT coefficient at lattice index k is the
amplitude of the mode e^{-2 pi i k . x}.  Norms are taken against normalised
(cell-average) weights so constants have norm |c| and grid Plancherel
matches the group-side convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng as rngmod
from .groups import PeterWeylCoeffs, plancherel_pairing, quadrature_grid, pw_inverse
from .linalg import blocks


@dataclass
class GridFunction:
    """Complex samples on a unit-period grid with power-of-two shape."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        for n in self.values.shape:
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"grid axis length {n} is not a power of two")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def dims(self) -> tuple:
        return self.values.shape

    def coeffs(self) -> np.ndarray:
        """Coefficient of the mode e^{-2 pi i k.x} at lattice index k."""
        return np.fft.ifftn(self.values)


def frequency_lattice(f: GridFunction) -> np.ndarray:
    """The integer frequencies xi on the lattice, xi = 0 first, shape dims + (ndim,)."""
    mesh = np.meshgrid(*[np.fft.fftfreq(n) * n for n in f.dims], indexing="ij")
    return np.stack(mesh, axis=-1)


def symbol_on_lattice(m: Callable[[np.ndarray], np.ndarray], dims: tuple) -> np.ndarray:
    """m sampled on the frequency lattice of a grid of shape ``dims``.

    ``m`` maps an array of frequency vectors (q, n) to complex values.  It
    is called once on the nonzero frequencies, where a non-finite value
    raises, and once on xi = 0 alone: the zero mode is m(0) where that
    evaluates, and 0 where m raises ValueError or ZeroDivisionError there
    or is not finite (Riesz-type symbols).
    """
    flat = frequency_lattice(GridFunction(np.zeros(dims))).reshape(-1, len(dims))
    vals = np.empty(len(flat), dtype=complex)
    vals[1:] = m(flat[1:])
    if not np.all(np.isfinite(vals[1:])):
        raise ValueError("symbol is not finite on the frequency lattice")
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            vals[0] = np.asarray(m(flat[:1]), dtype=complex)[0]
        except (ZeroDivisionError, ValueError):
            vals[0] = 0.0
    if not np.isfinite(vals[0]):
        vals[0] = 0.0
    return vals.reshape(dims)


def apply_symbol_grid(m: Callable[[np.ndarray], np.ndarray], f: GridFunction) -> GridFunction:
    """Inverse transform of m(xi) fhat(xi) on the grid (m as in ``symbol_on_lattice``)."""
    return GridFunction(np.fft.fftn(symbol_on_lattice(m, f.dims) * f.coeffs()))


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
    values, weights = (f.values, 1.0 / f.values.size) if isinstance(f, GridFunction) else f
    return float(np.sum(np.asarray(weights, dtype=float) * np.abs(np.asarray(values)) ** p) ** (1.0 / p))


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
    ps,
    trials: int,
    refine_steps: int,
    seed: int,
    band: Optional[int] = None,
) -> list:
    """Largest found ratio |S f|_p / |f|_p over random band-limited f: one ``SearchResult`` per p in ps.

    ``values`` is the symbol sampled on the frequency lattice of the grid
    (``symbol_on_lattice``); the grid shape is ``values.shape``.  Trial starts,
    drawn from (seed, SEARCH, trial) and shared by every p, are refined by
    Boyd's nonlinear power iteration through the adjoint (conjugate symbol).
    Every (p, trial) pair is one row of a stack of grids, one FFT batch per
    ``linalg.blocks`` block of rows; a row stops alone.  Each p gets its best
    ratio in trial-major, step-minor order (ties to the first) and the iterate
    attaining it: a lower bound on the operator norm, deterministic per seed.
    """
    values = np.asarray(values, dtype=complex)
    shape = values.shape
    ps = [float(p) for p in ps]
    if not all(1.0 < p < np.inf for p in ps):
        raise ValueError("p must lie in (1, infinity)")
    if band is None:
        band = min(shape) // 4
    band = max(1, min(band, (min(shape) - 2) // 2))
    pairs = [(j, t) for j in range(len(ps)) for t in range(trials)]  # p-major: each p's trials in order
    best = [(-np.inf, None)] * len(ps)
    for rows in blocks(len(pairs), 16 * values.size):
        block = pairs[rows]
        drawn, row_trial = np.unique([t for _, t in block], return_inverse=True)
        coeffs = [_band_coeffs(shape, band, rngmod.stream(seed, rngmod.SEARCH, int(t))) for t in drawn]
        starts = np.fft.fftn(coeffs, axes=tuple(range(1, 1 + len(shape))))[row_trial]
        exps = np.array([ps[j] for j, _ in block])
        for (j, _), ratio, x in zip(block, *_power_iteration(values, starts, exps, refine_steps)):
            if ratio > best[j][0]:
                best[j] = (ratio, x)
    if any(x is None for _, x in best):
        raise ValueError("all trial functions degenerated to zero norm")
    witnesses = [GridFunction(x.copy()) for _, x in best]
    return [SearchResult(float(r), w, p, trials, refine_steps) for p, (r, _), w in zip(ps, best, witnesses)]


def _power_iteration(values: np.ndarray, x: np.ndarray, p: np.ndarray, steps: int):
    """Best ratio and its iterate for each start x[i] at exponent p[i].

    Work buffers are reused: fresh grid-sized arrays cost about as much as the FFTs."""
    axes = tuple(range(1, x.ndim))
    p = p.reshape((-1,) + (1,) * len(axes))
    q = p / (p - 1.0)
    adjoint = np.conj(values)
    best = np.full(len(x), -np.inf)
    best_x = np.zeros_like(x)
    rows = np.arange(len(x))
    y, z, mag = np.empty_like(x), np.empty_like(x), np.empty(x.shape)
    nx = _lp_norms(x, p, mag)
    live = nx != 0.0
    for _ in range(steps + 1):
        if not live.all():  # a row stops on a zero norm, or an iterate that vanished or is not finite
            rows, x, p, q, nx = rows[live], x[live], p[live], q[live], nx[live]
            y, z, mag = y[: len(rows)], z[: len(rows)], mag[: len(rows)]
        if not len(rows):
            break
        ratio = _lp_norms(_apply(values, x, y), p, mag) / nx
        better = ratio > best[rows]
        best[rows[better]] = ratio[better]
        best_x[rows[better]] = x[better]
        # dual vector of y in L^p, pulled back through the adjoint
        _duality_map(_apply(adjoint, _duality_map(y, p, mag), z), q, mag)
        scale = np.max(np.abs(z, out=mag), axis=axes, keepdims=True)
        finite = (scale > 0.0) & (scale < np.inf)  # NaN fails both
        nx = _lp_norms(np.divide(z, scale, out=x, where=finite), p, mag)
        live = finite.reshape(-1) & (nx != 0.0)
    return best, best_x


def _apply(values: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each grid x[i] with its coefficients multiplied by values, written to out."""
    axes = tuple(range(1, x.ndim))
    np.fft.ifftn(x, axes=axes, out=out)
    out *= values
    return np.fft.fftn(out, axes=axes, out=out)


def _lp_norms(x: np.ndarray, p: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """``lp_norm`` of each grid x[i] at exponent p[i]; mag is scratch of x's shape."""
    np.power(np.abs(x, out=mag), p, out=mag)
    mag *= 1.0 / np.prod(x.shape[1:])
    return np.sum(mag, axis=tuple(range(1, x.ndim))).reshape(-1) ** (1.0 / p.reshape(-1))


def _duality_map(y: np.ndarray, p: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """y times |y|^{p-2} in place, 0 where y is 0 even for p < 2; mag is scratch of y's shape."""
    np.abs(y, out=mag)
    np.power(mag, p - 2.0, out=mag, where=mag > 0.0)
    y *= mag
    return y
