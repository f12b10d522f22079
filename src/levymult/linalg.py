"""Small dense linear-algebra helpers, the Gauss-Legendre rule and the memory budget shared across the package."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class NotPositiveSemidefinite(ValueError):
    pass


#: batched work (the node blocks of martingale values, final-state chunks, sine tables, time-integral
#: rows, norm-search grids) is split into blocks of about this many bytes: larger blocks gain little speed
#: and raise the peak resident memory
BLOCK_BYTES = 1 << 20

#: Monte Carlo path chunks (``martingale.ensemble_chunks``) take this many ``BLOCK_BYTES`` at a path's
#: ``path_bytes``, which counts 240 B a node on criterion 9's T^2 fixtures.  Under tracemalloc a chunk of
#: ``final_values`` takes 205 B a node plus about 1.6 ``BLOCK_BYTES`` of node blocks, and a ``transcript``
#: 356 B a node plus about 0.7: a final-values chunk peaks below 1.25 chunk budgets plus 2 ``BLOCK_BYTES``
#: (4.1 MiB at 50 paths, against 5.75), a transcript chunk below 2 chunk budgets (5.0 MiB, against 6)
CHUNK_BLOCKS = 3

#: relative tolerance of the PSD tests: asymmetry, negative eigenvalues and Cholesky pivots
PSD_TOL = 1e-12


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, each row rounded as it is in a product of many rows.

    BLAS takes its matrix-vector path for a one-row a, whose last bits differ, so
    a lone row is multiplied together with a copy of itself.
    """
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n; read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def blocks(n: int, item_bytes: float):
    """Consecutive slices covering range(n), of as many items as fit ``BLOCK_BYTES`` at item_bytes each (at least one)."""
    size = max(1, int(BLOCK_BYTES // item_bytes))
    return (slice(lo, min(lo + size, n)) for lo in range(0, n, size))


def pair_matrix(amatrix, n: int) -> np.ndarray:
    """The n x n matrix A of a transform pair (A, psi); None is zero."""
    a = np.zeros((n, n)) if amatrix is None else np.atleast_2d(np.asarray(amatrix))
    if a.shape != (n, n):
        raise ValueError(f"transform-pair matrix must be {n}x{n}, got shape {a.shape}")
    return a


def operator_norm(a) -> float:
    """Spectral norm (largest singular value)."""
    a = np.atleast_2d(np.asarray(a))
    return float(np.linalg.norm(a, 2))


def pivoted_cholesky(m: np.ndarray):
    """Diagonally pivoted Cholesky factorisation of a symmetric PSD matrix.

    Returns L (n x rank, lower triangular up to the pivot order) and the
    pivot index list, with m[piv][:, piv] = L L^T.  Rank-deficient input
    is accepted; a residual diagonal below -PSD_TOL*scale raises.
    """
    m = np.array(m, dtype=float)
    n = m.shape[0]
    piv = list(range(n))
    l = np.zeros((n, n))
    scale = max(1.0, float(np.max(np.abs(np.diag(m)))) if n else 1.0)
    rank = n
    for k in range(n):
        # pivot on the largest remaining diagonal entry
        rem = np.diag(m)[k:]
        j = k + int(np.argmax(rem))
        if j != k:
            m[[k, j], :] = m[[j, k], :]
            m[:, [k, j]] = m[:, [j, k]]
            l[[k, j], :] = l[[j, k], :]
            piv[k], piv[j] = piv[j], piv[k]
        d = m[k, k]
        if d <= PSD_TOL * scale:
            if d < -PSD_TOL * scale:
                raise NotPositiveSemidefinite(
                    f"pivot {d:.3e} below tolerance; matrix is not PSD"
                )
            rank = k
            break
        root = np.sqrt(d)
        l[k, k] = root
        if k + 1 < n:
            col = m[k + 1 :, k] / root
            l[k + 1 :, k] = col
            m[k + 1 :, k + 1 :] -= np.outer(col, col)
            # residual negative mass beyond rounding means the input was not PSD
            if np.min(np.diag(m)[k + 1 :]) < -10 * PSD_TOL * scale:
                raise NotPositiveSemidefinite("negative Schur complement; matrix is not PSD")
    # un-permute the rows so that Lambda Lambda^T = m_original
    out = np.zeros((n, rank))
    for i in range(n):
        out[piv[i], :] = l[i, :rank]
    return out, piv, rank


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring plus a Taylor tail.

    Intended for the small (d <= 32) matrices used here; accurate to
    machine precision for them.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, np.inf)
    squarings = 0
    if norm > 0.25:
        squarings = int(np.ceil(np.log2(norm / 0.25)))
        a = a / (2.0**squarings)
    n = a.shape[0]
    term = np.eye(n, dtype=complex)
    out = np.eye(n, dtype=complex)
    for k in range(1, 24):
        term = term @ a / k
        out += term
        if np.linalg.norm(term, np.inf) < 1e-20 * max(1.0, np.linalg.norm(out, np.inf)):
            break
    for _ in range(squarings):
        out = out @ out
    return out

