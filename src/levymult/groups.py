"""Unitary duals, group elements, and Peter-Weyl transforms for T^1, T^2, SU(2).

Conventions fixed here and relied on everywhere else:

* T^1, T^2 elements are angle vectors theta (shape (1,) and (2,)), with
  characters exp(i k . theta) and basis fields d/d theta_i.
* SU(2) elements are 2x2 special-unitary matrices.  The metric is chosen
  so that X_i <-> (i/2) sigma_i is an orthonormal basis of the Lie
  algebra; the derived representation of spin j is d pi(X_i) = i J_i with
  the standard angular-momentum matrices, and the Casimir eigenvalue is
  j (j + 1).
* Fourier coefficients are fhat(pi) = int f(s) pi(s)^* ds against the
  normalised Haar measure, inverted by f(s) = sum d_pi tr(fhat(pi) pi(s))
  (``pw_inverse``, the one evaluator of f at points).  A left-invariant
  field X acts on coefficients by left multiplication with d pi(X).
* A d-torus takes one code path, driven by ``group_dim``: d-tuple labels
  (an integer on T^1) in row-major order and grids of d uniform axes.
* Each group object is checked in one place.  ``get_irrep`` checks a label
  and returns its irrep, cached per label (read-only generators; irreps
  compare and hash by group and label), on every group; a
  ``PeterWeylCoeffs`` table takes each block's d_pi from it, so it refuses
  a label of another group; and every evaluator at points takes one
  element or a batch of them (``_element_batch``), refusing other shapes.
  A ``GroupLevyMeasure`` owns its atom table, one element per atom.
* SU(2) irreps are evaluated as pi(g) = e^{i alpha J3} d(beta) e^{i gamma J3}
  from Euler angles, with d(beta) = e^{i beta J2} from a cached eigenbasis
  of J2, at points and in the separable transforms on Euler grids, where a
  table over (m, beta, m') meets the alpha and gamma phases in two matmuls
  (Kostelec & Rockmore, "FFTs on the rotation group", 2008).  Every route
  reads its phases from ``_half_integer_phases``; the grid routes and
  ``pw_inverse`` at points take one table for all their spins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .linalg import gauss_legendre, matmul_rows

T1 = "t1"
T2 = "t2"
SU2 = "su2"

#: residual allowed when checking that sum_i dpi(X_i)^2 is scalar
CASIMIR_TOL = 1e-10
#: fewest points at which torus characters are mirrored: below it the mirroring costs more than the exps it saves
MIRROR_MIN_POINTS = 128

Label = Union[int, tuple, float]


def group_dim(group: str) -> int:
    """Dimension of the Lie algebra (number of basis fields X_i); ValueError for an unknown group."""
    if group not in (T1, T2, SU2):
        raise ValueError(f"unknown group {group!r}")
    return {T1: 1, T2: 2, SU2: 3}[group]


# ---------------------------------------------------------------------------
# elements


def identity_element(group: str):
    """The zero angle vector of a d-torus, the 2x2 identity on SU(2)."""
    if group == SU2:
        return np.eye(2, dtype=complex)
    return np.zeros(group_dim(group))


def multiply(group: str, g, h):
    if group in (T1, T2):
        return np.asarray(g) + np.asarray(h)
    return su2_product(g, h)


def su2_product(a, b) -> np.ndarray:
    """a @ b for (stacks of) 2x2 matrices, entry by entry.

    On stacks this is several times faster than matmul, which makes one
    BLAS call per 2x2 product.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def su2_exp(v) -> np.ndarray:
    """exp(sum v_k X_k) with X_k = (i/2) sigma_k, in closed form."""
    v = np.asarray(v, dtype=float)
    theta = float(np.linalg.norm(v))
    if theta == 0.0:
        return np.eye(2, dtype=complex)
    axis = v / theta
    sig = axis[0] * _PAULI[0] + axis[1] * _PAULI[1] + axis[2] * _PAULI[2]
    return np.cos(theta / 2.0) * np.eye(2) + 1j * np.sin(theta / 2.0) * sig


def su2_exp_batch(v: np.ndarray) -> np.ndarray:
    """Vectorised su2_exp for v of shape (m, 3), shape (m, 2, 2).

    The result is a view of a C-ordered (2, 2, m) array, entries first: its
    ``transpose(1, 2, 0)`` has one contiguous row per entry.  sqrt, sin and cos
    read and write contiguous 1-D arrays, as they did before that layout.
    """
    v = np.asarray(v, dtype=float)
    theta = np.einsum("ij,ij->i", v, v)
    np.sqrt(theta, out=theta)
    half = 0.5 * theta
    # sin(theta/2) over theta scales the axis; zero, not undefined, at theta = 0
    scale = np.sin(half)
    theta[theta == 0.0] = 1.0
    scale /= theta
    out = np.empty((2, 2, len(v)), dtype=complex)
    re, im = out.real, out.imag
    re[0, 0] = re[1, 1] = np.cos(half, out=half)
    np.multiply(v[:, 2], scale, out=im[0, 0])
    np.negative(im[0, 0], out=im[1, 1])
    np.multiply(v[:, 1], scale, out=re[0, 1])
    np.negative(re[0, 1], out=re[1, 0])
    np.multiply(v[:, 0], scale, out=im[0, 1])
    im[1, 0] = im[0, 1]
    return out.transpose(2, 0, 1)


def su2_matrix(a, b) -> np.ndarray:
    """The matrices [[a, b], [-conj(b), conj(a)]]."""
    return np.stack([a, b, -np.conj(b), np.conj(a)], axis=-1).reshape(np.shape(a) + (2, 2))


def su2_renormalise(rows: np.ndarray):
    """Project near-unit first rows (a, b) = rows[0], rows[1] of ``su2_matrix`` elements back onto SU(2).

    Returns (projected rows, residual) where residual is the largest correction.
    """
    rows = np.asarray(rows, dtype=complex)
    a, b = rows
    norm = np.sqrt(a.real**2 + b.imag**2 + b.real**2 + a.imag**2)
    out = rows / norm
    return out, float(np.max(np.abs(out - rows))) if rows.size else 0.0


def haar_sample(group: str, rng: np.random.Generator, size: int):
    """size Haar-uniform elements; angles (size, d) or matrices (size, 2, 2)."""
    if group in (T1, T2):
        return rng.uniform(0.0, 2.0 * np.pi, size=(size, group_dim(group)))
    q = rng.standard_normal(size=(size, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    return su2_matrix(q[:, 0] + 1j * q[:, 3], q[:, 2] + 1j * q[:, 1])


# ---------------------------------------------------------------------------
# irreducible representations


@dataclass(frozen=True, eq=False)
class Irrep:
    """One point of the unitary dual: label, dimension, Casimir, generators.

    Irreps compare and hash by (group, label): the other fields are functions of it.
    """

    group: str
    label: Label
    dim: int
    casimir: float
    generators: tuple

    def __eq__(self, other):
        return isinstance(other, Irrep) and (self.group, self.label) == (other.group, other.label)

    def __hash__(self):
        return hash((self.group, self.label))

    def __repr__(self):
        return f"Irrep({self.group}, {self.label}, dim={self.dim}, casimir={self.casimir})"


def _angular_momentum(twice_j: int):
    """Standard (J1, J2, J3) for spin j = twice_j / 2, basis m = j..-j."""
    j = twice_j / 2.0
    d = twice_j + 1
    m = j - np.arange(d)
    j3 = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for a in range(1, d):
        mm = m[a]
        jp[a - 1, a] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.conj().T
    j1 = (jp + jm) / 2.0
    j2 = (jp - jm) / 2.0j
    return j1, j2, j3


def get_irrep(group: str, label) -> Irrep:
    """The irrep of a label: a half-integer spin on SU(2); on a d-torus ``group_dim(group)`` integers, a number
    on T^1 and a pair on T^2, of any number type.  Any other label is a ValueError or TypeError."""
    if group == SU2:
        j = float(label)
        twice = int(round(2 * j))
        if twice < 0 or abs(2 * j - twice) > 1e-12:
            raise ValueError(f"spin must be a half-integer, got {label!r}")
        return _irrep(SU2, twice)
    given = (label,) if group == T1 else tuple(label)
    ks = tuple(map(int, given))
    if ks != given or len(ks) != group_dim(group):
        raise ValueError(f"a {group} label is {group_dim(group)} integer(s), got {label!r}")
    return _irrep(group, ks)


@lru_cache(maxsize=4096)
def _irrep(group: str, key) -> Irrep:
    """The irrep of a checked key, twice the spin on SU(2) and the integer tuple k on a d-torus, cached per key;
    its generators are read-only."""
    if group == SU2:
        j = key / 2.0
        gens = tuple(1j * jm for jm in _angular_momentum(key))
        label, dim, casimir = j, key + 1, j * (j + 1.0)
    else:
        gens = tuple([np.array([[1j * k]]) for k in key])
        label, dim, casimir = key[0] if group == T1 else key, 1, float(sum([k * k for k in key]))
    for gen in gens:
        gen.flags.writeable = False
    return Irrep(group, label, dim, casimir, gens)


def dual_enumerate(group: str, cutoff) -> list:
    """Irreps up to the cutoff (>= 1 on the tori, >= 1/2 on SU(2)): spins j <= int(2 cutoff) / 2; on a d-torus
    the labels k with every |k_i| <= int(cutoff), row-major over the d axes."""
    if group == SU2 and cutoff < 0.5 or group != SU2 and int(cutoff) < 1:
        raise ValueError(f"cutoff must be at least 1 on the tori and spin 1/2 on SU(2), got {cutoff!r}")
    if group == SU2:
        return [_irrep(SU2, t) for t in range(int(2 * cutoff) + 1)]
    c = int(cutoff)
    return [_irrep(group, ks) for ks in itertools.product(range(-c, c + 1), repeat=group_dim(group))]


def dim_stacks(irreps) -> list:
    """The irreps in stacks of equal dimension, stacks in order of first appearance, each in the given order."""
    by_dim = {}
    for pi in irreps:
        by_dim.setdefault(pi.dim, []).append(pi)
    return list(by_dim.values())


def casimir_eigenvalue(pi: Irrep) -> float:
    """Casimir eigenvalue recovered from the generators, with a scalarity check."""
    s = sum(g @ g for g in pi.generators)
    kappa = -float(np.trace(s).real) / pi.dim
    if np.max(np.abs(s + kappa * np.eye(pi.dim))) > CASIMIR_TOL:
        raise ValueError("metric normalization broken: sum of squared generators is not scalar")
    return kappa


def _su2_euler(g: np.ndarray):
    """Euler angles (alpha, beta, gamma) of g = e^{alpha X3} e^{beta X2} e^{gamma X3}.

    Read off a = cos(beta/2) e^{i(alpha+gamma)/2} and b = sin(beta/2) e^{i(alpha-gamma)/2}: beta = 2 atan2(|b|, |a|)
    stays accurate near +-I, and a phase left undefined at beta = 0 or pi is 0, where d(beta) vanishes under it.
    """
    # (a, b) of the Frobenius projection of g onto [[a, b], [-conj(b), conj(a)]]
    a, b = (g[..., 0, 0] + g[..., 1, 1].conj()) / 2.0, (g[..., 0, 1] - g[..., 1, 0].conj()) / 2.0
    half_sum, half_diff = np.angle(a), np.angle(b)
    return half_sum + half_diff, 2.0 * np.arctan2(np.abs(b), np.abs(a)), half_sum - half_diff


@lru_cache(maxsize=None)
def _j2_eigenbasis(twice_j: int):
    """Eigenvalues w of J2 and K[b, (a, c)] = V_ab conj(V_cb) from its eigenvectors V."""
    w, v = np.linalg.eigh(_angular_momentum(twice_j)[1])
    return w, np.einsum("ab,cb->bac", v, v.conj()).reshape(len(w), -1)


def _wigner_small_d(twice_j: int, beta) -> np.ndarray:
    """d^j(beta) = e^{i beta J2} = e^{i beta w} @ K for an array of angles, shape beta.shape + (d, d); real.

    Each angle's rows are the same whatever the number of angles (``matmul_rows``)."""
    w, k = _j2_eigenbasis(twice_j)
    return matmul_rows(np.exp(1j * np.multiply.outer(np.ravel(beta), w)), k).real.reshape(np.shape(beta) + (twice_j + 1,) * 2)


@lru_cache(maxsize=256)
def _half_integers(top: int, step: int) -> np.ndarray:
    """m = top/2, top/2 - step/2, ..., -top/2, built once per (top, step); read-only."""
    m = (top - np.arange(0, 2 * top + 1, step)) / 2.0
    m.flags.writeable = False
    return m


def _half_integer_phases(alpha, top: int, step: int) -> np.ndarray:
    """e^{i alpha m}, alpha.shape + (m,), for the m of ``_half_integers(top, step)``: with step 1 a table for every
    spin up to top/2 (spin t/2 at ``_spin_columns(top, t)``), with step 2 the m of spin top/2 alone.
    m = (top - 2k)/2 and t/2 - k are the same double, so a spin's phases are the same bits in either table."""
    return np.exp(1j * np.multiply.outer(alpha, _half_integers(top, step)))


def _spin_columns(top: int, twice_j: int) -> slice:
    """The columns of spin twice_j / 2 in a step-1 ``_half_integer_phases`` table of top (and its m, m' in the grid
    routes' tables)."""
    return slice(top - twice_j, top + twice_j + 1, 2)


def _wigner_d(twice_j: int, beta, phase_a: np.ndarray, phase_c: np.ndarray) -> np.ndarray:
    """pi(g) = e^{i alpha J3} d(beta) e^{i gamma J3} for spin twice_j / 2, (..., d, d), from broadcasting Euler angles
    beta and the spin's columns of the alpha and gamma phase tables (``_half_integer_phases``).

    Only e^{i(m alpha + m' gamma)} with m - m' integer enters, so alpha, gamma mod 2 pi suffice.
    """
    return phase_a[..., :, None] * _wigner_small_d(twice_j, beta) * phase_c[..., None, :]


def su2_irrep_batch(pi: Irrep, gs: np.ndarray) -> np.ndarray:
    """pi(g) for a batch of 2x2 SU(2) elements, shape (..., d, d), its phases from the one table helper
    ``_half_integer_phases``, taken at this spin's m alone."""
    twice_j = pi.dim - 1
    alpha, beta, gamma = _su2_euler(np.asarray(gs, dtype=complex))
    return _wigner_d(twice_j, beta, _half_integer_phases(alpha, twice_j, 2), _half_integer_phases(gamma, twice_j, 2))


def _element_batch(group: str, points) -> np.ndarray:
    """Points as a batch of shape (m,) + the shape of ``identity_element(group)``: angle vectors (m, d) on a
    d-torus, matrices (m, 2, 2) on SU(2).  A single element is a batch of one; any other shape is a ValueError."""
    shape = np.shape(identity_element(group))
    pts = np.asarray(points, dtype=complex if group == SU2 else float)
    if pts.shape == shape:
        return pts[None]
    if pts.shape[1:] != shape:
        raise ValueError(f"{group} points are one element of shape {shape} or a batch of them, got shape {pts.shape}")
    return pts


@lru_cache(maxsize=4096)
def _torus_labels(labels: tuple):
    """Torus labels as rows k, and their separable tables; read-only arrays.

    The tables exist when the labels have fewer distinct coordinate values u,
    counted over the axes, than there are labels (a full T^2 box has 2c + 1
    per axis against (2c + 1)^2 labels), or are a sign-symmetric T^1 set.
    They hold the axis of each u, the sorted values u of each axis, their
    number on each axis, the column of each label in the row-major product
    of the axes (None when the labels are that product, in order), and the
    number of positive values of each sign-symmetric axis (None on others).
    The one symmetry rule: sorted values v with v = -v[::-1], 0 in v or not.
    """
    k = np.array(labels, dtype=float).reshape(len(labels), -1)
    values, where = zip(*(np.unique(col, return_inverse=True) for col in k.T))
    sizes = tuple(len(v) for v in values)
    halves = tuple(len(v) // 2 if np.array_equal(v, -v[::-1]) else None for v in values)
    if sum(sizes) >= len(labels) and (len(sizes) > 1 or halves[0] is None):
        k.flags.writeable = False
        return k, None
    axis = np.repeat(np.arange(len(sizes)), sizes)
    values = np.concatenate(values)
    cols = np.ravel_multi_index(where, sizes)
    cols = None if np.array_equal(cols, np.arange(len(labels))) else cols
    for a in (k, axis, values, cols):
        if a is not None:
            a.flags.writeable = False
    return k, (axis, values, sizes, cols, halves)


def _axis_characters(out: np.ndarray, theta: np.ndarray, values: np.ndarray, half) -> None:
    """Writes e^{i u theta} for the sorted values u of one axis into the rows of ``out``; on a
    sign-symmetric axis (``half`` positive values, else None) the exps are taken at u > 0 only.
    Row -u takes the real part of row u and 0.0 - Im: -Im bitwise, and at u theta = +-0 the +0
    that the exp gives and conj does not.  Row 0 is exactly 1 (as the exp, for finite angles)."""
    n = 0 if half is None else len(values) - half
    pos = np.exp(1j * np.multiply.outer(values[n:], theta), out=out[n:])
    if half is not None:
        out.real[:half] = pos.real[::-1]
        np.subtract(0.0, pos.imag[::-1], out=out.imag[:half])
        out[half:n] = 1.0


def irrep_stack_batch(irreps, gs) -> np.ndarray:
    """pi(g) for a stack of equal-dimension irreps at a batch of elements.

    ``gs`` holds angle vectors (m, d) on a d-torus and 2x2 matrices
    (m, 2, 2) on SU(2), or one element (``_element_batch``); the result has
    shape (m, len(irreps), d_pi, d_pi).

    Torus characters e^{i k . theta} are separable: e^{i theta_a u} is
    taken once for each distinct value u of each coordinate axis a of the
    labels, only for u > 0 on a sign-symmetric axis or T^1 set from
    ``MIRROR_MIN_POINTS`` points on (``_axis_characters``), and a label's
    character is read from the row-major product of these per-axis tables.
    Other labels with no fewer distinct values than labels (one label, a
    sparse set, a T^1 stack without repeats) take their factors directly.
    Every route gives the same bits and keeps its layout: C-ordered (m, L)
    tables from the direct routes and T^1 sets without repeats, F-ordered
    ones from the per-axis tables, since the sums of ``pw_forward`` (matmul)
    and ``pw_inverse`` (einsum) round in an order that depends on it.
    """
    gs = _element_batch(irreps[0].group, gs)
    if irreps[0].group in (T1, T2):
        k, tables = _torus_labels(tuple(pi.label for pi in irreps))
        mirror = tables is not None and len(gs) >= MIRROR_MIN_POINTS and any(tables[-1])  # a pair to mirror
        if tables is None and k.shape[1] == 2:
            factors = np.exp(1j * (gs[:, None, :] * k))
            return (factors[:, :, 0] * factors[:, :, 1])[:, :, None, None]
        if tables is None or (not mirror and len(tables[1]) == len(k)):
            return np.exp(1j * (gs @ k.T))[:, :, None, None]
        axis, values, sizes, cols, halves = tables
        if not mirror:
            chars = np.exp(1j * (gs[:, axis] * values))
        else:
            chars = np.empty((len(values), len(gs)), complex).T  # F order, as the exps of gs[:, axis] above
            for a, (stop, half) in enumerate(zip(itertools.accumulate(sizes), halves)):
                _axis_characters(chars.T[stop - sizes[a] : stop], gs[:, a], values[stop - sizes[a] : stop], half)
            if len(values) == len(k):  # a T^1 set without repeats keeps the direct route's C order
                return np.ascontiguousarray(chars if cols is None else chars[:, cols])[:, :, None, None]
        if len(sizes) == 2:
            chars = (chars[:, : sizes[0], None] * chars[:, None, sizes[0] :]).reshape(len(gs), sizes[0] * sizes[1])
        if cols is not None:
            chars = chars[:, cols]
        return chars[:, :, None, None]
    return np.stack([su2_irrep_batch(pi, gs) for pi in irreps], axis=1)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class GroupQuadrature:
    """Nodes and weights that integrate band-limited functions exactly.

    ``band`` is the largest spin / frequency for which matrix coefficients
    are integrated exactly (so transforms of products need the sum of the
    factors' bands).  SU(2) grids are products over Euler angles (alpha,
    beta, gamma) with separable weights: n_alpha = 2*band+2 uniform on
    [0, 4 pi) and n_beta = 2*band+16 Gauss-Legendre on [0, pi].  The SU(2)
    transforms run on ``euler`` = (alpha, beta, beta weights, n_alpha, n_beta).
    A grid is shared by every caller of ``quadrature_grid``: frozen, and its arrays are made read-only.
    """

    group: str
    band: float
    points: np.ndarray
    weights: np.ndarray
    euler: Optional[tuple] = None

    def __post_init__(self):
        for a in (self.points, self.weights) + (self.euler or ())[:3]:
            a.flags.writeable = False


@lru_cache(maxsize=16)
def quadrature_grid(group: str, band) -> GroupQuadrature:
    """int(ceil(band)) + 1 uniform angles on each axis of a d-torus, row-major; Euler angles on SU(2).

    Built once per (group, band) and shared, the last 16 kept (the SU(2) grid of band 8, 10,368 points, holds
    about 0.75 MB)."""
    if group != SU2:
        d = group_dim(group)
        m = int(np.ceil(band)) + 1
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = np.stack([a.ravel() for a in np.meshgrid(*[theta] * d, indexing="ij")], axis=1)
        return GroupQuadrature(group, float(band), pts, np.full(m**d, 1.0 / m**d))
    twice_band = int(np.ceil(2 * band))
    n_ang = twice_band + 2 + (twice_band % 2)  # even
    n_beta = twice_band + 16
    alpha = 4.0 * np.pi * np.arange(n_ang) / n_ang
    x, wx = gauss_legendre(n_beta)
    beta = 0.5 * np.pi * (x + 1.0)
    wbeta = 0.5 * np.pi * wx * np.sin(beta)
    weights = np.broadcast_to(wbeta[None, :, None] / (2.0 * n_ang * n_ang), (n_ang, n_beta, n_ang))
    # the spin-1/2 representation is the defining one: the points are e^{alpha X3} e^{beta X2} e^{gamma X3}
    phases = _half_integer_phases(alpha, 1, 2)
    pts = _wigner_d(1, beta[None, :, None], phases[:, None, None], phases[None, None, :]).reshape(-1, 2, 2)
    return GroupQuadrature(SU2, float(band), pts, weights.ravel(), euler=(alpha, beta, wbeta, n_ang, n_beta))


# ---------------------------------------------------------------------------
# Peter-Weyl coefficient tables


@dataclass
class PeterWeylCoeffs:
    """Band-limited coefficient table: label -> d_pi x d_pi complex block, d_pi from ``get_irrep``."""

    group: str
    cutoff: float
    blocks: dict

    def __post_init__(self):
        for label, block in self.blocks.items():
            d = get_irrep(self.group, label).dim
            if np.shape(block) != (d, d):
                raise ValueError(f"the block of {label!r} is {np.shape(block)}, not d_pi x d_pi = {d} x {d}")

    def labels(self):
        return sorted(self.blocks.keys())

    def stacks(self) -> list:
        """(irreps, blocks (L, d, d)) for each ``dim_stacks`` stack of the labels in sorted order."""
        stacks = dim_stacks([get_irrep(self.group, label) for label in self.labels()])
        return [(st, np.array([self.blocks[pi.label] for pi in st], dtype=complex)) for st in stacks]

    def map_blocks(self, fn: Callable[[Label, np.ndarray], np.ndarray]) -> "PeterWeylCoeffs":
        return PeterWeylCoeffs(
            self.group, self.cutoff, {k: np.asarray(fn(k, v)) for k, v in self.blocks.items()}
        )

    def l2_norm(self) -> float:
        total = 0.0
        for block in self.blocks.values():
            total += len(block) * float(np.sum(np.abs(block) ** 2))
        return np.sqrt(total)


def plancherel_pairing(f: PeterWeylCoeffs, g: PeterWeylCoeffs) -> complex:
    """sum_pi d_pi tr(fhat(pi) ghat(pi)^*), the coefficient side of Plancherel."""
    total = 0.0 + 0.0j
    for label, fb in f.blocks.items():
        gb = g.blocks.get(label)
        if gb is None:
            continue
        total += len(fb) * np.trace(fb @ gb.conj().T)
    return complex(total)


def pw_forward(f, group: str, cutoff, grid: Optional[GroupQuadrature] = None) -> PeterWeylCoeffs:
    """Peter-Weyl transform of a function band-limited to the cutoff.

    ``f`` is either a callable on group elements (vectorised over the
    leading axis) or an array of samples aligned with ``grid.points``.
    The grid (default: the one of band 2 cutoff) must resolve 2 cutoff,
    the band of f times a coefficient, otherwise the transform would alias.
    """
    if grid is None:
        grid = quadrature_grid(group, 2 * cutoff)
    if grid.band + 1e-9 < 2 * cutoff:
        raise ValueError(f"aliasing: grid resolves band {grid.band}, need {2 * cutoff}")
    values = np.asarray(f(grid.points) if callable(f) else f, dtype=complex)
    if values.shape != (len(grid.weights),):
        raise ValueError("sample array does not match the quadrature grid")
    wf = grid.weights * values
    dual = dual_enumerate(group, cutoff)
    if group == SU2:
        return PeterWeylCoeffs(group, cutoff, _su2_grid_analysis(wf, grid, dual))
    chars = wf @ irrep_stack_batch(dual, grid.points)[:, :, 0, 0].conj()
    return PeterWeylCoeffs(group, cutoff, {pi.label: chars[i].reshape(1, 1) for i, pi in enumerate(dual)})


def pw_inverse(coeffs: PeterWeylCoeffs, points=None, grid: Optional[GroupQuadrature] = None):
    """Synthesis f(s) = sum_pi d_pi tr(fhat(pi) pi(s)) at the given points (one element or a batch) or on a grid.

    At SU(2) points one Euler-angle pass and one ``_half_integer_phases`` table of the top spin serve every
    spin; each spin's representation is the bits ``su2_irrep_batch`` gives."""
    if (points is None) == (grid is None):
        raise ValueError("give exactly one of points / grid")
    if grid is not None and coeffs.group == SU2:
        return _su2_grid_synthesis(coeffs, grid)
    pts = _element_batch(coeffs.group, points if grid is None else grid.points)
    stacks = coeffs.stacks()
    if coeffs.group == SU2:
        top = max((irreps[0].dim - 1 for irreps, _ in stacks), default=0)
        alpha, beta, gamma = _su2_euler(pts)
        phase_a, phase_c = _half_integer_phases(alpha, top, 1), _half_integer_phases(gamma, top, 1)
    out = np.zeros(len(pts), dtype=complex)
    for irreps, blocks in stacks:
        if coeffs.group == SU2:  # a stack of one spin
            s = _spin_columns(top, irreps[0].dim - 1)
            reps = _wigner_d(irreps[0].dim - 1, beta, phase_a[:, s], phase_c[:, s])[:, None]
        else:
            reps = irrep_stack_batch(irreps, pts)
        out += irreps[0].dim * np.einsum("lab,qlba->q", blocks, reps)
    return out


def _su2_grid_synthesis(coeffs: PeterWeylCoeffs, grid: GroupQuadrature) -> np.ndarray:
    """f on the grid; exact evaluation of any table, whatever its spins and the grid's band."""
    alpha, beta, _, _, n_beta = grid.euler
    spins = [(len(block), np.asarray(block)) for block in coeffs.blocks.values()]
    top = max((d - 1 for d, _ in spins), default=0)
    table = np.zeros((2 * top + 1, n_beta, 2 * top + 1), dtype=complex)
    for d, block in spins:
        s = _spin_columns(top, d - 1)
        table[s, :, s] += d * block.T[:, None, :] * _wigner_small_d(d - 1, beta).transpose(1, 0, 2)
    phase = _half_integer_phases(alpha, top, 1)
    partial = (phase @ table.reshape(len(table), -1)).reshape(-1, len(table))  # (alpha, beta) x m'
    return (partial @ phase.T).ravel()


def _su2_grid_analysis(wf: np.ndarray, grid: GroupQuadrature, dual) -> dict:
    """Blocks sum_q wf_q conj(pi(g_q))^T, the adjoint of ``_su2_grid_synthesis``."""
    alpha, beta, _, n_ang, n_beta = grid.euler
    top = dual[-1].dim - 1
    phase = _half_integer_phases(alpha, top, 1).conj()
    partial = (wf.reshape(-1, n_ang) @ phase).reshape(n_ang, -1)  # alpha x (beta, m')
    table = (phase.T @ partial).reshape(2 * top + 1, n_beta, 2 * top + 1)
    blocks = {}
    for pi in dual:
        s = _spin_columns(top, pi.dim - 1)
        blocks[pi.label] = np.einsum("nba,bna->ab", _wigner_small_d(pi.dim - 1, beta), table[s, :, s])
    return blocks


def heat_coeffs(coeffs: PeterWeylCoeffs, t: float) -> PeterWeylCoeffs:
    """Heat-semigroup action on coefficients: each block scaled by e^{-t kappa}."""
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    return coeffs.map_blocks(
        lambda label, block: np.exp(-t * get_irrep(coeffs.group, label).casimir) * block
    )


def random_band_limited(group: str, cutoff, rng: np.random.Generator, real: bool = False) -> PeterWeylCoeffs:
    """Random coefficient table; with real=True the synthesised function is real."""
    dual = dual_enumerate(group, cutoff)
    blocks = {}
    for pi in dual:
        z = rng.standard_normal((pi.dim, pi.dim)) + 1j * rng.standard_normal((pi.dim, pi.dim))
        blocks[pi.label] = z / np.sqrt(2.0 * pi.dim)
    coeffs = PeterWeylCoeffs(group, cutoff, blocks)
    if not real:
        return coeffs
    grid = quadrature_grid(group, 2 * cutoff)
    vals = pw_inverse(coeffs, grid=grid).real.astype(complex)
    return pw_forward(vals, group, cutoff, grid=grid)


# ---------------------------------------------------------------------------
# jump measures on the group


@dataclass(frozen=True, eq=False)
class GroupLevyMeasure:
    """Finite-activity jump measure: (element, mass) atoms, each exactly one element, and their table, which
    every layer reads as one batch: ``atom_points`` (atoms,) + the element shape and ``atom_masses`` (atoms,),
    both read-only; ``atoms`` holds their rows."""

    group: str
    atoms: tuple = ()

    def __post_init__(self):
        shape = np.shape(identity_element(self.group))
        points = np.zeros((len(self.atoms),) + shape, dtype=complex if self.group == SU2 else float)
        for point, (tau, mass) in zip(points, self.atoms):
            if not mass > 0.0:
                raise ValueError("atom mass must be positive")
            g = np.asarray(tau, dtype=points.dtype)
            if self.group == SU2 and (
                g.shape != shape or np.max(np.abs(g @ g.conj().T - np.eye(2))) + abs(np.linalg.det(g) - 1) > 1e-9
            ):
                raise ValueError("SU(2) atom must be a unitary 2x2 matrix of determinant 1")
            if g.shape != shape:
                raise ValueError(f"{self.group} atom must be one angle vector of shape {shape}, got shape {g.shape}")
            gap = g - np.eye(2) if self.group == SU2 else np.mod(g + np.pi, 2.0 * np.pi) - np.pi
            if np.all(np.abs(gap) < 1e-12):
                raise ValueError("atom at the identity is not allowed")
            point[...] = g
        masses = np.array([mass for _, mass in self.atoms], dtype=float)
        points.flags.writeable = masses.flags.writeable = False
        object.__setattr__(self, "atom_points", points)
        object.__setattr__(self, "atom_masses", masses)
        object.__setattr__(self, "atoms", tuple(zip(points, masses.tolist())))

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def is_central(self) -> bool:
        """Whether the measure is conjugation invariant as given."""
        if self.group in (T1, T2):
            return True
        return all(np.max(np.abs(tau + np.eye(2))) < 1e-12 for tau in self.atom_points)
