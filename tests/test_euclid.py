import numpy as np
import pytest

from levymult.euclid import (
    ImaginaryPowerProfile,
    check_bounds,
    multiplier_autonomous_grid,
    multiplier_time_dependent,
    profile_time_integral,
    riesz2_symbol_rn,
)
from levymult.gammafn import gamma
from levymult.levy import (
    LevyMeasureRn,
    RadialDensity,
    _direct_sums,
    _lattice_factors,
    _magnitude_tables,
    _separable_sums,
    oneminus_cos_sums,
)
from levymult import rng as rngmod


def test_transform_pair_matrix_must_be_n_by_n():
    # a 1x1 A on R^2 used to broadcast to the all-ones matrix
    xi = np.array([[1.0, 0.5]])
    for amat in (np.eye(1), np.eye(3)):
        with pytest.raises(ValueError, match="transform-pair matrix must be 2x2"):
            multiplier_autonomous_grid(amat, None, np.eye(2), LevyMeasureRn(dim=2), xi)


def test_gaussian_quadratic_ratio():
    a_mat = np.diag([1.0, 0.0])
    nu = LevyMeasureRn(dim=2)
    xis = np.array([[1.0, 0.0], [0.3, -1.1], [2.0, 2.0]])
    for xi, m in zip(xis, multiplier_autonomous_grid(a_mat, None, np.eye(2), nu, xis)):
        assert m == pytest.approx(xi[0] ** 2 / (xi @ xi), abs=1e-14)


def test_identity_pair_gives_one():
    nu = LevyMeasureRn(dim=2, atoms=(((0.4, 0.1), 0.3), ((-1.2, 0.8), 0.6)))
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 2))
    a = m @ m.T
    for val in multiplier_autonomous_grid(np.eye(2), 1.0, a, nu, np.array([[1.0, 0.2], [0.5, -2.0]])):
        assert val == pytest.approx(1.0, abs=1e-13)


def test_half_jump_indicator():
    nu = LevyMeasureRn(dim=1, atoms=(((1.0,), 1.0), ((-1.0,), 1.0)))
    psi = lambda pts: (pts[:, 0] > 0).astype(float)
    for val in multiplier_autonomous_grid(np.zeros((1, 1)), psi, np.zeros((1, 1)), nu, [[0.9], [2.2], [-0.4]]):
        assert val == pytest.approx(0.5, abs=1e-14)


def test_zero_frequency_rejected():
    with pytest.raises(ValueError, match="zero-symbol"):
        multiplier_autonomous_grid(np.eye(2), None, np.eye(2), LevyMeasureRn(dim=2), [[0.0, 0.0]])


def test_riesz2_symbol_examples():
    c = np.zeros((2, 2))
    c[0, 0], c[1, 1] = 1.0, -1.0
    xi = np.array([0.7, -1.3])
    assert riesz2_symbol_rn(c, xi) == pytest.approx((xi[0] ** 2 - xi[1] ** 2) / (xi @ xi))
    assert riesz2_symbol_rn(np.eye(3), np.array([1.0, 2.0, -0.5])) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    sym = rng.standard_normal((3, 3))
    sym = (sym + sym.T) / 2
    assert riesz2_symbol_rn(sym, np.array([1.0, 0.0, 0.0])) == pytest.approx(sym[0, 0])
    with pytest.raises(ValueError):
        riesz2_symbol_rn(np.eye(2), np.zeros(2))


@pytest.mark.parametrize("g", [0.5, 1.0])
def test_imaginary_power_profile_with_jumps_matches_its_closed_form(g):
    # int_0^infty (2s)^{i g} / Gamma(1 + i g) e^{-2 s den} ds = den^{-1-i g} / 2, so that
    # m(xi) = 4 pi^2 (xi . a xi) den^{-1-i g} + num / den, den and num summed here node by node
    rng = np.random.default_rng(11)
    m = rng.standard_normal((2, 2))
    a = 0.005 * m @ m.T  # small, so that the jump forms carry a good share of m
    xi = rng.standard_normal((20, 2)) * 2.0
    density = LevyMeasureRn(dim=2, density=_criterion1_density())
    atoms = LevyMeasureRn(dim=2, atoms=(((0.5, -0.2), 0.7), ((1.5, 0.3), 0.4)))
    psi_list = np.array([0.8, -0.5])
    for nu, psi, (pts, w, wpsi) in (
        (atoms, psi_list, (atoms.atom_points, atoms.atom_masses, atoms.atom_masses * psi_list)),
        (density, 0.6, (*density.quadratures[1], 0.6 * density.quadratures[1][1])),
    ):
        xi2 = 2.0 * np.pi * xi
        den = np.einsum("mi,ij,mj->m", xi2, a, xi2) + _half_angle_reference(xi2, pts, w)
        num = _half_angle_reference(xi2, pts, wpsi)
        closed = 4.0 * np.pi**2 * np.einsum("mi,ij,mj->m", xi, a, xi) * den ** (-1.0 - 1j * g) + num / den
        via_time = multiplier_time_dependent(ImaginaryPowerProfile(g), psi, a, nu, xi)
        assert np.max(np.abs(via_time - closed) / np.abs(closed)) <= 1e-12


def test_imaginary_power_time_integral_matches_power():
    for kappa in (1.0, 4.0, 9.0):
        for g in (0.5, 1.0):
            profile = ImaginaryPowerProfile(g)
            val = 2.0 * kappa * profile_time_integral(profile, -kappa)
            assert val == pytest.approx(np.exp(-1j * g * np.log(kappa)), abs=1e-10)


def test_imaginary_power_multiplier_has_unit_modulus():
    xis = np.array([[0.5, 0.0], [1.0, 2.0], [-0.3, 0.4]])
    vals = multiplier_time_dependent(ImaginaryPowerProfile(0.5), None, np.eye(2), LevyMeasureRn(dim=2), xis)
    for xi, m in zip(xis, vals):
        kappa = 4.0 * np.pi**2 * float(xi @ xi)
        assert m == pytest.approx(np.exp(-0.5j * np.log(kappa)), abs=1e-8)
        assert abs(m) == pytest.approx(1.0, abs=1e-9)


def test_zero_pair_gives_zero():
    (m,) = multiplier_autonomous_grid(np.zeros((2, 2)), None, np.eye(2), LevyMeasureRn(dim=2), [[1.0, 1.0]])
    assert m == 0.0


def test_time_profile_requires_decay():
    with pytest.raises(ValueError, match="non-integrable"):
        multiplier_time_dependent(ImaginaryPowerProfile(0.5), None, [[0.0]], LevyMeasureRn(dim=1), [[1.0]])


def test_profile_sup_norm():
    prof = ImaginaryPowerProfile(1.0)
    assert prof.sup_norm == pytest.approx(1.0 / abs(gamma(1.0 + 1.0j)), rel=1e-13)
    s = np.array([0.1, 1.0, 7.0])
    assert np.allclose(np.abs(prof(s)), prof.sup_norm)


def test_spec_validation_catches_overdeclared_bounds():
    nu = LevyMeasureRn(dim=2, atoms=(((1.0, 0.0), 1.0),))
    with pytest.raises(ValueError, match="bound"):
        check_bounds(np.eye(2), 0.3, nu, 0.5, 1.0)
    check_bounds(np.eye(2), 0.3, nu, 1.0, 0.3)
    with pytest.raises(ValueError, match="psi"):
        check_bounds(np.eye(2), 0.3, nu, 1.0, 0.2)


def test_boundedness_over_random_grid_sample():
    # reduced-size version of the lattice sweep run by the verify suite
    from levymult.verify import _random_multiplier_fixture

    lattice = np.array(
        [[i, j] for i in range(-8, 8) for j in range(-8, 8) if (i, j) != (0, 0)], dtype=float
    )
    worst = 0.0
    for i in range(60):
        gen = rngmod.stream(77, rngmod.SPEC_DRAW, i)
        amat, psi, a, nu = _random_multiplier_fixture(gen)
        vals = multiplier_autonomous_grid(amat, psi, a, nu, lattice)
        worst = max(worst, float(np.max(np.abs(vals))))
    assert worst <= 1.0 + 1e-9


def test_symmetric_range_property():
    # symmetric A with spectrum in [b, B], no jumps: values stay in [b, B]
    rng = np.random.default_rng(8)
    b, bb = -0.4, 0.9
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    amat = (q * np.array([b, bb])) @ q.T
    a = np.eye(2) * 0.7
    lattice = np.array([[i, j] for i in range(-6, 7) for j in range(-6, 7) if (i, j) != (0, 0)], dtype=float)
    vals = multiplier_autonomous_grid(amat, None, a, LevyMeasureRn(dim=2), lattice)
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert np.min(vals.real) >= b - 1e-12
    assert np.max(vals.real) <= bb + 1e-12


# -- the half-angle jump kernel ------------------------------------------------


def _criterion1_density(scale=1.1):
    return RadialDensity(profile=lambda r, u, s=scale: s * np.exp(-r) / r, inner=0.06, outer=0.45, nodes=72)


def _nonzero_lattice(n):
    k = np.fft.fftfreq(n) * n
    xi = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    return xi[np.any(xi != 0.0, axis=1)]


def _rowwise(fn, xi, pts, w, rows=256):
    return np.concatenate([fn(xi[lo : lo + rows] @ pts.T) @ w for lo in range(0, len(xi), rows)])


def _half_angle_reference(xi, pts, w):
    """2 sum_q w_q sin^2(xi . y_q / 2), summed node by node."""
    return _rowwise(lambda ph: 2.0 * np.sin(0.5 * ph) ** 2, np.atleast_2d(xi), pts, w)


def _one_minus_cos_reference(xi, pts, w):
    return _rowwise(lambda ph: 1.0 - np.cos(ph), np.atleast_2d(xi), pts, w)


def _grid_route(xi, pts, wmat):
    """The separable route on the magnitude tables of the frequencies, whatever it costs."""
    return _separable_sums(_magnitude_tables(0.5 * xi), pts, wmat)


def _kernel_case(case):
    if case == "lattice-density":
        pts, w = LevyMeasureRn(dim=2, density=_criterion1_density()).quadratures[0]
        return _nonzero_lattice(64), pts, w
    if case == "dim1-density":
        pts, w = LevyMeasureRn(dim=1, density=_criterion1_density(0.7)).quadratures[1]
        xi = np.arange(-32.0, 32.0)
        return xi[xi != 0.0][:, None], pts, w
    if case == "complex-modulator":
        pts, w = LevyMeasureRn(dim=2, density=_criterion1_density(0.9)).quadratures[0]
        return _nonzero_lattice(16), pts, w * 0.8 * np.exp(1j * (pts[:, 0] - 2.0 * pts[:, 1]))
    pts, w = LevyMeasureRn(dim=2, density=_criterion1_density()).quadratures[0]
    return rngmod.stream(3, rngmod.SPEC_DRAW).standard_normal((7, 2)) * 5.0, pts, w


@pytest.mark.parametrize("case", ["lattice-density", "dim1-density", "complex-modulator", "scattered"])
def test_grid_and_direct_routes_agree_with_one_minus_cos(case):
    xi, pts, w = _kernel_case(case)
    wmat = np.stack([w.real, w.imag], axis=1) if np.iscomplexobj(w) else w[:, None]
    grid = _grid_route(xi, pts, wmat)
    direct = _direct_sums(0.5 * xi, pts, wmat)
    (chosen,) = oneminus_cos_sums(xi, pts, w)
    if np.iscomplexobj(w):
        grid, direct = grid[:, 0] + 1j * grid[:, 1], direct[:, 0] + 1j * direct[:, 1]
    else:
        grid, direct = grid[:, 0], direct[:, 0]
    # on the lattice the helper takes the grid route, elsewhere the direct one
    assert np.array_equal(chosen, grid if case in ("lattice-density", "complex-modulator") else direct)
    scale = _half_angle_reference(xi, pts, np.abs(w))
    for ref in (_half_angle_reference(xi, pts, w), _one_minus_cos_reference(xi, pts, w)):
        assert np.max(np.abs(grid - ref) / scale) <= 1e-12
        assert np.max(np.abs(direct - ref) / scale) <= 1e-12


def _complex_modulated(pts, w):
    return w * 0.8 * np.exp(1j * (pts[:, 0] - 2.0 * pts[:, 1]))


def test_lattice_sums_are_exactly_even():
    xi = _nonzero_lattice(64)
    pts, w = LevyMeasureRn(dim=2, density=_criterion1_density()).quadratures[0]
    weights = (w, _complex_modulated(pts, w))
    assert _lattice_factors(0.5 * xi, len(pts)) is not None and _lattice_factors(-0.5 * xi, len(pts)) is not None
    for plus, minus in zip(oneminus_cos_sums(xi, pts, *weights), oneminus_cos_sums(-xi, pts, *weights)):
        assert np.array_equal(plus, minus)


def _unsymmetric_case(case):
    if case == "shifted-lattice":
        pts, w = LevyMeasureRn(dim=2, density=_criterion1_density()).quadratures[0]
        return _nonzero_lattice(64) + [0.25, 0.0], pts, _complex_modulated(pts, w)
    if case == "half-lattice":
        pts, w = LevyMeasureRn(dim=2, density=_criterion1_density(0.8)).quadratures[0]
        xi = _nonzero_lattice(64)
        return xi[xi[:, 0] >= 0.0], pts, w
    gen = rngmod.stream(5, rngmod.SPEC_DRAW)
    k = np.fft.fftfreq(8) * 8
    xi = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3)[1:]
    pts = gen.uniform(-1.5, 1.5, size=(9, 3))
    return xi, pts, gen.uniform(0.2, 1.0, size=9) * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, size=9))


@pytest.mark.parametrize("case", ["shifted-lattice", "half-lattice", "atoms-3d"])
def test_lattice_route_on_unsymmetric_frequency_sets(case):
    # the magnitude identity needs no symmetry: every sign of f and r is read from its own tables
    xi, pts, w = _unsymmetric_case(case)
    assert _lattice_factors(0.5 * xi, len(pts)) is not None
    (sums,) = oneminus_cos_sums(xi, pts, w)
    scale = _half_angle_reference(xi, pts, np.abs(w))
    assert np.max(np.abs(sums - _half_angle_reference(xi, pts, w)) / scale) <= 1e-12


def test_lattice_tables_hold_magnitudes_and_classes_up_to_sign():
    xi = _nonzero_lattice(64)
    pts, _ = LevyMeasureRn(dim=2, density=_criterion1_density()).quadratures[0]
    mags, mag_idx, classes, class_idx, signs = _lattice_factors(0.5 * xi, len(pts))
    assert len(mags) == 33 and classes.shape == (33, 1)
    assert np.array_equal(mags[mag_idx], np.abs(0.5 * xi[:, 0]))
    assert np.array_equal(classes[class_idx, 0], np.abs(0.5 * xi[:, 1]))
    assert np.array_equal(signs, np.sign(xi[:, 0]) * np.where(xi[:, 1] < 0.0, -1.0, 1.0))


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-4])
def test_small_frequencies_keep_a_positive_denominator(scale):
    # a = 0: the whole denominator is the jump part, where 1 - cos(xi . y) rounds to 0
    xi = np.array([[scale, 0.0]])
    zero = np.zeros((2, 2))
    atom = LevyMeasureRn(dim=2, atoms=(((0.3, 0.1), 1.0),))
    dens = LevyMeasureRn(dim=2, density=_criterion1_density())
    for nu, (pts, w) in ((atom, (atom.atom_points, atom.atom_masses)), (dens, dens.quadratures[1])):
        (den,) = oneminus_cos_sums(xi, pts, w)
        ref = _half_angle_reference(xi, pts, w)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(den - ref) / ref) <= 1e-12
        m = multiplier_autonomous_grid(zero, 0.5, zero, nu, xi)
        assert m[0] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-4])
def test_time_dependent_multiplier_at_small_frequencies(scale):
    # the decay rate Re rho and the jump integral take the same half-angle sums; without diffusion m = psi
    zero = np.zeros((2, 2))
    for nu in (LevyMeasureRn(dim=2, atoms=(((0.3, 0.1), 1.0),)), LevyMeasureRn(dim=2, density=_criterion1_density())):
        (m,) = multiplier_time_dependent(ImaginaryPowerProfile(0.5), 0.5, zero, nu, [[scale, 0.0]])
        assert m == pytest.approx(0.5, rel=1e-12)


def test_small_frequencies_on_a_scaled_lattice():
    xi = _nonzero_lattice(64) * 1e-9
    nu = LevyMeasureRn(dim=2, density=_criterion1_density())
    pts, w = nu.quadratures[0]
    assert _lattice_factors(0.5 * xi, len(pts)) is not None  # the grid route runs
    (den,) = oneminus_cos_sums(xi, pts, w)
    ref = _half_angle_reference(xi, pts, w)
    assert np.max(np.abs(den - ref) / ref) <= 1e-12
    zero = np.zeros((2, 2))
    m = multiplier_autonomous_grid(zero, lambda y: 0.5 + 0.25 * np.tanh(y[:, 0]), zero, nu, xi)
    pts_f, w_f = nu.quadratures[1]
    expected = _half_angle_reference(xi, pts_f, w_f * (0.5 + 0.25 * np.tanh(pts_f[:, 0])))
    expected = expected / _half_angle_reference(xi, pts_f, w_f)
    assert np.max(np.abs(m - expected) / np.abs(expected)) <= 1e-12

