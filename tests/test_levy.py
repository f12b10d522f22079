import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from levymult.euclid import ImaginaryPowerProfile, multiplier_autonomous_grid
from levymult.groups import GroupLevyMeasure
from levymult.levy import (
    BernsteinSpec,
    LevyMeasureRn,
    LevyTriple,
    PositiveDensity,
    QuadratureError,
    RadialDensity,
    bernstein_atoms,
    bernstein_eval,
    factor_diffusion,
    symbol_grid,
)
from levymult.linalg import NotPositiveSemidefinite, gauss_legendre
from levymult.simulate import GroupProcessSpec


# -- exponent evaluation -----------------------------------------------------


def test_pure_gaussian_symbol():
    triple = LevyTriple(drift=np.zeros(2), diffusion=np.eye(2), nu=LevyMeasureRn(dim=2))
    (re,), (im,) = symbol_grid(triple, [[1.0, 2.0]])
    assert re == pytest.approx(-5.0, abs=1e-14)
    assert im == 0.0


def test_symmetric_atoms_cancel_imaginary_part():
    nu = LevyMeasureRn(dim=1, atoms=(((1.0,), 1.0), ((-1.0,), 1.0)))
    triple = LevyTriple(drift=[0.0], diffusion=[[0.0]], nu=nu)
    for xi in (0.3, 0.7, 2.0):
        (re,), (im,) = symbol_grid(triple, [[xi]])
        assert re == pytest.approx(2.0 * (np.cos(xi) - 1.0), abs=1e-14)
        assert im == 0.0


def test_density_symbol_against_adaptive_quadrature():
    alpha, eps, outer = 1.2, 1e-4, 1e3
    dens = RadialDensity(profile=lambda r, u: r ** (-1 - alpha), inner=eps, outer=outer, nodes=768)
    nu = LevyMeasureRn(dim=1, density=dens)
    triple = LevyTriple(drift=[0.0], diffusion=[[0.0]], nu=nu)
    (re,), (im,) = symbol_grid(triple, [[1.0]])
    oracle = 0.0
    for a, b in ((eps, 1.0), (1.0, 10.0), (10.0, 100.0), (100.0, outer)):
        oracle += 2.0 * quad(lambda y: (np.cos(y) - 1.0) * y ** (-1 - alpha), a, b, limit=2000)[0]
    assert re == pytest.approx(oracle, abs=1e-6)
    assert im == 0.0


def test_drift_enters_imaginary_part_only():
    triple = LevyTriple(drift=[0.5, -1.0], diffusion=np.eye(2), nu=LevyMeasureRn(dim=2))
    (re,), (im,) = symbol_grid(triple, [[2.0, 1.0]])
    assert re == pytest.approx(-5.0)
    assert im == pytest.approx(0.5 * 2.0 - 1.0)


def test_compensator_indicator_only_inside_unit_ball():
    nu = LevyMeasureRn(dim=1, atoms=(((0.5,), 1.0), ((2.0,), 1.0)))
    triple = LevyTriple(drift=[0.0], diffusion=[[0.0]], nu=nu)
    _, (im,) = symbol_grid(triple, [[1.0]])
    assert im == pytest.approx((np.sin(0.5) - 0.5) + np.sin(2.0), abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    xi=st.floats(min_value=-8.0, max_value=8.0),
    point=st.floats(min_value=-3.0, max_value=3.0).filter(lambda v: abs(v) > 1e-3),
    mass=st.floats(min_value=0.05, max_value=3.0),
)
def test_real_part_nonpositive_and_even(xi, point, mass):
    nu = LevyMeasureRn(dim=1, atoms=(((point,), mass),))
    triple = LevyTriple(drift=[0.3], diffusion=[[0.4]], nu=nu)
    (re_p, re_m), _ = symbol_grid(triple, [[xi], [-xi]])
    assert re_p <= 0.0
    assert re_p == pytest.approx(re_m, abs=1e-12)


def test_symbol_grid_vectorises():
    nu = LevyMeasureRn(dim=2, atoms=(((0.5, 0.1), 0.7),))
    triple = LevyTriple(drift=[0.1, 0.0], diffusion=0.3 * np.eye(2), nu=nu)
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    re, im = symbol_grid(triple, pts)
    for row, r, i in zip(pts, re, im):
        (rr,), (ii,) = symbol_grid(triple, [row])
        assert (rr, ii) == (pytest.approx(r), pytest.approx(i))


def _underresolved_radial(dim):
    # eight nodes per decade cannot track the density's sin(300 r) out to r = 30
    dens = RadialDensity(profile=lambda r, u: r**-1.5 * (1.0 + np.sin(300.0 * r)), inner=1e-2, outer=30.0, nodes=8)
    return LevyMeasureRn(dim=dim, density=dens)


def _smooth_radial(dim):
    # a smooth density, but eight nodes per decade cannot track cos(xi . y)
    # out to |y| = 30 at |xi| ~ 40
    return LevyMeasureRn(dim=dim, density=RadialDensity(profile=lambda r, u: r**-1.5, inner=1e-2, outer=30.0, nodes=8))


def _nonzero_lattice(n):
    k = np.fft.fftfreq(n) * n
    xi = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    return xi[np.any(xi != 0.0, axis=1)]


def _underresolved_for_large_psi():
    # at xi = (0, 11) the sum alone passes refinement at 0.28 x its tolerance; psi = 50 takes the psi sum's gap to 4 x
    dens = RadialDensity(profile=lambda r, u: 0.03 * np.exp(-r) / r, inner=0.06, outer=0.45, nodes=8)
    return LevyMeasureRn(dim=2, density=dens)


def _exp_density_48():
    # at xi = (0, 9) the coarse/fine gap of the sum is 2.3 x its own tolerance
    return LevyMeasureRn(dim=2, density=RadialDensity(profile=lambda r, u: np.exp(-r) / r, inner=0.05, outer=2.0, nodes=48))


def _consumer_case(case):
    """A call that sums an under-resolved density: the refinement rule must refuse it."""
    eye = np.eye(2)
    if case == "eval_symbol":
        return lambda: symbol_grid(LevyTriple(drift=[0.0], diffusion=[[0.0]], nu=_underresolved_radial(1)), [[2.0]])
    if case in ("eval_symbol-diffusion", "eval_symbol-drift"):
        # the gap is the sum's alone: -a xi.xi and b.xi, added to it, once raised the tolerance above the gap
        drift, a = ([0.0, 0.0], 0.5 * eye) if case == "eval_symbol-diffusion" else ([0.0, 3.0], 0.0 * eye)
        return lambda: symbol_grid(LevyTriple(drift=drift, diffusion=a, nu=_exp_density_48()), [[0.0, 9.0]])
    if case == "smooth-eval_symbol":
        return lambda: symbol_grid(LevyTriple(drift=[0.0], diffusion=[[0.0]], nu=_smooth_radial(1)), [[40.0]])
    if case in ("smooth-autonomous", "smooth-lattice"):
        xi = 5.0 * _nonzero_lattice(16) if case == "smooth-lattice" else np.array([[40.0, 0.0]])
        return lambda: multiplier_autonomous_grid(eye, 0.5, eye, _smooth_radial(2), xi)
    if case == "autonomous-psi50":
        nu, xi = _underresolved_for_large_psi(), np.array([[0.0, 11.0]])
        multiplier_autonomous_grid(eye, 0.5, eye, nu, xi)  # accepted: the refusal below is the psi-scaled gap's
        return lambda: multiplier_autonomous_grid(eye, 50.0, eye, nu, xi)
    if case in ("autonomous", "time"):
        nu, psi = _underresolved_radial(2), 0.5
        if case == "autonomous":
            return lambda: multiplier_autonomous_grid(eye, psi, eye, nu, np.array([[3.0, 4.0], [1.0, -2.0]]))
        return lambda: multiplier_autonomous_grid(ImaginaryPowerProfile(0.5), psi, eye, nu, np.array([[3.0, 4.0]]))
    dens = PositiveDensity(profile=lambda y: y**-1.5 * (1.0 + np.sin(300.0 * y)), inner=1e-2, outer=30.0, nodes=8)
    return lambda: bernstein_eval(BernsteinSpec(density=dens), [0.5, 2.0])


@pytest.mark.parametrize(
    "case",
    [
        "eval_symbol",
        "eval_symbol-diffusion",
        "eval_symbol-drift",
        "smooth-eval_symbol",
        "autonomous",
        "autonomous-psi50",
        "smooth-autonomous",
        "smooth-lattice",
        "time",
        "bernstein",
    ],
)
def test_every_density_sum_is_refused_when_refinement_disagrees(case):
    with pytest.raises(QuadratureError, match="did not stabilise"):
        _consumer_case(case)()


def test_density_quadratures_are_built_once_and_keep_their_node_counts():
    nu = LevyMeasureRn(dim=1, density=RadialDensity(profile=lambda r, u: r**-1.5, inner=1e-2, outer=10.0, nodes=16))
    coarse, fine = nu.quadratures
    assert nu.quadratures is nu.quadratures
    assert len(fine[0]) == 2 * len(coarse[0]) == 2 * 2 * 3 * 16  # two directions, three decades
    dens = PositiveDensity(profile=lambda y: y**-1.5, inner=1e-2, outer=10.0, nodes=16)
    (y_c, _), (y_f, _) = dens.quadratures
    assert dens.quadratures is dens.quadratures
    assert len(y_f) == 2 * len(y_c) == 2 * 3 * 16
    assert LevyMeasureRn(dim=1).quadratures is None


def test_atom_at_origin_rejected():
    with pytest.raises(ValueError):
        LevyMeasureRn(dim=1, atoms=(((0.0,), 1.0),))
    with pytest.raises(ValueError):
        LevyMeasureRn(dim=1, atoms=(((1.0,), -2.0),))


def test_rn_and_bernstein_atom_tables_are_built_once_and_read_only():
    nu = LevyMeasureRn(dim=2, atoms=(((0.5, -1.0), 0.7), (np.array([2.0, 0.25]), 1.5)))
    spec = BernsteinSpec(c=0.1, atoms=((0.5, 2.0), (3.0, 0.25)))
    assert np.array_equal(nu.atom_points, [[0.5, -1.0], [2.0, 0.25]]) and np.array_equal(nu.atom_masses, [0.7, 1.5])
    assert np.array_equal(spec.atom_y, [0.5, 3.0]) and np.array_equal(spec.atom_masses, [2.0, 0.25])
    assert LevyMeasureRn(dim=2).atom_points.shape == (0, 2) and BernsteinSpec().atom_y.shape == (0,)
    for table in (nu.atom_points, nu.atom_masses, spec.atom_y, spec.atom_masses):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_gauss_legendre_rules_are_built_once_per_node_count_and_read_only():
    x, w = gauss_legendre(72)
    assert gauss_legendre(72)[0] is x and gauss_legendre(144)[0] is not x
    ref_x, ref_w = np.polynomial.legendre.leggauss(72)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    for table in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


_ARRAY_HOLDERS = {
    "group-measure": lambda: GroupLevyMeasure("t2", (((0.4, -1.1), 0.8), ((2.0, 0.3), 0.5))),
    "rn-measure": lambda: LevyMeasureRn(dim=2, atoms=(((0.5, -1.0), 0.7),)),
    "triple": lambda: LevyTriple(drift=[0.3, 0.0], diffusion=np.eye(2), nu=LevyMeasureRn(dim=2)),
    "process-spec": lambda: GroupProcessSpec("t2", 0.3, GroupLevyMeasure("t2", (((0.4, -1.1), 0.8),)), 0.25, 1 / 16, 5),
}


@pytest.mark.parametrize("kind", list(_ARRAY_HOLDERS))
def test_frozen_records_holding_arrays_compare_and_hash_by_identity(kind):
    x, y = _ARRAY_HOLDERS[kind](), _ARRAY_HOLDERS[kind]()
    assert x == x and hash(x) == hash(x)
    assert (x == y) is False and x != y


# -- diffusion factorisation ---------------------------------------------------


def test_factor_identity():
    lam = factor_diffusion(np.eye(2))
    assert np.allclose(lam, np.sqrt(2.0) * np.eye(2), atol=1e-14)


def test_factor_zero():
    assert np.max(np.abs(factor_diffusion(np.zeros((3, 3))))) == 0.0


def test_factor_multiply_back():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam = factor_diffusion(a)
    assert np.allclose(lam @ lam.T, 2.0 * a, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_factor_multiply_back_random_psd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T
    if seed % 3 == 0 and n > 1:
        # force rank deficiency
        u, s, vt = np.linalg.svd(a)
        s[-1] = 0.0
        a = (u * s) @ u.T
    lam = factor_diffusion(a)
    resid = np.max(np.abs(lam @ lam.T - 2.0 * a))
    assert resid <= 1e-10 * (1.0 + np.max(np.abs(a)))


def test_factor_rejects_indefinite():
    with pytest.raises((NotPositiveSemidefinite, ValueError)):
        factor_diffusion(np.array([[1.0, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize(
    "a, accepted",
    [
        ([[1.0, 0.0], [0.0, -1.5e-12]], False),  # eigenvalue above the old eigvalsh bound -2e-12, pivot of 2a -3e-12
        ([[1.0, 0.0], [0.0, -0.4e-12]], True),
        ([[1.0, 1.0], [1.0, 1.0 - 2e-12]], False),
        # left over after a zero pivot: an eigenvalue of -1e-11 and of -5e-12, within the factor's residual bound
        ([[0.0, 1e-11], [1e-11, 0.0]], False),
        (np.diag([1.0, 0.0, -5e-12]), False),
        (np.diag([1.0, 1e-13, 0.0]), True),
        ([[1.0, 1.0], [1.0, 1.0]], True),
        ([[0.0, 0.0], [0.0, 0.0]], True),
    ],
)
def test_a_triple_takes_exactly_the_diffusions_that_factor(a, accepted):
    # one PSD test: the multiplier routes factor what LevyTriple accepted
    n = len(a)
    nu = LevyMeasureRn(dim=n, atoms=((np.linspace(0.8, -0.4, n), 0.6),))
    if accepted:
        triple = LevyTriple(drift=np.zeros(n), diffusion=a, nu=nu)
        lam = factor_diffusion(triple.diffusion)
        assert np.max(np.abs(lam @ lam.T - 2.0 * np.array(a))) <= 1e-10
        return
    with pytest.raises(NotPositiveSemidefinite):
        LevyTriple(drift=np.zeros(n), diffusion=a, nu=nu)
    with pytest.raises(NotPositiveSemidefinite):
        factor_diffusion(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_drift_or_diffusion_entry_is_refused_by_name(bad):
    # refused before the symmetry test: an infinite diagonal entry once factored to a zero matrix, and NaN passed
    nu = LevyMeasureRn(dim=2)
    for pos in range(2):
        drift = np.zeros(2)
        drift[pos] = bad
        with pytest.raises(ValueError, match="^drift must be finite"):
            LevyTriple(drift=drift, diffusion=np.eye(2), nu=nu)
    for pos in [[(0, 0)], [(1, 1)], [(0, 1)], [(1, 0)], [(0, 1), (1, 0)]]:
        a = np.eye(2)
        for p in pos:
            a[p] = bad
        with pytest.raises(ValueError, match="^diffusion must be finite"):
            LevyTriple(drift=np.zeros(2), diffusion=a, nu=nu)
        with pytest.raises(ValueError, match="^diffusion must be finite"):
            factor_diffusion(a)


def test_triple_rejects_asymmetric_diffusion():
    with pytest.raises(ValueError):
        LevyTriple(drift=[0.0, 0.0], diffusion=[[1.0, 0.5], [0.0, 1.0]], nu=LevyMeasureRn(dim=2))


# -- Bernstein functions --------------------------------------------------------


def test_bernstein_linear():
    assert bernstein_eval(BernsteinSpec(c=1.0), 3.0) == pytest.approx(3.0)


def test_bernstein_single_atom():
    spec = BernsteinSpec(c=0.0, atoms=((1.0, 1.0),))
    for u in (0.5, 1.0, 4.0):
        assert bernstein_eval(spec, u) == pytest.approx(1.0 - np.exp(-u), rel=1e-14)


def test_bernstein_stable_half_density():
    dens = PositiveDensity(
        profile=lambda y: y**-1.5 / (2.0 * np.sqrt(np.pi)), inner=1e-10, outer=1e9, nodes=32
    )
    spec = BernsteinSpec(c=0.0, density=dens)
    for u in (1.0, 4.0, 9.0):
        assert bernstein_eval(spec, u) == pytest.approx(np.sqrt(u), abs=1e-4)


def test_bernstein_monotone_and_concave_on_grid():
    dens = PositiveDensity(profile=lambda y: np.exp(-y), inner=1e-8, outer=50.0, nodes=24)
    spec = BernsteinSpec(c=0.2, atoms=((0.7, 0.5),), density=dens)
    u = np.linspace(0.05, 10.0, 120)
    h = bernstein_eval(spec, u)
    d1 = np.diff(h)
    assert np.all(d1 > 0.0)
    assert np.all(np.diff(d1) < 1e-12)
    assert bernstein_eval(spec, 1e-9) == pytest.approx(0.0, abs=1e-6)


def test_bernstein_atoms_discretisation_matches_itself():
    dens = PositiveDensity(profile=lambda y: y**-1.25, inner=1e-4, outer=1e2, nodes=24)
    spec = BernsteinSpec(c=0.1, density=dens)
    disc = bernstein_atoms(spec)
    assert disc.density is None
    assert len(disc.atoms) > 0
    # coarse-node discretisation is exactly the simulated exponent; it stays
    # within the (coarse, fine) quadrature band of the original
    for u in (0.5, 2.0, 8.0):
        assert bernstein_eval(disc, u) == pytest.approx(float(bernstein_eval(spec, u)), rel=1e-6)


@pytest.mark.parametrize("nodes", [0, -2])
def test_positive_density_refuses_fewer_than_one_node_when_built(nodes):
    with pytest.raises(ValueError, match="at least 1 node"):
        PositiveDensity(profile=lambda y: y**-1.5, inner=1e-3, outer=1e2, nodes=nodes)


def test_bernstein_rejects_bad_atoms():
    with pytest.raises(ValueError):
        BernsteinSpec(c=0.0, atoms=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        BernsteinSpec(c=-0.1)
    with pytest.raises(ValueError):
        bernstein_eval(BernsteinSpec(c=1.0), 0.0)
