import numpy as np
import pytest

from levymult.euclid import ImaginaryPowerProfile
from levymult.groups import (
    GroupLevyMeasure,
    dim_stacks,
    dual_enumerate,
    get_irrep,
    identity_element,
    irrep_stack_batch,
    su2_exp,
)
from levymult.levy import BernsteinSpec, bernstein_eval
from levymult.symbols import (
    atom_reps,
    central_alpha,
    central_multiplier,
    central_symbols,
    generator_matrix,
    laplace_symbols,
    stack_rows,
    subordination_symbols,
    symbol_table,
)


def riesz2(c, stack):
    """Second-order Riesz symbols of a stack: the central symbol at c = 1 without jumps."""
    return central_symbols(c, None, 1.0, GroupLevyMeasure(stack[0].group), stack, None)[:2]


def one(symbols):
    """The block of a one-irrep stack, which must be defined."""
    (block,), (defined,) = symbols[:2]
    assert defined
    return block


def test_riesz2_identity_coefficients():
    for pi in (get_irrep("su2", 0.5), get_irrep("su2", 1.5), get_irrep("t2", (2, -1))):
        out = one(riesz2(np.eye(len(pi.generators)), [pi]))
        assert np.max(np.abs(out - np.eye(pi.dim))) < 1e-10


def test_riesz2_t2_scalar():
    pi = get_irrep("t2", (2, 1))
    out = one(riesz2(np.diag([1.0, -1.0]), [pi]))
    assert out[0, 0] == pytest.approx((4.0 - 1.0) / 5.0)


def test_riesz2_su2_rank_one_coefficient():
    # C = e1 e1^T on the fundamental: -(1/kappa)((i/2)s1)^2 = (1/3) I
    c = np.zeros((3, 3))
    c[0, 0] = 1.0
    out = one(riesz2(c, [get_irrep("su2", 0.5)]))
    assert np.max(np.abs(out - np.eye(2) / 3.0)) < 1e-14


def test_riesz2_trivial_undefined():
    (block,), (defined,) = riesz2(np.eye(1), [get_irrep("t1", 0)])
    assert not defined and np.all(block == 0.0)


def test_transform_pair_matrix_of_the_wrong_shape_is_refused():
    stack = [get_irrep("t2", (1, 2))]
    for c in (np.eye(1), np.eye(3)):
        with pytest.raises(ValueError, match="must be 2x2"):
            riesz2(c, stack)


@pytest.mark.parametrize("kappa,gamma", [(1.0, 0.5), (4.0, 0.5), (4.0, 1.0), (9.0, 1.0)])
def test_laplace_imaginary_power(kappa, gamma):
    k = int(round(np.sqrt(kappa)))
    out = one(laplace_symbols(ImaginaryPowerProfile(gamma), [get_irrep("t1", k)]))
    assert out[0, 0] == pytest.approx(np.exp(-1j * gamma * np.log(kappa)), abs=1e-6)


def test_laplace_kappa_one_is_one():
    out = one(laplace_symbols(ImaginaryPowerProfile(0.8), [get_irrep("t1", 1)]))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_subordination_t1_closed_form():
    theta0 = 1.3
    nu = GroupLevyMeasure("t1", ((np.array([theta0]), 1.0),))
    h = BernsteinSpec(c=1.0)
    for k in (1, 2, 3):
        out = one(subordination_symbols(1.0, h, nu, [get_irrep("t1", k)]))
        assert out[0, 0] == pytest.approx((1.0 - np.cos(k * theta0)) / k**2, abs=1e-13)


def test_subordination_over_a_dual_builds_the_bernstein_quadrature_once(monkeypatch):
    from levymult import levy

    builds = []
    original = levy._log_gl_nodes

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(levy, "_log_gl_nodes", counted)
    density = levy.PositiveDensity(profile=lambda y: y**-1.5 / (2.0 * np.sqrt(np.pi)), inner=1e-4, outer=1e3, nodes=24)
    h = BernsteinSpec(c=0.1, density=density)
    nu = GroupLevyMeasure("t2", ((np.array([0.5, -1.1]), 0.9),))
    dual = [pi for pi in dual_enumerate("t2", 3) if pi.casimir > 0.0]
    for pi in dual:
        subordination_symbols(np.array([0.7]), h, nu, [pi])
    assert len(dual) == 48
    assert len(builds) == 2  # the coarse and the fine rule, once each


def test_subordination_zero_psi():
    nu = GroupLevyMeasure("t1", ((np.array([0.5]), 2.0),))
    out = one(subordination_symbols(0.0, BernsteinSpec(c=1.0), nu, [get_irrep("t1", 2)]))
    assert np.max(np.abs(out)) == 0.0


def test_subordination_su2_direct_assembly():
    tau = su2_exp([0.4, -0.7, 0.9])
    nu = GroupLevyMeasure("su2", ((tau, 1.3),))
    h = BernsteinSpec(c=0.0, atoms=((1.0, 1.0),))  # h(u) = 1 - e^{-u}
    pi = get_irrep("su2", 0.5)
    out = one(subordination_symbols(np.array([0.8]), h, nu, [pi]))
    rep = irrep_stack_batch([pi], [tau])[0, 0]
    manual = 1.3 * 0.8 * (2 * np.eye(2) - rep - rep.conj().T)
    manual /= 2.0 * (1.0 - np.exp(-0.75))
    assert np.max(np.abs(out - manual)) < 1e-12


def test_central_alpha_examples():
    pi = get_irrep("su2", 0.5)
    empty = GroupLevyMeasure("su2")
    assert central_alpha(2.0, empty, pi) == pytest.approx(-2.0 * 0.75)
    tau = su2_exp([0.0, 0.0, np.pi])
    nu = GroupLevyMeasure("su2", ((tau, 1.0),))
    # normalised character of diag(i, -i) vanishes
    assert central_alpha(0.0, nu, pi) == pytest.approx(-1.0, abs=1e-14)
    assert central_alpha(0.0, nu, pi).real <= 1e-12


def test_central_alpha_nonpositive_real_part():
    rng = np.random.default_rng(2)
    for _ in range(20):
        tau = su2_exp(rng.standard_normal(3))
        nu = GroupLevyMeasure("su2", ((tau, float(rng.uniform(0.1, 2.0))),))
        for j in (0.5, 1.0, 1.5):
            assert central_alpha(float(rng.uniform(0, 1)), nu, get_irrep("su2", j)).real <= 1e-12


def test_central_multiplier_riesz_specialisation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    pi = get_irrep("su2", 1.0)
    out = central_multiplier(a, None, 1.0, GroupLevyMeasure("su2"), pi)
    x = pi.generators
    riesz = -sum(a[j, i] * x[i] @ x[j] for i in range(3) for j in range(3)) / pi.casimir
    assert np.max(np.abs(out - riesz)) < 1e-12


def test_central_multiplier_subordination_specialisation():
    tau = su2_exp([0.6, 0.3, 1.1])
    nu = GroupLevyMeasure("su2", ((tau, 0.9),))
    h = BernsteinSpec(c=0.1, atoms=((0.8, 2.0),))
    psi = np.array([0.7])
    for j in (0.5, 1.0):
        pi = get_irrep("su2", j)
        via_central = one(central_symbols(None, psi, 0.0, nu, [pi], -bernstein_eval(h, np.array([pi.casimir]))))
        direct = one(subordination_symbols(psi, h, nu, [pi]))
        assert np.max(np.abs(via_central - direct)) < 1e-10


def test_central_multiplier_zero_pair():
    nu = GroupLevyMeasure("t1", ((np.array([1.0]), 1.0),))
    out = central_multiplier(None, 0.0, 0.5, nu, get_irrep("t1", 2))
    assert np.max(np.abs(out)) == 0.0


def test_central_multiplier_requires_decay():
    with pytest.raises(ValueError, match="alpha"):
        central_multiplier(np.eye(1), None, 0.0, GroupLevyMeasure("t1"), get_irrep("t1", 1))


def _central_multiplier_reference(amat, psi, c, nu, pi, alpha=None):
    """The central-process symbol of one irrep, atom by atom from its definition."""
    reps = [irrep_stack_batch([pi], [tau])[0, 0] for tau, _ in nu.atoms]
    if alpha is None:
        alpha = -c * pi.casimir + sum(m * (np.trace(r) / pi.dim - 1.0) for (_, m), r in zip(nu.atoms, reps))
    grad = sum(amat[j, i] * pi.generators[i] @ pi.generators[j] for i in range(len(amat)) for j in range(len(amat)))
    jump = sum(m * p * (2.0 * np.eye(pi.dim) - r - r.conj().T) for (_, m), p, r in zip(nu.atoms, psi, reps))
    return c * grad / alpha.real - jump / (2.0 * alpha.real)


def test_central_multipliers_stack_matches_definition():
    rng = np.random.default_rng(9)
    t2_nu = GroupLevyMeasure("t2", ((np.array([0.4, -1.1]), 0.8), (np.array([2.0, 0.3]), 0.5)))
    t2_stack = [get_irrep("t2", (k1, k2)) for k1 in range(-4, 5) for k2 in range(-4, 5) if k1 or k2]
    su2_nu = GroupLevyMeasure("su2", ((su2_exp([0.6, 0.3, 1.1]), 0.9), (-np.eye(2), 0.4)))
    for nu, stack in ((t2_nu, t2_stack), (su2_nu, [get_irrep("su2", 1.5)])):
        n = len(stack[0].generators)
        amat, psi = rng.standard_normal((n, n)), rng.uniform(-1.0, 1.0, size=2)
        alphas = -rng.uniform(0.5, 2.0, size=len(stack)) + 0.3j
        for alpha in (None, alphas):
            out, defined, _ = central_symbols(amat, psi, 0.35, nu, stack, alpha)
            assert defined.all()
            for k, pi in enumerate(stack):
                expect = _central_multiplier_reference(
                    amat, psi, 0.35, nu, pi, None if alpha is None else alpha[k]
                )
                assert np.max(np.abs(out[k] - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_central_symbols_mask_a_vanishing_exponent():
    stack = [get_irrep("t1", k) for k in (1, 2, 3)]
    out, defined, _ = central_symbols(np.eye(1), None, 0.5, GroupLevyMeasure("t1"), stack, np.array([-1.0, 0.0, -2.0]))
    assert defined.tolist() == [True, False, True]
    assert np.all(out[1] == 0.0)


def test_generator_matrix_matches_alpha_for_central_data():
    nu = GroupLevyMeasure("su2", ((-np.eye(2), 0.7),))
    for j in (0.5, 1.0):
        pi = get_irrep("su2", j)
        lmat = generator_matrix(0.4, nu, pi)
        alpha = central_alpha(0.4, nu, pi)
        assert np.max(np.abs(lmat - alpha * np.eye(pi.dim))) < 1e-12


def test_symbol_table_trivial_policy():
    dual = dual_enumerate("t1", 2)
    riesz = lambda pi: central_multiplier(np.eye(1), None, 1.0, GroupLevyMeasure("t1"), pi)
    table = symbol_table(dual, riesz, trivial=0.0)
    assert table[0][0, 0] == 0.0
    assert table[2][0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        symbol_table(dual, riesz)


# one test per symbol kind on a stack mixing defined and undefined modes


def test_riesz2_stack_matches_each_label_and_masks_only_constants():
    rng = np.random.default_rng(11)
    for group, cutoff in (("t2", 2), ("su2", 2.0)):
        n = 2 if group == "t2" else 3
        c = rng.standard_normal((n, n))
        dual = dual_enumerate(group, cutoff)
        for pi, (block, defined) in zip(dual, stack_rows(dual, lambda stack: riesz2(c, stack))):
            assert defined == (pi.casimir > 0.0)
            if not defined:
                assert np.all(block == 0.0)
                continue
            x = pi.generators
            expect = -sum(c[j, i] * x[i] @ x[j] for i in range(n) for j in range(n)) / pi.casimir
            assert np.max(np.abs(block - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_laplace_stack_matches_each_label_and_masks_only_constants():
    profile = ImaginaryPowerProfile(0.6)
    dual = dual_enumerate("t1", 3)
    out, defined = laplace_symbols(profile, dual)
    assert defined.tolist() == [pi.casimir > 0.0 for pi in dual]
    for pi, block, ok in zip(dual, out, defined):
        if not ok:
            assert np.all(block == 0.0)
            continue
        assert np.array_equal(block, one(laplace_symbols(profile, [pi])))
        assert block[0, 0] == pytest.approx(np.exp(-0.6j * np.log(pi.casimir)), abs=1e-6)


@pytest.mark.parametrize("h", [BernsteinSpec(c=0.2, atoms=((0.7, 1.5),)), BernsteinSpec()], ids=["h", "h-zero"])
def test_subordination_stack_matches_each_label_and_masks_trivial_and_h_zero(h):
    tau = su2_exp([0.4, -0.7, 0.9])
    nu = GroupLevyMeasure("su2", ((tau, 1.3), (-np.eye(2), 0.4)))
    psi = np.array([0.8, -0.3])
    dual = dual_enumerate("su2", 2.0)
    for pi, (block, defined) in zip(dual, stack_rows(dual, lambda stack: subordination_symbols(psi, h, nu, stack))):
        hk = float(bernstein_eval(h, pi.casimir)) if pi.casimir > 0.0 else 0.0
        assert defined == (hk != 0.0)
        if not defined:
            assert np.all(block == 0.0)
            continue
        reps = irrep_stack_batch([pi], [tau, -np.eye(2)])[:, 0]
        expect = sum(m * p * (2 * np.eye(pi.dim) - r - r.conj().T) for m, p, r in zip((1.3, 0.4), psi, reps))
        assert np.max(np.abs(block - expect / (2.0 * hk))) <= 1e-12 * np.max(np.abs(expect / hk))


def test_central_stack_matches_each_label_and_masks_modes_without_decay():
    # c = 0, one atom at (pi, 0): the modes with even k1 do not see the atom
    nu = GroupLevyMeasure("t2", ((np.array([np.pi, 0.0]), 0.9),))
    amat, psi = np.array([[0.4, 0.1], [0.0, -0.3]]), np.array([0.6])
    dual = dual_enumerate("t2", 2)
    out, defined, alpha = central_symbols(amat, psi, 0.0, nu, dual, None)
    assert defined.tolist() == [pi.label[0] % 2 == 1 for pi in dual]
    for pi, block, ok, a in zip(dual, out, defined, alpha):
        assert a == central_alpha(0.0, nu, pi)
        if not ok:
            assert np.all(block == 0.0)
            continue
        expect = _central_multiplier_reference(amat, psi, 0.0, nu, pi)
        assert np.max(np.abs(block - expect)) <= 1e-12 * np.max(np.abs(expect))


TABLE_ATOMS = {
    "t1": ((np.array([1.7]), 1.1), (np.array([4.0]), 0.6)),
    "t2": ((np.array([1.1, 0.7]), 0.8), (np.array([2.3, 4.1]), 0.5), (np.array([-0.4, 3.0]), 1.25)),
    "su2": ((su2_exp([0.6, 0.3, 1.1]), 0.9), (-np.eye(2), 0.4)),
}


@pytest.mark.parametrize("group", sorted(TABLE_ATOMS))
def test_a_measure_owns_its_read_only_atom_table(group):
    atoms = TABLE_ATOMS[group]
    nu = GroupLevyMeasure(group, atoms)
    shape = np.shape(identity_element(group))
    assert nu.atom_points.shape == (len(atoms),) + shape
    assert np.array_equal(nu.atom_points, [tau for tau, _ in atoms])
    assert np.array_equal(nu.atom_masses, [m for _, m in atoms])
    for table in (nu.atom_points, nu.atom_masses):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    empty = GroupLevyMeasure(group)
    assert empty.atom_points.shape == (0,) + shape and empty.atom_masses.shape == (0,)
    # every layer reads pi(tau) at the atoms through atom_reps: bitwise what a hand-built batch gives
    hand_built = np.array([tau for tau, _ in atoms], dtype=complex if group == "su2" else float)
    for stack in dim_stacks(dual_enumerate(group, 2)):
        assert atom_reps(nu, stack).tobytes() == irrep_stack_batch(stack, hand_built).tobytes()
