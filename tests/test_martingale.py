import numpy as np
import pytest

from levymult import martingale as martmod
from levymult import rng as rngmod
from levymult.groups import (
    GroupLevyMeasure,
    dual_enumerate,
    get_irrep,
    haar_sample,
    pw_inverse,
    quadrature_grid,
    random_band_limited,
    su2_exp,
)
from levymult.martingale import (
    central_char_report,
    check_differential_subordination,
    empirical_burkholder,
    empirical_char,
    martingale_transcript,
    projection_deterministic,
    projection_mc_estimate,
    simulate_transform_ensemble,
    transform_context,
)
from levymult.simulate import GroupProcessSpec, ensemble_final_states, simulate_path


@pytest.fixture(scope="module")
def torus_setup():
    nu = GroupLevyMeasure("t1", ((np.array([2.0]), 1.2),))
    spec = GroupProcessSpec("t1", 0.5, nu, 1.0, 1 / 256, seed=11)
    f = random_band_limited("t1", 3, rngmod.stream(3, 1), real=True)
    return spec, f, transform_context(spec, f)


def test_zero_pair_transform_vanishes(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 0)
    tr = ctx.transcript(path, None, 0.0, np.array([0.4]))
    assert np.max(np.abs(tr.m_transform)) == 0.0
    assert np.max(tr.qv_transform) == 0.0


def test_identity_pair_reproduces_representation_exactly(torus_setup):
    spec, f, ctx = torus_setup
    for i in range(3):
        path = simulate_path(spec, i)
        tr = ctx.transcript(path, np.eye(1), 1.0, np.array([0.4]))
        # bitwise: the transform by (I, 1) is the integral representation of M
        assert np.array_equal(tr.m_repr, tr.m[0] + tr.m_transform)
        assert np.array_equal(tr.qv_transform, tr.qv)


def test_transcript_initial_conditions(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 1)
    sigma = np.array([1.1])
    tr = ctx.transcript(path, np.array([[0.8]]), 0.5, sigma)
    # M(0) is the semigroup-smoothed value at the start point
    expect = sum(
        complex(f.blocks[k][0, 0])
        * np.exp(spec.horizon * (-spec.c * k * k + 1.2 * (np.exp(2j * k) - 1.0)))
        * np.exp(1j * k * sigma[0])
        for k in f.blocks
    )
    assert tr.m[0] == pytest.approx(expect, abs=1e-12)
    assert tr.m_transform[0] == 0.0
    assert tr.qv[0] == 0.0


def test_quadratic_variations_nondecreasing(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 2)
    tr = ctx.transcript(path, np.array([[0.7]]), -0.4, np.array([0.0]))
    assert np.min(np.diff(tr.qv)) >= 0.0
    assert np.min(np.diff(tr.qv_transform)) >= 0.0


def test_pure_jump_qv_increments_recomputed_from_path():
    # independent recomputation of the jump quadratic variation terms
    nu = GroupLevyMeasure("t1", ((np.array([1.7]), 2.0),))
    spec = GroupProcessSpec("t1", 0.0, nu, 1.0, 1 / 64, seed=21)
    f = random_band_limited("t1", 3, rngmod.stream(4, 1), real=True)
    ctx = transform_context(spec, f)
    psi_val = 0.85
    labels = sorted(f.blocks)
    fhat = np.array([complex(f.blocks[k][0, 0]) for k in labels])
    kvec = np.array(labels, dtype=float)
    alpha = np.array(
        [2.0 * (np.exp(1j * k * 1.7) - 1.0) for k in kvec]
    )  # mass 2.0 atom at 1.7, c = 0
    sigma = np.array([0.9])
    for i in range(4):
        path = simulate_path(spec, i)
        tr = ctx.transcript(path, None, psi_val, sigma)
        jump_sq = 0.0
        for row in np.flatnonzero(path.kinds == 1):
            s = path.times[row]
            pre = sigma[0] + path.prestates[row, 0]
            w = fhat * np.exp((spec.horizon - s) * alpha)
            dp = np.sum(w * np.exp(1j * kvec * pre) * (np.exp(1j * kvec * 1.7) - 1.0))
            jump_sq += abs(dp) ** 2
        assert tr.qv[-1] == pytest.approx(jump_sq, rel=1e-10)
        assert tr.qv_transform[-1] == pytest.approx(psi_val**2 * jump_sq, rel=1e-10)


PURE_JUMP_ATOMS = {
    "t1": ((np.array([1.7]), 1.1), (np.array([4.0]), 0.6)),
    "t2": ((np.array([1.1, 0.7]), 0.8), (np.array([2.3, 4.1]), 0.5)),
    "su2": ((su2_exp([0.6, 0.3, 1.1]), 0.9), (-np.eye(2), 0.4)),
}


@pytest.mark.parametrize("group", ["t1", "t2", "su2"])
def test_pure_jump_representation_is_exact(group):
    # with c = 0 the state is constant between events, and the compensator is
    # integrated in closed form in time, so the representation has no
    # discretisation bias on any group
    spec = GroupProcessSpec(group, 0.0, GroupLevyMeasure(group, PURE_JUMP_ATOMS[group]), 1.0, 1 / 64, seed=31)
    f = random_band_limited(group, 1.0 if group == "su2" else 2, rngmod.stream(6, 1), real=True)
    ctx = transform_context(spec, f)
    for i in range(5):
        path = simulate_path(spec, i)
        assert path.n_events > 0
        sigma = haar_sample(group, rngmod.stream(6, rngmod.HAAR, i), 1)[0]
        tr = ctx.transcript(path, None, np.array([0.3, -0.8]), sigma)
        assert tr.repr_gap <= 1e-12


@pytest.mark.parametrize("group", ["t2", "su2"])
def test_direct_exponential_fallback_matches_eigenbasis(group, monkeypatch):
    # generator blocks too ill-conditioned to diagonalise are exponentiated
    # directly; forcing that route must give the same transcript
    spec = GroupProcessSpec(group, 0.3, GroupLevyMeasure(group, PURE_JUMP_ATOMS[group]), 0.5, 1 / 64, seed=32)
    f = random_band_limited(group, 1.0 if group == "su2" else 2, rngmod.stream(6, 2), real=True)
    n = 3 if group == "su2" else 2
    ctx = transform_context(spec, f)
    monkeypatch.setattr(martmod, "EIG_COND_MAX", 0.0)
    direct = transform_context(spec, f)
    assert all(st.eig for st in ctx.stacks) and not any(st.eig for st in direct.stacks)
    for i in range(2):
        path = simulate_path(spec, i)
        sigma = haar_sample(group, rngmod.stream(6, rngmod.HAAR, i), 1)[0]
        a, b = (c.transcript(path, 0.6 * np.eye(n), np.array([0.5, -0.2]), sigma) for c in (ctx, direct))
        for name in ("m", "m_repr", "m_transform", "qv", "qv_transform", "qv_cross"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def test_differential_subordination_violation_signs(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 3)
    inside = ctx.transcript(path, np.array([[0.5]]), 0.5, np.array([0.2]))
    assert check_differential_subordination(inside) <= 1e-12
    outside = ctx.transcript(path, np.array([[1.5]]), 0.0, np.array([0.2]))
    assert check_differential_subordination(outside) > 0.0
    # interval form with values in [0.2, 0.8]
    shifted = ctx.transcript(path, np.array([[0.8]]), 0.2, np.array([0.2]))
    assert check_differential_subordination(shifted, bounds=(0.2, 0.8)) <= 1e-12


def test_martingale_mean_increments(torus_setup):
    # per-step increment means vanish within noise (the torus chain is exact
    # in law); the ensemble is frozen, so the 3 sigma check is deterministic
    spec, f, ctx = torus_setup
    incs = []
    for i in range(2000):
        path = simulate_path(spec, i)
        sigma = haar_sample("t1", rngmod.stream(19, rngmod.HAAR, i), 1)[0]
        tr = ctx.transcript(path, None, 0.0, sigma)
        incs.append(np.diff(tr.m.real))
    incs = np.stack(incs)
    mean = incs.mean(axis=0)
    se = incs.std(axis=0, ddof=1) / np.sqrt(incs.shape[0])
    z = np.abs(mean) / np.maximum(se, 1e-30)
    assert np.max(z) < 3.0


def test_ito_isometry_l2(torus_setup):
    spec, f, ctx = torus_setup
    sq, qv = [], []
    for i in range(2000):
        path = simulate_path(spec, i)
        sigma = haar_sample("t1", rngmod.stream(8, rngmod.HAAR, i), 1)[0]
        tr = ctx.transcript(path, None, 0.0, sigma)
        sq.append(abs(tr.m[-1] - tr.m[0]) ** 2)
        qv.append(tr.qv[-1])
    sq, qv = np.array(sq), np.array(qv)
    diff = sq - qv
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    assert abs(diff.mean()) <= 3.0 * se


def test_burkholder_zero_and_equality_cases(torus_setup):
    spec, f, ctx = torus_setup
    ens = simulate_transform_ensemble(spec, f, None, 0.0, paths=200)
    ratio, _ = empirical_burkholder(ens, 2.0)
    assert ratio == 0.0
    ens_eq = simulate_transform_ensemble(spec, f, np.eye(1), 1.0, paths=2000)
    ratio2, se2 = empirical_burkholder(ens_eq, 2.0)
    assert ratio2 <= 1.0 + 3.0 * se2
    assert ratio2 > 0.7  # the transform reproduces M - M(0), so the ratio is near one


def test_burkholder_requires_nonzero_denominator():
    from levymult.martingale import TransformEnsemble

    with pytest.raises(ValueError):
        empirical_burkholder(TransformEnsemble(np.zeros(5), np.ones(5), np.zeros(5)), 2.0)


def test_projection_deterministic_against_brute_force_quadrature():
    # independent oracle: integrate the pairing form with time quadrature and
    # a torus grid, never touching the martingale code path
    nu = GroupLevyMeasure("t2", ((np.array([1.1, 0.7]), 0.8),))
    spec = GroupProcessSpec("t2", 0.4, nu, 1.0, 1 / 64, seed=1, drift=(0.3, -0.2))
    gen = rngmod.stream(10, 1)
    f = random_band_limited("t2", 2, gen, real=True)
    g = random_band_limited("t2", 2, gen, real=True)
    amat = np.array([[0.6, 0.2], [-0.1, -0.5]])
    psi = np.array([0.7])

    labels = sorted(f.blocks)
    kvecs = np.array(labels, dtype=float)
    fh = np.array([complex(f.blocks[k][0, 0]) for k in labels])
    gh = np.array([complex(g.blocks[k][0, 0]) for k in labels])
    alpha = (
        1j * (kvecs @ np.array(spec.drift))
        - spec.c * np.sum(kvecs**2, axis=1)
        + 0.8 * (np.exp(1j * (kvecs @ np.array([1.1, 0.7]))) - 1.0)
    )
    m = 48
    theta = 2.0 * np.pi * np.arange(m) / m
    tx, ty = np.meshgrid(theta, theta, indexing="ij")
    pts = np.stack([tx.ravel(), ty.ravel()], axis=1)
    phases = np.exp(1j * (pts @ kvecs.T))  # (m^2, L)

    def integrand(s):
        decay_f = np.exp(s * alpha) * fh
        decay_g = np.exp(s * alpha) * gh
        grad_f = np.stack([phases @ (1j * kvecs[:, d] * decay_f) for d in range(2)], axis=1)
        grad_g = np.stack([phases @ (1j * kvecs[:, d] * decay_g) for d in range(2)], axis=1)
        lam = np.sqrt(2.0 * spec.c)
        val = np.einsum("qi,ij,qj->q", lam * grad_g, amat, lam * grad_f)
        fvals = phases @ decay_f
        gvals = phases @ decay_g
        tau_phase = np.exp(1j * (kvecs @ np.array([1.1, 0.7])))
        f_shift = phases @ (decay_f * tau_phase)
        g_shift = phases @ (decay_g * tau_phase)
        val = val + 0.8 * 0.7 * (f_shift - fvals) * (g_shift - gvals)
        return float(np.mean(val).real)

    s_nodes, s_weights = np.polynomial.legendre.leggauss(48)
    s_nodes = 0.5 * spec.horizon * (s_nodes + 1.0)
    s_weights = 0.5 * spec.horizon * s_weights
    brute = sum(w * integrand(s) for s, w in zip(s_nodes, s_weights))
    spectral = projection_deterministic(f, g, amat, psi, spec)
    assert float(spectral.real) == pytest.approx(brute, abs=1e-8)


def test_projection_zero_pair_and_disjoint_supports():
    spec = GroupProcessSpec("t2", 0.4, GroupLevyMeasure("t2"), 1.0, 1 / 64, seed=2)
    gen = rngmod.stream(10, 2)
    f = random_band_limited("t2", 2, gen, real=True)
    g = random_band_limited("t2", 2, gen, real=True)
    est = projection_mc_estimate(f, g, None, 0.0, spec, paths=50)
    assert est.mc_value == 0.0 and est.deterministic == 0.0
    # disjoint frequency supports pair to zero
    from levymult.groups import PeterWeylCoeffs

    f1 = PeterWeylCoeffs("t2", 2, {(1, 0): np.array([[1.0 + 0j]]), (-1, 0): np.array([[1.0 + 0j]])})
    g1 = PeterWeylCoeffs("t2", 2, {(0, 2): np.array([[1.0 + 0j]]), (0, -2): np.array([[1.0 + 0j]])})
    est2 = projection_mc_estimate(f1, g1, np.eye(2), 1.0, spec, paths=600)
    assert est2.deterministic == 0.0
    assert abs(est2.mc_value) <= 3.0 * est2.stderr


def test_projection_identity_fixture_small():
    nu = GroupLevyMeasure("t2", ((np.array([1.1, 0.7]), 0.8),))
    spec = GroupProcessSpec("t2", 0.4, nu, 1.0, 1 / 128, seed=3)
    gen = rngmod.stream(10, 3)
    f = random_band_limited("t2", 2, gen, real=True)
    g = random_band_limited("t2", 2, gen, real=True)
    est = projection_mc_estimate(f, g, np.eye(2), 1.0, spec, paths=3000)
    assert abs(est.mc_value - est.deterministic) <= 3.0 * est.stderr


def test_empirical_char_time_zero_and_heat():
    spec = GroupProcessSpec("su2", 0.0, GroupLevyMeasure("su2"), 1.0, 0.25, seed=4)
    states = ensemble_final_states(spec, 50)
    mean, _ = empirical_char(states, get_irrep("su2", 1.0))
    assert np.max(np.abs(mean - np.eye(3))) < 1e-12


def test_central_char_report_su2():
    jumps = GroupLevyMeasure("su2", ((-np.eye(2), 0.8),))
    spec = GroupProcessSpec("su2", 0.4, jumps, 0.75, 0.75 / 256, seed=5)
    reports = central_char_report(spec, [get_irrep("su2", 0.5), get_irrep("su2", 1.0)], 4000)
    for rep in reports:
        assert rep.is_central
        assert np.max(np.abs(rep.scalar_oracle - rep.matrix_oracle)) < 1e-8
        assert rep.max_sigmas("scalar") <= 3.0
        assert rep.max_sigmas("matrix") <= 3.0


def test_noncentral_pair_matches_matrix_oracle_only():
    tau = su2_exp([0.6, 0.3, 1.1])
    jumps = GroupLevyMeasure("su2", ((tau, 0.6), (tau.conj().T, 0.6)))
    spec = GroupProcessSpec("su2", 0.3, jumps, 0.5, 1 / 250, seed=6)
    reports = central_char_report(spec, [get_irrep("su2", 0.5)], 4000)
    assert not reports[0].is_central
    assert reports[0].max_sigmas("matrix") <= 3.0


def test_ensemble_reproducibility(torus_setup):
    spec, f, _ = torus_setup
    a = simulate_transform_ensemble(spec, f, np.array([[0.9]]), 0.5, paths=40)
    b = simulate_transform_ensemble(spec, f, np.array([[0.9]]), 0.5, paths=40)
    assert np.array_equal(a.y_final, b.y_final)
    assert np.array_equal(a.x_final, b.x_final)
