import tracemalloc

import numpy as np
import pytest

from levymult import martingale as martmod
from levymult import linalg
from levymult import rng as rngmod
from levymult import simulate as simmod
from levymult import verify
from levymult.groups import (
    GroupLevyMeasure,
    get_irrep,
    haar_sample,
    multiply,
    pw_inverse,
    random_band_limited,
    su2_exp,
)
from levymult.martingale import (
    central_char_report,
    check_differential_subordination,
    empirical_burkholder,
    empirical_char,
    ensemble_chunks,
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
    tr = ctx.transcript(path, None, 0.0, np.array([[0.4]]))
    assert np.max(np.abs(tr.m_transform[0])) == 0.0
    assert np.max(tr.qv_transform[0]) == 0.0


def test_identity_pair_reproduces_representation_exactly(torus_setup):
    spec, f, ctx = torus_setup
    for i in range(3):
        path = simulate_path(spec, i)
        tr = ctx.transcript(path, np.eye(1), 1.0, np.array([[0.4]]))
        # bitwise: the transform by (I, 1) is the integral representation of M
        assert np.array_equal(tr.m_repr[0], tr.m[0, 0] + tr.m_transform[0])
        assert np.array_equal(tr.qv_transform[0], tr.qv[0])


def test_transcript_initial_conditions(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 1)
    sigma = np.array([1.1])
    tr = ctx.transcript(path, np.array([[0.8]]), 0.5, sigma[None])
    # M(0) is the semigroup-smoothed value at the start point
    expect = sum(
        complex(f.blocks[k][0, 0])
        * np.exp(spec.horizon * (-spec.c * k * k + 1.2 * (np.exp(2j * k) - 1.0)))
        * np.exp(1j * k * sigma[0])
        for k in f.blocks
    )
    assert tr.m[0, 0] == pytest.approx(expect, abs=1e-12)
    assert tr.m_transform[0, 0] == 0.0
    assert tr.qv[0, 0] == 0.0


def test_transcript_needs_one_start_per_path(torus_setup):
    spec, f, ctx = torus_setup
    path = simmod.simulate_paths(spec, [0, 1])
    for sigmas in (np.array([[0.4]]), np.array([0.4, 0.5]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="one start element per path"):
            ctx.transcript(path, None, 0.0, sigmas)


def test_transform_pair_matrix_must_match_the_group_dimension():
    nu = GroupLevyMeasure("t2", ((np.array([0.4, -1.1]), 0.8),))
    spec = GroupProcessSpec("t2", 0.3, nu, 0.25, 1 / 16, seed=5)
    f = random_band_limited("t2", 1, rngmod.stream(3, 2), real=True)
    ctx = transform_context(spec, f)
    path = simmod.simulate_paths(spec, [0])
    for amat in (np.eye(1), np.eye(3)):
        with pytest.raises(ValueError, match="transform-pair matrix must be 2x2"):
            ctx.transcript(path, amat, 0.5, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="transform-pair matrix must be 2x2"):
            ctx.final_values(path, np.zeros((1, 2)), amat, 0.5)


def test_quadratic_variations_nondecreasing(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 2)
    tr = ctx.transcript(path, np.array([[0.7]]), -0.4, np.array([[0.0]]))
    assert np.min(np.diff(tr.qv[0])) >= 0.0
    assert np.min(np.diff(tr.qv_transform[0])) >= 0.0


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
        tr = ctx.transcript(path, None, psi_val, sigma[None])
        jump_sq = 0.0
        for row, prestate in zip(path.event_rows, path.prestates):
            s = path.times[row]
            pre = sigma[0] + prestate[0]
            w = fhat * np.exp((spec.horizon - s) * alpha)
            dp = np.sum(w * np.exp(1j * kvec * pre) * (np.exp(1j * kvec * 1.7) - 1.0))
            jump_sq += abs(dp) ** 2
        assert tr.qv[0, -1] == pytest.approx(jump_sq, rel=1e-10)
        assert tr.qv_transform[0, -1] == pytest.approx(psi_val**2 * jump_sq, rel=1e-10)


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
        assert len(path.event_rows) > 0
        sigmas = haar_sample(group, rngmod.stream(6, rngmod.HAAR, i), 1)
        tr = ctx.transcript(path, None, np.array([0.3, -0.8]), sigmas)
        assert tr.repr_gap <= 1e-12


@pytest.mark.parametrize("group,drift", [("t1", (0.7,)), ("t2", (0.4, -0.2))])
def test_drift_only_representation_is_exact(group, drift):
    # with c = 0 the drift moves the state deterministically between events;
    # the compensator integrates that motion in closed form, so the
    # representation has no discretisation bias
    jumps = GroupLevyMeasure(group, PURE_JUMP_ATOMS[group])
    spec = GroupProcessSpec(group, 0.0, jumps, 1.0, 1 / 64, seed=33, drift=drift)
    f = random_band_limited(group, 2, rngmod.stream(6, 3), real=True)
    ctx = transform_context(spec, f)
    for i in range(5):
        path = simulate_path(spec, i)
        sigmas = haar_sample(group, rngmod.stream(6, rngmod.HAAR, i), 1)
        tr = ctx.transcript(path, None, np.array([0.3, -0.8]), sigmas)
        assert tr.repr_gap <= 1e-12


@pytest.mark.parametrize("group", ["t2", "su2"])
def test_direct_exponential_fallback_matches_eigenbasis(group, monkeypatch):
    # generator blocks too ill-conditioned to diagonalise are exponentiated
    # directly; forcing that route must give the same transcript
    drift = (0.4, -0.2) if group == "t2" else ()
    spec = GroupProcessSpec(group, 0.3, GroupLevyMeasure(group, PURE_JUMP_ATOMS[group]), 0.5, 1 / 64, seed=32, drift=drift)
    f = random_band_limited(group, 1.0 if group == "su2" else 2, rngmod.stream(6, 2), real=True)
    n = 3 if group == "su2" else 2
    ctx = transform_context(spec, f)
    monkeypatch.setattr(martmod, "EIG_COND_MAX", 0.0)
    direct = transform_context(spec, f)
    assert all(st.eig for st in ctx.stacks) and not any(st.eig for st in direct.stacks)
    for i in range(2):
        path = simulate_path(spec, i)
        sigmas = haar_sample(group, rngmod.stream(6, rngmod.HAAR, i), 1)
        a, b = (c.transcript(path, 0.6 * np.eye(n), np.array([0.5, -0.2]), sigmas) for c in (ctx, direct))
        for name in ("m", "m_repr", "m_transform", "qv", "qv_transform", "d_qv_cross"):
            x, y = getattr(a, name), getattr(b, name)
            assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(x)))


def test_differential_subordination_violation_signs(torus_setup):
    spec, f, ctx = torus_setup
    path = simulate_path(spec, 3)
    inside = ctx.transcript(path, np.array([[0.5]]), 0.5, np.array([[0.2]]))
    assert check_differential_subordination(inside)[0] <= 1e-12
    outside = ctx.transcript(path, np.array([[1.5]]), 0.0, np.array([[0.2]]))
    assert check_differential_subordination(outside)[0] > 0.0
    # interval form with values in [0.2, 0.8]
    shifted = ctx.transcript(path, np.array([[0.8]]), 0.2, np.array([[0.2]]))
    assert check_differential_subordination(shifted, bounds=(0.2, 0.8))[0] <= 1e-12


def test_martingale_mean_increments(torus_setup):
    # per-step increment means vanish within noise (the torus chain is exact
    # in law); the ensemble is frozen, so the 3 sigma check is deterministic
    spec, f, ctx = torus_setup
    incs = []
    for _, path, sigmas in ensemble_chunks(spec, ctx, 2000, 19):
        incs.append(np.diff(ctx.transcript(path, None, 0.0, sigmas).m.real, axis=1))
    incs = np.concatenate(incs)
    mean = incs.mean(axis=0)
    se = incs.std(axis=0, ddof=1) / np.sqrt(incs.shape[0])
    z = np.abs(mean) / np.maximum(se, 1e-30)
    assert np.max(z) < 3.0


def test_ito_isometry_l2(torus_setup):
    spec, f, ctx = torus_setup
    sq, qv = [], []
    for _, path, sigmas in ensemble_chunks(spec, ctx, 2000, 8):
        tr = ctx.transcript(path, None, 0.0, sigmas)
        sq.append(np.abs(tr.m[:, -1] - tr.m[:, 0]) ** 2)
        qv.append(tr.qv[:, -1])
    sq, qv = np.concatenate(sq), np.concatenate(qv)
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
        empirical_burkholder(TransformEnsemble(np.zeros(5), np.ones(5)), 2.0)


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


def _projection_per_label(f, g, amatrix, psi, spec):
    """The finite-horizon pairing value label by label and atom by atom:
    sum_k [2c k.Ak + 2 sum_a mass_a psi_a (1 - cos k.tau_a)]
          * int_0^T e^{2 s Re alpha_k} ds * fhat(k) ghat(-k)."""
    (stack,) = transform_context(spec, f).stacks
    a_use = np.zeros((2, 2)) if amatrix is None else np.atleast_2d(amatrix)
    psi_vals = np.broadcast_to(np.asarray(psi, dtype=complex), (len(spec.jumps.atoms),))
    total = 0.0 + 0.0j
    for pi, al in zip(stack.irreps, stack.lmat[:, 0, 0]):
        fk = f.blocks[pi.label][0, 0]
        kvec = np.atleast_1d(np.asarray(pi.label, dtype=float))
        gb = g.blocks.get(tuple(-x for x in pi.label))
        if gb is None or fk == 0.0:
            continue
        quad = 2.0 * spec.c * complex(kvec @ (a_use @ kvec))
        jump = 0.0 + 0.0j
        for (tau, mass), pv in zip(spec.jumps.atoms, psi_vals):
            jump += 2.0 * mass * pv * (1.0 - np.cos(float(kvec @ tau)))
        re2 = 2.0 * float(np.real(al))
        weight = spec.horizon if re2 == 0.0 else float(np.expm1(re2 * spec.horizon) / re2)
        total += (quad + jump) * weight * fk * complex(gb[0, 0])
    return complex(total)


def test_projection_deterministic_matches_per_label_formula():
    from levymult.verify import _projection_fixtures

    f, g, fixtures = _projection_fixtures(20246)
    half_turn = GroupLevyMeasure("t2", ((np.array([np.pi, 0.0]), 0.6),))
    complex_psi = np.array([0.3 + 0.4j, -0.5j])
    cases = [(amat, psi, c, nu, horizon, drift) for _, amat, psi, c, nu, horizon, drift in fixtures]
    cases += [
        # c = 0: the modes with even k1 are undefined (Re alpha = 0) and contribute 0
        (np.eye(2), np.array([0.7]), 0.0, half_turn, 1.0, ()),
        (None, complex_psi, 0.25, fixtures[3][4], 0.5, (0.4, -0.2)),
        (np.array([[0.2, 0.5j], [-0.3, 0.1]]), 0.6, 0.0, fixtures[3][4], 1.0, ()),
    ]
    for amat, psi, c, nu, horizon, drift in cases:
        spec = GroupProcessSpec("t2", c, nu, horizon, 1 / 64, seed=0, drift=drift)
        expect = _projection_per_label(f, g, amat, psi, spec)
        got = projection_deterministic(f, g, amat, psi, spec)
        assert abs(got - expect) <= 1e-12 * abs(expect)


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
    su2 = FINAL_VALUE_SPECS["su2"]
    f2 = random_band_limited("su2", 1.0, rngmod.stream(7, 1), real=True)
    c, d = (simulate_transform_ensemble(su2, f2, 0.5 * np.eye(3), np.array([0.4, -0.3]), paths=9) for _ in "cd")
    assert c.y_final.tobytes() == d.y_final.tobytes() and c.x_final.tobytes() == d.x_final.tobytes()
    assert np.array_equal(ensemble_final_states(su2, 9), ensemble_final_states(su2, 9))
    t2 = FINAL_VALUE_SPECS["t2-drift"]
    g = random_band_limited("t2", 2, rngmod.stream(7, 2), real=True)
    f3 = random_band_limited("t2", 2, rngmod.stream(7, 3), real=True)
    e, h = (projection_mc_estimate(f3, g, np.eye(2), np.array([0.5, -0.5]), t2, paths=9) for _ in "eh")
    assert (e.mc_value, e.stderr) == (h.mc_value, h.stderr)


# -- batched final values against per-path transcripts -----------------------

FINAL_VALUE_SPECS = {
    "t1": GroupProcessSpec("t1", 0.5, GroupLevyMeasure("t1", ((np.array([2.0]), 6.0),)), 1.0, 1 / 16, seed=51),
    "t1-c0": GroupProcessSpec("t1", 0.0, GroupLevyMeasure("t1", ((np.array([2.0]), 3.0),)), 1.0, 1 / 16, seed=52),
    "t2-drift": GroupProcessSpec(
        "t2",
        0.3,
        GroupLevyMeasure("t2", ((np.array([1.1, 0.7]), 4.0), (np.array([2.3, 4.1]), 2.5))),
        0.5,
        1 / 16,
        seed=53,
        drift=(0.4, -0.2),
    ),
    "t2-no-jumps": GroupProcessSpec("t2", 0.4, GroupLevyMeasure("t2"), 0.5, 1 / 16, seed=54),
    "su2": GroupProcessSpec("su2", 0.3, GroupLevyMeasure("su2", PURE_JUMP_ATOMS["su2"]), 0.5, 1 / 16, seed=55),
    "su2-c0": GroupProcessSpec("su2", 0.0, GroupLevyMeasure("su2", PURE_JUMP_ATOMS["su2"]), 0.5, 1 / 16, seed=56),
    "su2-no-jumps": GroupProcessSpec("su2", 0.3, GroupLevyMeasure("su2"), 0.5, 1 / 16, seed=57),
}


def _transform_pair(spec):
    n = {"t1": 1, "t2": 2, "su2": 3}[spec.group]
    amat = 0.6 * np.eye(n) + 0.2j * np.tri(n, k=-1)
    return amat, np.array([0.7, -0.4])[: len(spec.jumps.atoms)]


def _reference_final_values(spec, f, amat, psi, paths, seed, g=None):
    """Per path: (M_0, M_T, transform at T[, M_T of g]) from full transcripts."""
    ctx = transform_context(spec, f)
    ctx_g = None if g is None else transform_context(spec, g)
    rows = []
    for i in range(paths):
        path = simulate_path(spec, i)
        sigmas = haar_sample(spec.group, rngmod.stream(seed, rngmod.HAAR, i), 1)
        tr = ctx.transcript(path, amat, psi, sigmas)
        row = [tr.m[0, 0], tr.m[0, -1], tr.m_transform[0, -1]]
        if ctx_g is not None:
            row.append(ctx_g.transcript(path, None, 0.0, sigmas).m[0, -1])
        rows.append(row)
    return np.array(rows)


def _chunked_final_values(spec, f, amat, psi, paths, seed):
    """(M_0, M_T, transform at T) of every path, chunk by chunk from ``ensemble_chunks``."""
    ctx = transform_context(spec, f)
    chunks = ensemble_chunks(spec, ctx, paths, seed)
    return np.concatenate([ctx.final_values(path, sigmas, amat, psi) for _, path, sigmas in chunks], axis=1)


def _close(a, b, rtol=1e-12):
    return np.max(np.abs(a - b), initial=0.0) <= rtol * max(1.0, np.max(np.abs(b), initial=0.0))


@pytest.mark.parametrize("name", sorted(FINAL_VALUE_SPECS))
def test_batched_final_values_match_transcripts(name, monkeypatch):
    spec = FINAL_VALUE_SPECS[name]
    f = random_band_limited(spec.group, 1.0 if spec.group == "su2" else 2, rngmod.stream(8, 1), real=True)
    amat, psi = _transform_pair(spec)
    ref = _reference_final_values(spec, f, amat, psi, 7, seed=99)
    ens = _chunked_final_values(spec, f, amat, psi, 7, seed=99)
    for col in range(3):
        assert _close(ens[col], ref[:, col])
    # more than one chunk: one path per chunk
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
    assert [s.stop - s.start for s in linalg.blocks(7, transform_context(spec, f).path_bytes)] == [1] * 7
    split = _chunked_final_values(spec, f, amat, psi, 7, seed=99)
    assert _close(split[2], ens[2]) and _close(split[1], ens[1])


@pytest.mark.parametrize("name", ["t1", "t1-c0", "t2-drift", "t2-no-jumps"])
def test_batched_projection_matches_transcripts(name):
    # the deterministic pairing value exists on the tori only, so SU(2)
    # ensembles are covered by the final-value test above
    spec = FINAL_VALUE_SPECS[name]
    gen = rngmod.stream(8, 2)
    f = random_band_limited(spec.group, 2, gen, real=True)
    g = random_band_limited(spec.group, 2, gen, real=True)
    amat, psi = _transform_pair(spec)
    ref = _reference_final_values(spec, f, amat, psi, 9, seed=spec.seed, g=g)
    vals = ref[:, 2] * ref[:, 3]
    est = projection_mc_estimate(f, g, amat, psi, spec, 9)
    assert est.mc_value == pytest.approx(float(np.mean(vals).real), rel=1e-12, abs=1e-15)
    se = np.hypot(np.std(vals.real, ddof=1), np.std(vals.imag, ddof=1)) / 3.0
    assert est.stderr == pytest.approx(float(se), rel=1e-12)


def _events_on_grid_times(spec, monkeypatch):
    """Make every path jump at time 0, on a grid time, twice at one time, and
    at a path-dependent time."""
    grid, dt = spec.grid_times, spec.dt

    def events(spec, index):
        times = np.array([0.0, grid[2], grid[3] + 0.25 * dt, grid[3] + 0.25 * dt, grid[5] + 0.1 * index * dt])
        return times, np.arange(len(times)) % len(spec.jumps.atoms)

    monkeypatch.setattr(simmod, "_draw_events", lambda spec, indices: [events(spec, i) for i in indices])


@pytest.mark.parametrize("name", ["t2-drift", "su2"])
def test_batched_final_values_with_events_on_grid_times(name, monkeypatch):
    spec = FINAL_VALUE_SPECS[name]
    _events_on_grid_times(spec, monkeypatch)
    f = random_band_limited(spec.group, 1.0 if spec.group == "su2" else 2, rngmod.stream(8, 3), real=True)
    amat, psi = _transform_pair(spec)
    ref = _reference_final_values(spec, f, amat, psi, 4, seed=98)
    ens = _chunked_final_values(spec, f, amat, psi, 4, seed=98)
    assert _close(ens[2], ref[:, 2]) and _close(ens[1], ref[:, 1])


@pytest.mark.parametrize("name", ["t2-drift", "su2"])
def test_path_values_do_not_depend_on_ensemble_size(name):
    spec = FINAL_VALUE_SPECS[name]
    f = random_band_limited(spec.group, 1.0 if spec.group == "su2" else 2, rngmod.stream(8, 4), real=True)
    amat, psi = _transform_pair(spec)
    big = simulate_transform_ensemble(spec, f, amat, psi, 12)
    small = simulate_transform_ensemble(spec, f, amat, psi, 5)
    assert _close(small.y_final, big.y_final[:5]) and _close(small.x_final, big.x_final[:5])


TRANSCRIPT_ROWS = (
    "m", "m_repr", "m_transform", "qv", "qv_transform", "d_qv", "d_qv_transform", "d_qv_cross",
)


@pytest.mark.parametrize(
    "name,grid_events",
    [(name, False) for name in sorted(FINAL_VALUE_SPECS)] + [("t2-drift", True), ("su2", True)],
)
def test_chunk_transcript_rows_match_single_paths(name, grid_events, monkeypatch):
    # every row of a chunk transcript is bitwise the path's one-path transcript
    spec = FINAL_VALUE_SPECS[name]
    if grid_events:
        _events_on_grid_times(spec, monkeypatch)
    f = random_band_limited(spec.group, 1.0 if spec.group == "su2" else 2, rngmod.stream(8, 5), real=True)
    amat, psi = _transform_pair(spec)
    ctx = transform_context(spec, f)
    ((idx, path, sigmas),) = ensemble_chunks(spec, ctx, 9, seed=97)
    chunk = ctx.transcript(path, amat, psi, sigmas)
    assert chunk.m.shape == (9, spec.n_steps + 1) and chunk.d_qv.shape == (9, spec.n_steps)
    assert np.array_equal(chunk.times, spec.grid_times)
    gaps = []
    for row, i in enumerate(idx):
        one = martingale_transcript(simulate_path(spec, i), f, amat, psi, sigmas[row], ctx=ctx)
        for field in TRANSCRIPT_ROWS:
            assert getattr(chunk, field)[row].tobytes() == getattr(one, field)[0].tobytes(), field
        for bounds in (None, (-0.4, 0.6)):
            got = check_differential_subordination(chunk, bounds)
            assert got.shape == (9,)
            assert got[row] == check_differential_subordination(one, bounds)[0]
        gaps.append(one.repr_gap)
    assert chunk.repr_gap == max(gaps)


@pytest.mark.parametrize(
    "name,grid_events", [("t1", False), ("t2-drift", False), ("t2-drift", True), ("t2-no-jumps", False), ("su2", False)]
)
def test_node_blocks_leave_every_bit_in_place(name, grid_events, monkeypatch):
    # the wide tables of _values in blocks of 1, 2 and 3 rows give what one block per chunk gives
    spec = FINAL_VALUE_SPECS[name]
    if grid_events:
        _events_on_grid_times(spec, monkeypatch)
    f = random_band_limited(spec.group, 1.0 if spec.group == "su2" else 2, rngmod.stream(8, 6), real=True)
    amat, psi = _transform_pair(spec)
    ctx = transform_context(spec, f)
    ((idx, path, sigmas),) = ensemble_chunks(spec, ctx, 9, seed=96)
    assert len(path.times) + len(path.event_rows) <= linalg.BLOCK_BYTES // ctx.row_bytes  # one block
    whole = ctx.transcript(path, amat, psi, sigmas)
    finals = ctx.final_values(path, sigmas, amat, psi)
    for rows in (1, 2, 3):
        monkeypatch.setattr(linalg, "BLOCK_BYTES", rows * ctx.row_bytes)
        assert next(linalg.blocks(len(path.times), ctx.row_bytes)) == slice(0, rows)
        blocked = ctx.transcript(path, amat, psi, sigmas)
        for field in TRANSCRIPT_ROWS:
            assert getattr(blocked, field).tobytes() == getattr(whole, field).tobytes(), (rows, field)
        for got, want in zip(ctx.final_values(path, sigmas, amat, psi), finals):
            assert got.tobytes() == want.tobytes(), rows


def test_su2_horizon_values_do_not_depend_on_the_chunks(monkeypatch):
    # a chunk of one evaluates its lone end state as a larger chunk does
    spec = FINAL_VALUE_SPECS["su2"]
    f = random_band_limited("su2", 2.0, rngmod.stream(8, 8), real=True)
    ctx = transform_context(spec, f)

    def values():
        chunks = ensemble_chunks(spec, ctx, 9, seed=96)
        return np.concatenate([pw_inverse(f, points=multiply("su2", s, path.states[path.end_rows])) for _, path, s in chunks])

    whole = values()
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)  # chunks of one path
    assert values().tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", ["t2-drift", "t2-no-jumps"])
def test_projection_estimate_does_not_depend_on_the_chunks(name, monkeypatch):
    spec = FINAL_VALUE_SPECS[name]
    gen = rngmod.stream(8, 7)
    f, g = (random_band_limited(spec.group, 2, gen, real=True) for _ in "fg")
    amat, psi = _transform_pair(spec)
    chunked = projection_mc_estimate(f, g, amat, psi, spec, 64)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)  # chunks of one path
    alone = projection_mc_estimate(f, g, amat, psi, spec, 64)
    assert (alone.mc_value, alone.stderr) == (chunked.mc_value, chunked.stderr)


def test_projection_estimate_builds_one_transform_context(monkeypatch):
    # g is read at the end elements through pw_inverse, with no context of its own
    built = []
    monkeypatch.setattr(martmod, "transform_context", lambda spec, f: built.append(f) or transform_context(spec, f))
    spec = FINAL_VALUE_SPECS["t2-drift"]
    gen = rngmod.stream(8, 9)
    f, g = (random_band_limited("t2", 2, gen, real=True) for _ in "fg")
    projection_mc_estimate(f, g, *_transform_pair(spec), spec, 4)
    assert built == [f]


def test_projection_estimate_refuses_su2_before_it_simulates(monkeypatch):
    def simulate_paths(*args):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(martmod, "simulate_paths", simulate_paths)
    spec = FINAL_VALUE_SPECS["su2"]
    f = random_band_limited("su2", 1.0, rngmod.stream(8, 10), real=True)
    with pytest.raises(ValueError, match="tori"):
        projection_mc_estimate(f, f, *_transform_pair(spec), spec, 4)


def test_a_final_values_chunk_peaks_inside_its_budgets():
    # criterion 9's "identity" fixture: the stated bound of the comment at linalg.CHUNK_BLOCKS
    f, _, fixtures = verify._projection_fixtures(20246)
    _, amat, psi, c, jumps, horizon, drift = fixtures[0]
    spec = GroupProcessSpec("t2", c, jumps, horizon, verify.PROJECTION_DT, seed=20246, drift=drift)
    ctx = transform_context(spec, f)
    tracemalloc.start()
    try:
        idx, path, sigmas = next(ensemble_chunks(spec, ctx, 10**4, spec.seed))
        ctx.final_values(path, sigmas, amat, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(idx) > 1
    assert peak < (1.25 * linalg.CHUNK_BLOCKS + 2) * linalg.BLOCK_BYTES
