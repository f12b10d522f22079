import numpy as np
import pytest

from levymult import rng as rngmod
from levymult import simulate as simmod
from levymult.groups import GroupLevyMeasure, su2_exp
from levymult.levy import BernsteinSpec, PositiveDensity, bernstein_atoms, bernstein_eval
from levymult.simulate import (
    GroupProcessSpec,
    ensemble_final_states,
    simulate_path,
    simulate_paths,
    simulate_subordinator,
)


def test_spec_validation():
    empty = GroupLevyMeasure("t1")
    with pytest.raises(ValueError, match="integer number of steps"):
        GroupProcessSpec("t1", 0.5, empty, 1.0, 0.3, seed=1)
    with pytest.raises(ValueError, match="nonnegative"):
        GroupProcessSpec("t1", -0.1, empty, 1.0, 0.25, seed=1)
    with pytest.raises(ValueError, match="drift"):
        GroupProcessSpec("su2", 0.5, GroupLevyMeasure("su2"), 1.0, 0.25, seed=1, drift=(0.1, 0, 0))
    with pytest.raises(ValueError, match="mismatch"):
        GroupProcessSpec("t2", 0.5, empty, 1.0, 0.25, seed=1)


def test_deterministic_degenerate_path_stays_at_identity():
    spec = GroupProcessSpec("t1", 0.0, GroupLevyMeasure("t1"), 1.0, 0.125, seed=5)
    path = simulate_path(spec, 0)
    assert np.max(np.abs(path.states)) == 0.0
    spec_su2 = GroupProcessSpec("su2", 0.0, GroupLevyMeasure("su2"), 1.0, 0.125, seed=5)
    path2 = simulate_path(spec_su2, 0)
    assert np.max(np.abs(path2.states - np.eye(2))) == 0.0


def test_paths_reproducible_from_seed_and_index():
    nu = GroupLevyMeasure("t2", ((np.array([1.0, 0.5]), 0.8),))
    spec = GroupProcessSpec("t2", 0.3, nu, 1.0, 0.25, seed=9)
    a = simulate_path(spec, 7)
    b = simulate_path(spec, 7)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.db, b.db)
    c = simulate_path(spec, 8)
    assert not np.array_equal(a.states, c.states)


def test_path_independent_of_other_indices():
    nu = GroupLevyMeasure("t1", ((np.array([2.0]), 1.0),))
    spec = GroupProcessSpec("t1", 0.4, nu, 1.0, 0.25, seed=11)
    lone = simulate_path(spec, 3)
    others = [simulate_path(spec, i) for i in (0, 1, 2, 3)]
    assert np.array_equal(lone.states, others[3].states)


def test_poisson_event_count_law():
    lam, horizon = 1.5, 2.0
    nu = GroupLevyMeasure("t1", ((np.array([2.0]), lam),))
    spec = GroupProcessSpec("t1", 0.0, nu, horizon, 0.25, seed=5)
    counts = np.array([simulate_path(spec, i).n_events for i in range(3000)])
    mean = counts.mean()
    z = (mean - lam * horizon) / np.sqrt(lam * horizon / len(counts))
    assert abs(z) < 3.0
    # exact event times lie strictly inside the horizon and are sorted per path
    path = simulate_path(spec, 1)
    ev = path.times[path.kinds == 1]
    assert np.all(np.diff(ev) >= 0.0)
    assert np.all((ev > 0.0) & (ev < horizon))


def test_heat_kernel_calibration_t1():
    # pins the diffusion normalisation: E[e^{i k phi(T)}] = e^{-c k^2 T}
    spec = GroupProcessSpec("t1", 0.5, GroupLevyMeasure("t1"), 1.0, 0.125, seed=9)
    k = 2
    vals = np.array([np.exp(1j * k * simulate_path(spec, i).states[-1, 0]) for i in range(4000)])
    mean = vals.real.mean()
    se = vals.real.std(ddof=1) / np.sqrt(len(vals))
    assert abs(mean - np.exp(-0.5 * k * k)) <= 3.0 * se


def test_jump_on_grid_tie_is_processed_after_the_grid_node():
    nu = GroupLevyMeasure("t1", ((np.array([1.0]), 1.0),))
    spec = GroupProcessSpec("t1", 0.0, nu, 1.0, 0.25, seed=3)
    path = simulate_path(spec, 0)
    order = np.lexsort((path.kinds, path.times))
    assert np.array_equal(order, np.arange(len(path.times)))


def test_su2_paths_stay_unitary():
    tau = su2_exp([0.5, 0.1, -0.2])
    nu = GroupLevyMeasure("su2", ((tau, 1.0),))
    spec = GroupProcessSpec("su2", 0.6, nu, 1.0, 1 / 256, seed=13)
    path = simulate_path(spec, 2)
    worst = max(
        float(np.max(np.abs(g @ g.conj().T - np.eye(2)))) for g in path.states[::16]
    )
    assert worst < 1e-10
    assert path.unitarity_residual < 1e-10


def test_ensemble_final_states_match_paths():
    tau = su2_exp([0.6, 0.3, 1.1])
    nu = GroupLevyMeasure("su2", ((tau, 0.8),))
    spec = GroupProcessSpec("su2", 0.3, nu, 0.5, 1 / 64, seed=17)
    finals = ensemble_final_states(spec, 6)
    for i in range(6):
        assert np.max(np.abs(finals[i] - simulate_path(spec, i).states[-1])) < 1e-12
    nu2 = GroupLevyMeasure("t2", ((np.array([1.0, 2.0]), 0.5),))
    spec2 = GroupProcessSpec("t2", 0.4, nu2, 0.5, 1 / 64, seed=18, drift=(0.3, 0.0))
    finals2 = ensemble_final_states(spec2, 5)
    for i in range(5):
        assert np.max(np.abs(finals2[i] - simulate_path(spec2, i).states[-1])) < 1e-12


# -- batched simulation against a per-segment reference --------------------------

BATCH_SPECS = {
    # several events per grid step, drift, an atom-free measure, c = 0
    "t1": GroupProcessSpec("t1", 0.5, GroupLevyMeasure("t1", ((np.array([2.0]), 6.0),)), 1.0, 1 / 8, seed=41),
    "t2-drift": GroupProcessSpec(
        "t2",
        0.3,
        GroupLevyMeasure("t2", ((np.array([1.0, 2.0]), 4.5), (np.array([2.0, 0.3]), 2.5))),
        0.5,
        1 / 16,
        seed=42,
        drift=(0.4, -0.2),
    ),
    "t2-no-jumps": GroupProcessSpec("t2", 0.3, GroupLevyMeasure("t2"), 0.5, 1 / 16, seed=43),
    "su2": GroupProcessSpec(
        "su2", 0.4, GroupLevyMeasure("su2", ((su2_exp([0.6, 0.3, 1.1]), 5.0), (-np.eye(2), 2.0))), 1.0, 1 / 40, seed=44
    ),
    "su2-c0": GroupProcessSpec("su2", 0.0, GroupLevyMeasure("su2", ((su2_exp([0.6, 0.3, 1.1]), 5.0),)), 0.5, 1 / 16, seed=45),
    "su2-no-jumps": GroupProcessSpec("su2", 0.4, GroupLevyMeasure("su2"), 0.5, 1 / 16, seed=46),
}


def reference_path(spec, index):
    """(times, kinds, states) of one path, segment by segment from its draws."""
    ev_t, ev_m = simmod._draw_events(spec, index)
    times = np.concatenate([spec.grid_times, ev_t])
    kinds = np.concatenate([np.zeros(spec.n_steps + 1, dtype=int), np.ones(len(ev_t), dtype=int)])
    marks = np.concatenate([np.full(spec.n_steps + 1, -1), ev_m])
    order = np.lexsort((kinds, times))
    times, kinds, marks = times[order], kinds[order], marks[order]
    d = 3 if spec.group == "su2" else len(spec.drift)
    z = rngmod.stream(spec.seed, rngmod.BROWNIAN, index).standard_normal((len(times) - 1, d))
    g = np.eye(2, dtype=complex) if spec.group == "su2" else np.zeros(d)
    states = [g]
    for i, ds in enumerate(np.diff(times)):
        step = np.sqrt(2.0 * spec.c) * z[i] * np.sqrt(ds)
        if spec.group == "su2":
            g = g @ su2_exp(step)
        else:
            g = g + np.asarray(spec.drift) * ds + step
        if kinds[i + 1]:
            tau = spec.jumps.atoms[marks[i + 1]][0]
            g = g @ tau if spec.group == "su2" else g + tau
        states.append(g)
    return times, kinds, np.array(states)


def _check_against_reference(spec, paths):
    batch = simulate_paths(spec, np.arange(paths))
    finals = ensemble_final_states(spec, paths)
    for p in range(paths):
        rows = slice(batch.offsets[p], batch.offsets[p + 1])
        times, kinds, states = reference_path(spec, p)
        assert np.array_equal(batch.times[rows], times)
        assert np.array_equal(batch.kinds[rows], kinds)
        assert np.max(np.abs(batch.states[rows] - states)) <= 1e-12
        assert np.max(np.abs(finals[p] - states[-1])) <= 1e-12
    return batch


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
def test_batched_paths_match_a_per_segment_reference(name):
    spec = BATCH_SPECS[name]
    batch = _check_against_reference(spec, 6)
    if spec.jumps.atoms and name != "su2-c0":
        # some grid step of some path holds two or more events
        cells = batch.cells[batch.event_rows]
        assert len(np.unique(cells)) < len(cells)


@pytest.mark.parametrize("name", ["t2-drift", "su2"])
def test_events_exactly_on_grid_times(name, monkeypatch):
    spec = BATCH_SPECS[name]
    grid, dt = spec.grid_times, spec.dt

    def events(spec, index):
        # at t = 0, on a grid time, two at one time inside a step, two more in one step
        times = np.array([0.0, grid[2], grid[3] + 0.25 * dt, grid[3] + 0.25 * dt, grid[3] + 0.5 * dt])
        times = times[index % 2 :] + [0.0, 0.0, 0.0, 0.0, (index + 1) * 0.01 * dt][index % 2 :]
        return times, np.arange(len(times)) % len(spec.jumps.atoms)

    monkeypatch.setattr(simmod, "_draw_events", events)
    batch = _check_against_reference(spec, 3)
    on_grid = batch.event_rows[np.isin(batch.times[batch.event_rows], grid)]
    assert len(on_grid) and np.all(batch.kinds[on_grid - 1] == 0)  # the grid node comes first


@pytest.mark.parametrize("name", ["t2-drift", "su2", "su2-c0"])
def test_path_does_not_depend_on_its_chunk(name, monkeypatch):
    spec = BATCH_SPECS[name]
    whole = simulate_paths(spec, np.arange(7))
    for chunk in ([5], [3, 4, 5, 6], [5, 0]):
        part = simulate_paths(spec, chunk)
        p, q = list(chunk).index(5), 5
        mine = part.states[part.offsets[p] : part.offsets[p + 1]]
        assert np.max(np.abs(mine - whole.states[whole.offsets[q] : whole.offsets[q + 1]])) <= 1e-12
    # an ensemble spanning several chunks gives the same final states
    finals = ensemble_final_states(spec, 7)
    monkeypatch.setattr(simmod, "CHUNK_BYTES", 1)
    assert np.max(np.abs(ensemble_final_states(spec, 7) - finals)) <= 1e-12


# -- subordinators -------------------------------------------------------------


def test_linear_subordinator_is_deterministic():
    ens = simulate_subordinator(BernsteinSpec(c=0.7), 1.0, 0.5, seed=1, paths=3)
    assert np.allclose(ens.values[:, -1], 0.7)
    assert np.allclose(ens.values[:, 0], 0.0)


def test_poisson_subordinator_laplace_closed_form():
    spec = BernsteinSpec(c=0.0, atoms=((1.0, 1.0),))
    ens = simulate_subordinator(spec, 1.0, 0.25, seed=2, paths=8000)
    vals = np.exp(-ens.values[:, -1])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - np.exp(-(1.0 - np.exp(-1.0)))) <= 3.0 * se


def test_stable_discretisation_matches_its_own_exponent():
    dens = PositiveDensity(
        profile=lambda y: y**-1.5 / (2.0 * np.sqrt(np.pi)), inner=1e-4, outer=1e3, nodes=24
    )
    disc = bernstein_atoms(BernsteinSpec(c=0.0, density=dens))
    ens = simulate_subordinator(disc, 1.0, 0.5, seed=3, paths=6000)
    assert np.min(np.diff(ens.values, axis=1)) >= 0.0
    for u in (1.0, 2.0, 4.0):
        vals = np.exp(-u * ens.values[:, -1])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        expect = np.exp(-float(bernstein_eval(disc, u)))
        assert abs(vals.mean() - expect) <= 3.0 * se


def test_subordinator_requires_atoms():
    dens = PositiveDensity(profile=lambda y: y**-1.5, inner=1e-4, outer=1e2, nodes=16)
    with pytest.raises(ValueError, match="discretise"):
        simulate_subordinator(BernsteinSpec(c=0.0, density=dens), 1.0, 0.5, seed=1, paths=2)


def test_subordinator_reproducible():
    spec = BernsteinSpec(c=0.1, atoms=((0.5, 2.0),))
    a = simulate_subordinator(spec, 1.0, 0.25, seed=4, paths=5)
    b = simulate_subordinator(spec, 1.0, 0.25, seed=4, paths=5)
    assert np.array_equal(a.values, b.values)
