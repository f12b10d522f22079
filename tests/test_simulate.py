import tracemalloc

import numpy as np
import pytest

from levymult import linalg, verify
from levymult import rng as rngmod
from levymult import simulate as simmod
from levymult.groups import GroupLevyMeasure, su2_exp, su2_exp_batch, su2_product
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
    counts = np.array([len(simulate_path(spec, i).event_rows) for i in range(3000)])
    mean = counts.mean()
    z = (mean - lam * horizon) / np.sqrt(lam * horizon / len(counts))
    assert abs(z) < 3.0
    # exact event times lie strictly inside the horizon and are sorted per path
    path = simulate_path(spec, 1)
    ev = path.times[path.marks >= 0]
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
    order = np.lexsort((path.marks >= 0, path.times))
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


def reference_events(spec, index):
    """A path's event times and atoms from its own jump stream, atoms by Generator.choice."""
    masses = np.array([m for _, m in spec.jumps.atoms])
    if masses.size == 0:
        return np.zeros(0), np.zeros(0, dtype=int)
    gen = rngmod.stream(spec.seed, rngmod.JUMPS, index)
    lam = float(np.sum(masses))
    count = int(gen.poisson(lam * spec.horizon))
    times = np.sort(gen.uniform(0.0, spec.horizon, size=count))
    return times, gen.choice(len(masses), size=count, p=masses / lam)


def reference_path(spec, index, events=reference_events):
    """(times, kinds, states) of one path, segment by segment from its draws."""
    ev_t, ev_m = events(spec, index)
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


def _check_against_reference(spec, paths, events=reference_events):
    batch = simulate_paths(spec, np.arange(paths))
    finals = ensemble_final_states(spec, paths)
    for p in range(paths):
        rows = slice(batch.offsets[p], batch.offsets[p + 1])
        times, kinds, states = reference_path(spec, p, events)
        assert np.array_equal(batch.times[rows], times)
        assert np.array_equal(batch.marks[rows] >= 0, kinds)
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


def grid_time_events(spec, index):
    """Events at t = 0, on a grid time, two at one time inside a step and two more in one step."""
    grid, dt = spec.grid_times, spec.dt
    times = np.array([0.0, grid[2], grid[3] + 0.25 * dt, grid[3] + 0.25 * dt, grid[3] + 0.5 * dt])
    times = times[index % 2 :] + [0.0, 0.0, 0.0, 0.0, (index + 1) * 0.01 * dt][index % 2 :]
    return times, np.arange(len(times)) % len(spec.jumps.atoms)


@pytest.mark.parametrize("name", ["t2-drift", "su2"])
def test_events_exactly_on_grid_times(name, monkeypatch):
    spec = BATCH_SPECS[name]
    grid = spec.grid_times
    monkeypatch.setattr(simmod, "_draw_events", lambda spec, indices: [grid_time_events(spec, i) for i in indices])
    batch = _check_against_reference(spec, 3, grid_time_events)
    on_grid = batch.event_rows[np.isin(batch.times[batch.event_rows], grid)]
    assert len(on_grid) and np.all(batch.marks[on_grid - 1] < 0)  # the grid node comes first


@pytest.mark.parametrize("events", ["drawn", "grid-time"])
@pytest.mark.parametrize("name", ["t1", "t2-drift", "su2"])
def test_segments_live_on_their_start_nodes(name, events, monkeypatch):
    # db and ds hold the segment starting at each node and zeros at each path's end; a pre-jump
    # state is kept at each event only, and its jump takes it to the state there
    spec = BATCH_SPECS[name]
    if events == "grid-time":
        monkeypatch.setattr(simmod, "_draw_events", lambda spec, indices: [grid_time_events(spec, i) for i in indices])
    path = simulate_paths(spec, np.arange(5))
    assert not hasattr(path, "kinds")
    ends, ev = path.end_rows, path.event_rows
    assert len(path.db) == len(path.ds) == len(path.times)
    assert np.all(path.db[ends] == 0.0) and np.all(path.ds[ends] == 0.0)
    starts = np.setdiff1d(np.arange(len(path.times)), ends)
    assert np.array_equal(path.ds[starts], path.times[starts + 1] - path.times[starts])
    assert len(ev) and len(path.prestates) == len(ev)
    atoms = np.array([tau for tau, _ in spec.jumps.atoms])[path.marks[ev]]
    after = path.prestates @ atoms if spec.group == "su2" else path.prestates + atoms
    assert np.max(np.abs(after - path.states[ev])) <= 1e-12


@pytest.mark.parametrize("name", ["t2-drift", "su2", "su2-c0"])
def test_path_does_not_depend_on_its_chunk(name, monkeypatch):
    spec = BATCH_SPECS[name]
    whole = simulate_paths(spec, np.arange(7))
    for chunk in ([5], [3, 4, 5, 6], [5, 0]):
        part = simulate_paths(spec, chunk)
        p, q = list(chunk).index(5), 5
        mine = part.states[part.offsets[p] : part.offsets[p + 1]]
        assert np.array_equal(mine, whole.states[whole.offsets[q] : whole.offsets[q + 1]])
    # an ensemble spanning several chunks gives the same final states
    finals = ensemble_final_states(spec, 7)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
    assert np.array_equal(ensemble_final_states(spec, 7), finals)


def _chunk_sizes(monkeypatch) -> list:
    """The path counts of the layouts laid out from now on."""
    sizes, layout = [], simmod._layout
    monkeypatch.setattr(simmod, "_layout", lambda spec, indices: sizes.append(len(indices)) or layout(spec, indices))
    return sizes


def test_central_final_states_do_not_depend_on_the_chunks(monkeypatch):
    # criterion 10's spec at 9 paths: one chunk at the default budget, chunks of a few paths, chunks of one
    spec = verify._central_spec(20247)
    sizes = _chunk_sizes(monkeypatch)
    finals = ensemble_final_states(spec, 9)
    assert sizes == [9]
    for budget, most in ((40_000, 4), (1, 1)):
        sizes.clear()
        monkeypatch.setattr(linalg, "BLOCK_BYTES", budget)
        assert np.array_equal(ensemble_final_states(spec, 9), finals), budget
        assert max(sizes) == most and sum(sizes) == 9


def test_a_central_ensemble_peaks_inside_its_budget(monkeypatch):
    # criterion 10's spec at 896 paths, several chunks: the bound stated at ensemble_final_states
    spec = verify._central_spec(20247)
    ensemble_final_states(spec, 2)
    sizes = _chunk_sizes(monkeypatch)
    tracemalloc.start()
    try:
        ensemble_final_states(spec, 896)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sizes) > 3
    assert peak < 3.25 * linalg.BLOCK_BYTES


def matrix_loop_path(spec, indices):
    """The chunk's SU(2) paths evolved as 2x2 matrices, on the library's layout.

    Every path starts at the identity and takes its nodes in order: the
    substep ending at a node and then the jump there, each by ``su2_product``;
    the quaternion projection every ``RENORM_STEPS`` grid steps and at the
    horizon.  States are stacks of one, so every operation runs on arrays.
    """
    path = simmod._layout(spec, indices)
    rot = su2_exp_batch(np.sqrt(2.0 * spec.c) * path.db) if spec.c > 0.0 else None
    atoms = np.array([tau for tau, _ in spec.jumps.atoms], dtype=complex).reshape(-1, 2, 2)
    path.states = np.empty((len(path.times), 2, 2), dtype=complex)
    path.prestates = np.empty((len(path.event_rows), 2, 2), dtype=complex)
    for p in range(len(path.indices)):
        g, k = np.eye(2, dtype=complex)[None], 0
        path.states[path.offsets[p]] = g[0]
        for i in range(path.offsets[p] + 1, path.offsets[p + 1]):
            g = su2_product(g, rot[i - 1]) if rot is not None else g
            if path.marks[i] >= 0:
                path.prestates[np.searchsorted(path.event_rows, i)] = g[0]
                g = su2_product(g, atoms[path.marks[i]])
            else:
                k += 1
                if k % simmod.RENORM_STEPS == 0 or k == spec.n_steps:
                    a = (g[:, 0, 0] + g[:, 1, 1].conj()) / 2.0
                    b = (g[:, 0, 1] - g[:, 1, 0].conj()) / 2.0
                    norm = np.sqrt(a.real**2 + b.imag**2 + b.real**2 + a.imag**2)
                    a, b = a / norm, b / norm
                    projected = np.stack([a, b, -np.conj(b), np.conj(a)], axis=-1).reshape(1, 2, 2)
                    path.unitarity_residual = max(path.unitarity_residual, float(np.max(np.abs(projected - g))))
                    g = projected
            path.states[i] = g[0]
    return path


@pytest.mark.parametrize("chunk", ["whole", "one"])
@pytest.mark.parametrize("name", ["su2", "su2-c0", "su2-no-jumps", "su2-grid-time-events"])
def test_su2_first_rows_match_the_matrix_loop(name, chunk, monkeypatch):
    spec = BATCH_SPECS[name.replace("-grid-time-events", "")]
    if name.endswith("-grid-time-events"):
        monkeypatch.setattr(simmod, "_draw_events", lambda spec, indices: [grid_time_events(spec, i) for i in indices])
    ref = matrix_loop_path(spec, np.arange(7))
    if name == "su2":  # some grid step of some path holds two or more events
        cells = ref.cells[ref.event_rows]
        assert len(np.unique(cells)) < len(cells)
    if chunk == "one":
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
        for p in range(7):
            lone, rows = simulate_paths(spec, [p]), slice(ref.offsets[p], ref.offsets[p + 1])
            assert np.array_equal(lone.states, ref.states[rows])
            assert np.array_equal(lone.prestates, ref.prestates[ref.owner[ref.event_rows] == p])
    else:
        batch = simulate_paths(spec, np.arange(7))
        assert np.array_equal(batch.states, ref.states)
        assert np.array_equal(batch.prestates, ref.prestates)
        assert batch.unitarity_residual == ref.unitarity_residual
    assert np.array_equal(ensemble_final_states(spec, 7), ref.states[ref.end_rows])


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_compound_poisson_atoms_are_generator_choice_draws(atoms):
    masses = np.array([1.0, 0.3, 2.5, 0.7][:atoms])
    lam = float(np.sum(masses))
    counts = set()
    for i in range(150):
        horizon = (i % 8) * 1.6 / lam  # mean event counts 0 to 11.2
        gen, ref = rngmod.stream(9, atoms, i), rngmod.stream(9, atoms, i)
        times, marks = simmod._compound_poisson(masses, horizon)(gen, 0)
        count = int(ref.poisson(lam * horizon))
        assert np.array_equal(times, np.sort(ref.uniform(0.0, horizon, size=count)))
        assert np.array_equal(marks, ref.choice(atoms, size=count, p=masses / lam))
        assert gen.random(3).tobytes() == ref.random(3).tobytes()  # and so are the draws that follow
        counts.add(count)
    assert counts >= set(range(13))


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
