import warnings

import numpy as np
import pytest

from levymult import linalg
from levymult import operators as ops
from levymult import rng as rngmod
from levymult.euclid import multiplier_autonomous_grid, riesz2_symbol_rn
from levymult.groups import GroupLevyMeasure, dual_enumerate, pw_inverse, random_band_limited
from levymult.levy import LevyMeasureRn, LevyTriple, symbol_grid
from levymult.operators import (
    GridFunction,
    _band_coeffs,
    apply_symbol_coeffs,
    apply_symbol_grid,
    frequency_lattice,
    lp_norm,
    norm_lower_bound_search,
    plancherel_residual,
    symbol_on_lattice,
)
from levymult.symbols import central_symbols


def _wave(grid=16):
    x = np.arange(grid) / grid
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return xx, yy


def test_identity_and_zero_symbols():
    xx, yy = _wave()
    f = GridFunction(np.cos(2 * np.pi * xx) + 0.3 * np.sin(2 * np.pi * (xx + 2 * yy)))
    same = apply_symbol_grid(lambda xi: np.ones(len(xi)), f)
    assert np.max(np.abs(same.values - f.values)) < 1e-12
    zero = apply_symbol_grid(lambda xi: np.zeros(len(xi)), f)
    assert np.max(np.abs(zero.values)) == 0.0


def test_riesz_leaves_single_horizontal_wave_fixed():
    xx, _ = _wave()
    f = GridFunction(np.cos(2 * np.pi * xx))
    out = apply_symbol_grid(lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), f)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_zero_mode_defaults_to_zero_for_riesz():
    xx, _ = _wave()
    f = GridFunction(2.0 + np.cos(2 * np.pi * xx))  # constant plus wave
    out = apply_symbol_grid(lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), f)
    # the mean is annihilated, the wave survives
    assert np.mean(out.values) == pytest.approx(0.0, abs=1e-13)
    assert np.max(np.abs(out.values - np.cos(2 * np.pi * xx))) < 1e-12
    # a symbol that evaluates at xi = 0 keeps its value there
    out2 = apply_symbol_grid(lambda xi: 1.0 + riesz2_symbol_rn(np.diag([1.0, -1.0]), xi + 0.5), f)
    assert np.mean(out2.values) == pytest.approx(2.0, abs=1e-13)


def test_symbol_is_evaluated_once_and_alone_at_zero():
    calls = []

    def m(xi):
        calls.append((len(xi), int(np.sum(np.all(xi == 0.0, axis=1)))))
        return riesz2_symbol_rn(np.diag([1.0, -1.0]), xi)

    vals = symbol_on_lattice(m, (8, 4))
    # every nonzero frequency in one call, then xi = 0 alone, where the raise makes the mode 0
    assert calls == [(31, 0), (1, 1)]
    assert vals[0, 0] == 0.0
    # a symbol that is 0/0 at xi = 0 without raising gets 0 there too
    ratio = lambda xi: (xi[:, 0] ** 2 - xi[:, 1] ** 2) / np.sum(xi**2, axis=1)
    other = symbol_on_lattice(ratio, (8, 4))
    assert other[0, 0] == 0.0
    assert np.max(np.abs(other - vals)) <= 1e-15


def test_a_symbol_error_off_zero_is_raised_by_the_first_call():
    calls = []

    def m(xi):
        calls.append(len(xi))
        raise ValueError("bad symbol")

    with pytest.raises(ValueError, match="bad symbol"):
        symbol_on_lattice(m, (4, 4))
    assert calls == [15]


def test_nonfinite_symbol_rejected():
    f = GridFunction(np.ones((8, 8)))

    def bad(xi):
        out = np.ones(len(xi))
        out[3] = np.inf
        return out

    with pytest.raises(ValueError, match="finite"):
        apply_symbol_grid(bad, f)


def test_semigroup_additivity_with_drift_and_jumps():
    nu = LevyMeasureRn(dim=2, atoms=(((0.5, 0.2), 0.4),))
    triple = LevyTriple(drift=[0.3, -0.1], diffusion=0.2 * np.eye(2), nu=nu)
    xx, yy = _wave()
    f = GridFunction(np.exp(2j * np.pi * xx) + 0.5 * np.cos(2 * np.pi * yy))

    def semigroup(t):
        """Symbol e^{t rho(-2 pi xi)} of the transition semigroup on the grid."""

        def m(xi):
            re, im = symbol_grid(triple, -2.0 * np.pi * xi)
            return np.exp(t * (re + 1j * im))

        return m

    one = apply_symbol_grid(semigroup(0.8), f)
    two = apply_symbol_grid(semigroup(0.3), apply_symbol_grid(semigroup(0.5), f))
    assert np.max(np.abs(one.values - two.values)) < 1e-10


def test_apply_coeffs_identity_zero_and_missing_label():
    coeffs = random_band_limited("t2", 2, rngmod.stream(1, 1))
    dual = dual_enumerate("t2", 2)
    ident = {pi.label: np.eye(pi.dim) for pi in dual}
    out = apply_symbol_coeffs(ident, coeffs)
    assert all(np.array_equal(out.blocks[lb], coeffs.blocks[lb]) for lb in coeffs.labels())
    zero = apply_symbol_coeffs({pi.label: np.zeros((pi.dim, pi.dim)) for pi in dual}, coeffs)
    assert all(np.max(np.abs(zero.blocks[lb])) == 0.0 for lb in coeffs.labels())
    with pytest.raises(KeyError):
        apply_symbol_coeffs({}, coeffs)


def test_grid_and_coefficient_routes_agree_on_t2():
    grid = 32
    cutoff = 4
    coeffs = random_band_limited("t2", cutoff, rngmod.stream(1, 2))
    x = np.arange(grid) / grid
    xx, yy = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([2 * np.pi * xx.ravel(), 2 * np.pi * yy.ravel()], axis=1)
    values = pw_inverse(coeffs, pts).reshape(grid, grid)
    c = np.array([[0.6, 0.2], [0.2, -0.8]])
    via_grid = apply_symbol_grid(lambda xi: riesz2_symbol_rn(c, xi), GridFunction(values))
    # second-order Riesz: the central symbol at c = 1 without jumps, a zero block on constants
    dual = dual_enumerate("t2", cutoff)
    table = dict(zip([pi.label for pi in dual], central_symbols(c, None, 1.0, GroupLevyMeasure("t2"), dual, None)[0]))
    via_coeffs = pw_inverse(apply_symbol_coeffs(table, coeffs), pts).reshape(grid, grid)
    assert np.max(np.abs(via_grid.values - via_coeffs)) < 1e-10 * np.max(np.abs(values))


def test_lp_norm_examples():
    const = GridFunction(np.full((8, 8), 2.5 + 0j))
    assert lp_norm(const, 3.0) == pytest.approx(2.5)
    half = np.zeros((8, 8), dtype=complex)
    half[:4, :] = 1.0
    assert lp_norm(GridFunction(half), 2.0) == pytest.approx(np.sqrt(0.5))
    with pytest.raises(ValueError):
        lp_norm(const, 1.0)
    with pytest.raises(ValueError):
        lp_norm(const, np.inf)


def test_lp_norm_square_matches_plancherel():
    gen = rngmod.stream(1, 3)
    f = GridFunction(gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16)))
    coeff_side = np.sqrt(np.sum(np.abs(f.coeffs()) ** 2))
    assert lp_norm(f, 2.0) == pytest.approx(coeff_side, rel=1e-8)


def test_weighted_sample_norm():
    values = np.array([1.0, 2.0, 2.0])
    weights = np.array([0.5, 0.25, 0.25])
    assert lp_norm((values, weights), 2.0) == pytest.approx(np.sqrt(0.5 + 2.0))


def test_plancherel_residual_grid_and_groups():
    gen = rngmod.stream(1, 4)
    f = GridFunction(gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16)))
    g = GridFunction(gen.standard_normal((16, 16)))
    assert plancherel_residual(f, g) < 1e-12
    fc = random_band_limited("su2", 1.0, gen)
    gc = random_band_limited("su2", 1.0, gen)
    assert plancherel_residual(fc, gc) < 1e-6 * fc.l2_norm() * gc.l2_norm()
    one = random_band_limited("t1", 2, gen)
    assert plancherel_residual(one, one) >= 0.0


def test_norm_search_identity_and_constant():
    res = norm_lower_bound_search(symbol_on_lattice(lambda xi: np.ones(len(xi)), (16, 16)), [3.0], trials=3, refine_steps=3, seed=1)[0]
    assert abs(res.ratio - 1.0) < 1e-9
    res2 = norm_lower_bound_search(symbol_on_lattice(lambda xi: np.full(len(xi), 0.7 + 0.0j), (16, 16)), [2.0], trials=3, refine_steps=3, seed=1)[0]
    assert abs(res2.ratio - 0.7) < 1e-9


def test_norm_search_riesz_p2_approaches_but_never_exceeds_one():
    res = norm_lower_bound_search(
        symbol_on_lattice(lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), (32, 32)),
        [2.0],
        trials=6,
        refine_steps=6,
        seed=2,
    )[0]
    assert res.ratio <= 1.0 + 1e-9
    assert res.ratio > 0.9


def test_norm_search_deterministic():
    m = symbol_on_lattice(lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), (16, 16))
    a = norm_lower_bound_search(m, [1.5], trials=3, refine_steps=2, seed=42)[0]
    b = norm_lower_bound_search(m, [1.5], trials=3, refine_steps=2, seed=42)[0]
    assert a.ratio == b.ratio
    assert np.array_equal(a.witness.values, b.witness.values)


def test_grid_function_validation():
    with pytest.raises(ValueError, match="power of two"):
        GridFunction(np.zeros((6, 8)))
    with pytest.raises(ValueError, match="finite"):
        GridFunction(np.array([[np.inf, 0.0], [0.0, 0.0]]))


def test_frequency_lattice_scaling():
    # unit period: the signed integer index of every axis, xi = 0 first
    lat = frequency_lattice(GridFunction(np.zeros((4, 2))))
    assert lat.shape == (4, 2, 2)
    assert lat[:, 0, 0].tolist() == [0.0, 1.0, -2.0, -1.0]
    assert lat[0, :, 1].tolist() == [0.0, -1.0]


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _callable_search(m, shape, p, trials, refine_steps, seed):
    """The search as it was when it took the symbol as a callable, for reference."""
    band = max(1, min(min(shape) // 4, (min(shape) - 2) // 2))
    q = p / (p - 1.0)
    madj = lambda xi: np.conj(np.asarray(m(xi), dtype=complex))
    best_ratio, best = -np.inf, None
    for trial in range(trials):
        gen = rngmod.stream(seed, rngmod.SEARCH, trial)
        x = GridFunction(np.fft.fftn(_band_coeffs(shape, band, gen)))
        for _ in range(refine_steps + 1):
            nx = lp_norm(x, p)
            y = apply_symbol_grid(m, x)
            ratio = lp_norm(y, p) / nx
            if ratio > best_ratio:
                best_ratio, best = ratio, x
            dual = np.abs(y.values) ** (p - 1.0) * np.exp(1j * np.angle(y.values))
            zv = apply_symbol_grid(madj, GridFunction(dual)).values
            xv = np.abs(zv) ** (q - 1.0) * np.exp(1j * np.angle(zv))
            x = GridFunction(xv / np.max(np.abs(xv)))
    return best_ratio, best


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_norm_search_on_values_matches_the_callable_route_bitwise(p):
    m = lambda xi: riesz2_symbol_rn(np.array([[1.0, 0.4], [0.4, -0.6]]), xi)
    ratio, witness = _callable_search(m, (16, 16), p, trials=3, refine_steps=3, seed=9)
    res = norm_lower_bound_search(symbol_on_lattice(m, (16, 16)), [p], trials=3, refine_steps=3, seed=9)[0]
    assert res.ratio == ratio
    # the duality maps are |y|^{p-2} y here, |y|^{p-1} e^{i arg y} there: witnesses move by ulps
    assert _max_rel(res.witness.values, witness.values) <= 1e-12


def _per_pair_search(values, p, trials, refine_steps, seed):
    """The search one p and one trial at a time, with lp_norm, for reference."""
    shape = values.shape
    band = max(1, min(min(shape) // 4, (min(shape) - 2) // 2))
    q = p / (p - 1.0)
    best_ratio, best = -np.inf, None
    for trial in range(trials):
        gen = rngmod.stream(seed, rngmod.SEARCH, trial)
        x = GridFunction(np.fft.fftn(ops._band_coeffs(shape, band, gen)))
        for _ in range(refine_steps + 1):
            nx = lp_norm(x, p)
            if nx == 0.0:
                break
            y = GridFunction(np.fft.fftn(values * x.coeffs()))
            ratio = lp_norm(y, p) / nx
            if ratio > best_ratio:
                best_ratio, best = ratio, x
            dual = np.abs(y.values) ** (p - 1.0) * np.exp(1j * np.angle(y.values))
            zv = np.fft.fftn(np.conj(values) * np.fft.ifftn(dual))
            xv = np.abs(zv) ** (q - 1.0) * np.exp(1j * np.angle(zv))
            scale = np.max(np.abs(xv))
            if scale == 0.0 or not np.all(np.isfinite(xv)):
                break
            x = GridFunction(xv / scale)
    if best is None:
        raise ValueError("all trial functions degenerated to zero norm")
    return best_ratio, best


SEARCH_PS = (1.5, 2.0, 3.0, 4.0)


def _search_symbols():
    """A Riesz symbol, an atoms fixture with complex psi and a criterion-3 central symbol on 16^2."""
    from levymult import verify

    shape = (16, 16)
    xi = verify._nonzero_lattice(shape)
    riesz = symbol_on_lattice(lambda k: riesz2_symbol_rn(np.array([[1.0, 0.4], [0.4, -0.6]]), k), shape)
    gen = rngmod.stream(3, rngmod.SPEC_DRAW, 0)
    amat = verify._random_bounded_matrix(gen, 2)
    atoms = tuple((gen.standard_normal(2), float(gen.uniform(0.2, 1.5))) for _ in range(3))
    psi = gen.uniform(-0.9, 0.9, size=3) * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, size=3))
    atoms_sym = multiplier_autonomous_grid(amat, psi, np.zeros((2, 2)), LevyMeasureRn(dim=2, atoms=atoms), xi)
    assert np.max(np.abs(atoms_sym.imag)) > 1e-3
    central = verify._central_lattice_symbol(rngmod.stream(20242, rngmod.SPEC_DRAW, 240), xi)
    return {
        "riesz": riesz,
        "atoms": np.concatenate([[0.0], atoms_sym]).reshape(shape),
        "central": np.concatenate([[0.0], central]).reshape(shape),
    }


@pytest.mark.parametrize("name", ["riesz", "atoms", "central"])
def test_stacked_search_matches_the_per_pair_loop(name):
    values = _search_symbols()[name]
    results = norm_lower_bound_search(values, SEARCH_PS, trials=4, refine_steps=4, seed=11)
    assert [res.p for res in results] == list(SEARCH_PS)
    for res in results:
        ratio, witness = _per_pair_search(values, res.p, 4, 4, 11)
        assert res.ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)
        assert _max_rel(res.witness.values, witness.values) <= 1e-12


def test_stacked_search_of_the_zero_symbol_is_zero_without_warnings():
    values = np.zeros((16, 16), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = norm_lower_bound_search(values, SEARCH_PS, trials=3, refine_steps=3, seed=5)
    for res in results:
        ratio, witness = _per_pair_search(values, res.p, 3, 3, 5)
        assert res.ratio == ratio == 0.0
        assert _max_rel(res.witness.values, witness.values) <= 1e-12


def test_a_zero_start_is_masked_while_the_other_trials_run(monkeypatch):
    zero_state = str(rngmod.stream(5, rngmod.SEARCH, 1).bit_generator.state)
    original = ops._band_coeffs

    def band_coeffs(shape, band, gen):
        is_zero = str(gen.bit_generator.state) == zero_state  # the start of trial 1
        out = original(shape, band, gen)
        return np.zeros_like(out) if is_zero else out

    monkeypatch.setattr(ops, "_band_coeffs", band_coeffs)
    assert not ops._band_coeffs((16, 16), 4, rngmod.stream(5, rngmod.SEARCH, 1)).any()
    values = _search_symbols()["riesz"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = norm_lower_bound_search(values, SEARCH_PS, trials=3, refine_steps=3, seed=5)
    for res in results:
        ratio, witness = _per_pair_search(values, res.p, 3, 3, 5)
        assert res.ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)
        assert res.ratio > 0.5
        assert _max_rel(res.witness.values, witness.values) <= 1e-12


def test_one_p_matches_the_same_p_in_a_stack():
    values = _search_symbols()["atoms"]
    stacked = norm_lower_bound_search(values, SEARCH_PS, trials=4, refine_steps=4, seed=2)
    for res in stacked:
        alone = norm_lower_bound_search(values, [res.p], trials=4, refine_steps=4, seed=2)[0]
        assert alone.ratio == pytest.approx(res.ratio, rel=1e-12, abs=0.0)
        assert _max_rel(alone.witness.values, res.witness.values) <= 1e-12


def test_search_blocks_split_the_pairs_without_moving_results(monkeypatch):
    values = _search_symbols()["central"]
    whole = norm_lower_bound_search(values, SEARCH_PS, trials=3, refine_steps=3, seed=4)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 5 * 16 * values.size)  # blocks of 5 rows: 12 pairs in 3
    split = norm_lower_bound_search(values, SEARCH_PS, trials=3, refine_steps=3, seed=4)
    for a, b in zip(whole, split):
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12, abs=0.0)
        assert _max_rel(a.witness.values, b.witness.values) <= 1e-12


@pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
def test_search_rejects_p_outside_the_open_interval(p, monkeypatch):
    monkeypatch.setattr(ops, "_band_coeffs", None)  # no trial may start
    with pytest.raises(ValueError, match="p must lie"):
        norm_lower_bound_search(np.ones((8, 8)), [2.0, p], trials=2, refine_steps=1)


def test_search_with_no_trials_or_steps_still_reports_degeneration():
    for trials, steps in ((0, 2), (2, -1)):
        with pytest.raises(ValueError, match="degenerated"):
            norm_lower_bound_search(np.ones((8, 8)), [2.0], trials=trials, refine_steps=steps)


def test_cli_norm_search_evaluates_the_multiplier_once(tmp_path, monkeypatch, capsys):
    import json

    from levymult import cli

    calls = []
    original = cli.multiplier_autonomous_grid

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "multiplier_autonomous_grid", counted)
    cfg = tmp_path / "ns.json"
    density = {"profile": {"type": "exp", "scale": 1.1}, "inner": 0.06, "outer": 0.45, "nodes": 24}
    cfg.write_text(
        json.dumps(
            {
                "triple": {"diffusion": [[0.2, 0.0], [0.0, 0.1]], "atoms": [], "density": density},
                "amatrix": [[0.5, 0.0], [0.0, -0.5]],
                "psi": 0.3,
                "grid": 16,
                "p": [1.5, 2.0, 3.0],
                "trials": 3,
                "refine": 2,
            }
        )
    )
    assert cli.main(["--seed", "4", "norm-search", "--config", str(cfg)]) == 0
    assert calls == [16 * 16 - 1, 1]  # once on the nonzero frequencies, once on xi = 0 alone (where it raises)
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["p"] for row in rows] == [1.5, 2.0, 3.0]


@pytest.mark.parametrize(
    "triple",
    [
        {"diffusion": [[0.2, 0.0], [0.0, 0.1]], "atoms": [{"point": [0.3, -0.2], "mass": 0.5}]},
        {
            "diffusion": [[0.2, 0.0], [0.0, 0.1]],
            "density": {"profile": {"type": "exp", "scale": 1.1}, "inner": 0.06, "outer": 0.45, "nodes": 24},
        },
    ],
    ids=["atoms", "density"],
)
def test_cli_norm_search_factors_the_diffusion_once(tmp_path, monkeypatch, capsys, triple):
    import json

    from levymult import cli, euclid

    calls = []
    original = euclid.factor_diffusion

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(euclid, "factor_diffusion", counted)
    cfg = tmp_path / "ns.json"
    cfg.write_text(json.dumps({"triple": triple, "amatrix": [[0.5, 0.0], [0.0, -0.5]], "psi": 0.3, "grid": 8}))
    assert cli.main(["norm-search", "--config", str(cfg)]) == 0
    assert len(calls) == 1  # xi = 0 is refused before the diffusion is factored
