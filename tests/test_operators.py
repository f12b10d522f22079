import numpy as np
import pytest

from levymult import rng as rngmod
from levymult.euclid import riesz2_symbol_rn
from levymult.groups import dual_enumerate, pw_inverse, random_band_limited
from levymult.levy import LevyMeasureRn, LevyTriple
from levymult.operators import (
    GridFunction,
    _band_coeffs,
    apply_symbol_coeffs,
    apply_symbol_grid,
    frequency_lattice,
    lp_norm,
    norm_lower_bound_search,
    plancherel_residual,
    semigroup_symbol,
    symbol_on_lattice,
)
from levymult.symbols import riesz2_symbol_group, symbol_table


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
    out2 = apply_symbol_grid(
        lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), f, zero_mode=1.0
    )
    assert np.mean(out2.values) == pytest.approx(2.0, abs=1e-13)


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
    one = apply_symbol_grid(semigroup_symbol(triple, 0.8), f)
    two = apply_symbol_grid(
        semigroup_symbol(triple, 0.3), apply_symbol_grid(semigroup_symbol(triple, 0.5), f)
    )
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
    table = symbol_table(dual_enumerate("t2", cutoff), lambda pi: riesz2_symbol_group(c, pi), trivial=0.0)
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
    res = norm_lower_bound_search(symbol_on_lattice(lambda xi: np.ones(len(xi)), (16, 16)), 3.0, trials=3, refine_steps=3, seed=1)
    assert abs(res.ratio - 1.0) < 1e-9
    res2 = norm_lower_bound_search(symbol_on_lattice(lambda xi: np.full(len(xi), 0.7 + 0.0j), (16, 16)), 2.0, trials=3, refine_steps=3, seed=1)
    assert abs(res2.ratio - 0.7) < 1e-9


def test_norm_search_riesz_p2_approaches_but_never_exceeds_one():
    res = norm_lower_bound_search(
        symbol_on_lattice(lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), (32, 32)),
        2.0,
        trials=6,
        refine_steps=6,
        seed=2,
    )
    assert res.ratio <= 1.0 + 1e-9
    assert res.ratio > 0.9


def test_norm_search_deterministic():
    m = symbol_on_lattice(lambda xi: riesz2_symbol_rn(np.diag([1.0, -1.0]), xi), (16, 16))
    a = norm_lower_bound_search(m, 1.5, trials=3, refine_steps=2, seed=42)
    b = norm_lower_bound_search(m, 1.5, trials=3, refine_steps=2, seed=42)
    assert a.ratio == b.ratio
    assert np.array_equal(a.witness.values, b.witness.values)


def test_grid_function_validation():
    with pytest.raises(ValueError, match="power of two"):
        GridFunction(np.zeros((6, 8)))
    with pytest.raises(ValueError, match="finite"):
        GridFunction(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="period"):
        GridFunction(np.zeros((4, 4)), period=(1.0,))


def test_frequency_lattice_scaling():
    f = GridFunction(np.zeros((4, 4)), period=(2.0, 1.0))
    lat = frequency_lattice(f)
    assert lat[1, 0, 0] == pytest.approx(0.5)  # index 1 on a period-2 axis
    assert lat[0, 1, 1] == pytest.approx(1.0)


def _callable_search(m, shape, p, trials, refine_steps, seed):
    """The search as it was when it took the symbol as a callable, for reference."""
    band = max(1, min(min(shape) // 4, (min(shape) - 2) // 2))
    q = p / (p - 1.0)
    madj = lambda xi: np.conj(np.asarray(m(xi), dtype=complex))
    best_ratio, best = -np.inf, None
    for trial in range(trials):
        gen = rngmod.stream(seed, rngmod.SEARCH, trial)
        x = GridFunction.from_coeffs(_band_coeffs(shape, band, gen))
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
    res = norm_lower_bound_search(symbol_on_lattice(m, (16, 16)), p, trials=3, refine_steps=3, seed=9)
    assert res.ratio == ratio
    assert np.array_equal(res.witness.values, witness.values)


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
    assert calls == [16 * 16 - 1]
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["p"] for row in rows] == [1.5, 2.0, 3.0]
