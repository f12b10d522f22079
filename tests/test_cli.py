import contextlib
import gzip
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

RUN = [sys.executable, "-m", "levymult.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(RUN + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_constants_json():
    out = json.loads(run_cli("constants", "--p", "3").stdout)
    assert out["burkholder"] == 2.0
    assert out["p_star"] == 3.0
    assert out["choi"]["asymptotic"] is True
    assert "config_hash" in out["meta"]


def test_constants_interval():
    out = json.loads(run_cli("constants", "--p", "3", "--b", "-1", "--B", "1").stdout)
    assert out["interval"]["lower"] == out["interval"]["upper"] == 2.0


def test_dual_t2_count():
    out = json.loads(run_cli("dual", "--group", "t2", "--cutoff", "1").stdout)
    assert len(out["irreps"]) == 9
    kappas = {tuple(r["label"]): r["casimir"] for r in out["irreps"]}
    assert kappas[(1, 1)] == 2.0


def test_dual_csv_format():
    out = run_cli("--format", "csv", "dual", "--group", "t1", "--cutoff", "2").stdout
    lines = out.strip().splitlines()
    assert lines[0].startswith("# seed=0 config_hash=")
    assert lines[1] == "label,dim,casimir"
    assert len(lines) == 7


def test_symbol_command(tmp_path):
    cfg = tmp_path / "symbol.json"
    cfg.write_text(
        json.dumps(
            {
                "triple": {
                    "drift": [0.0],
                    "diffusion": [[1.0]],
                    "atoms": [{"point": [1.0], "mass": 1.0}, {"point": [-1.0], "mass": 1.0}],
                },
                "xi": [[0.7]],
            }
        )
    )
    out = json.loads(run_cli("symbol", "--config", str(cfg)).stdout)
    row = out["rows"][0]
    assert row["re"] == pytest.approx(-0.49 + 2.0 * (np.cos(0.7) - 1.0))
    assert row["im"] == pytest.approx(0.0)


def test_multiplier_csv(tmp_path):
    cfg = tmp_path / "mult.json"
    cfg.write_text(
        json.dumps(
            {
                "triple": {"drift": [0.0, 0.0], "diffusion": [[1.0, 0.0], [0.0, 1.0]], "atoms": []},
                "amatrix": [[1.0, 0.0], [0.0, 0.0]],
                "mode": "autonomous",
                "xi": [[1.0, 0.0], [1.0, 1.0]],
            }
        )
    )
    out = run_cli("--format", "csv", "multiplier", "--config", str(cfg)).stdout
    lines = out.strip().splitlines()
    assert lines[1] == "xi1,xi2,re_m,im_m"
    first = [float(v) for v in lines[2].split(",")]
    assert first[2] == pytest.approx(1.0)
    second = [float(v) for v in lines[3].split(",")]
    assert second[2] == pytest.approx(0.5)


def test_symbol_group_riesz(tmp_path):
    cfg = tmp_path / "sg.json"
    cfg.write_text(
        json.dumps({"group": "t2", "cutoff": 1, "kind": "riesz2", "cmatrix": [[1.0, 0.0], [0.0, -1.0]]})
    )
    out = json.loads(run_cli("symbol-group", "--config", str(cfg)).stdout)
    entries = {tuple(e["label"]): e for e in out["symbols"]}
    assert "skipped" in entries[(0, 0)]
    val = entries[(1, 0)]["matrix"][0][0]
    assert val[0] == pytest.approx(1.0) and val[1] == 0.0


def _symbol_group_in_process(tmp_path, config, capsys):
    from levymult import cli

    cfg = tmp_path / "sg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["symbol-group", "--config", str(cfg)]) == 0
    return json.loads(capsys.readouterr().out)


CENTRAL_CONFIGS = {
    "t2": {
        "group": "t2", "cutoff": 4, "kind": "central", "c": 0.35, "psi": [0.7, -0.5],
        "cmatrix": [[0.6, 0.2], [-0.1, -0.5]],
        "atoms": [{"angle": [0.4, -1.1], "mass": 0.8}, {"angle": [2.0, 0.3], "mass": 0.5}],
    },
    "su2": {
        "group": "su2", "cutoff": 2.5, "kind": "central", "c": 0.3, "psi": [0.6, -0.4],
        "cmatrix": [[0.5, 0.1, 0.0], [0.0, -0.4, 0.2], [0.1, 0.0, 0.3]],
        "atoms": [{"axis_angle": [0.6, 0.3, 1.1], "mass": 0.9}, {"axis_angle": [0.0, 0.0, 6.0], "mass": 0.5}],
    },
}


@pytest.mark.parametrize("group", sorted(CENTRAL_CONFIGS))
def test_symbol_group_central_matches_per_irrep_symbols(group, tmp_path, capsys):
    from levymult.groups import GroupLevyMeasure, dual_enumerate, su2_exp
    from levymult.symbols import central_alpha, central_multiplier

    config = CENTRAL_CONFIGS[group]
    out = _symbol_group_in_process(tmp_path, config, capsys)
    key = "angle" if group == "t2" else "axis_angle"
    to_element = np.asarray if group == "t2" else su2_exp
    nu = GroupLevyMeasure(group, tuple((to_element(a[key]), a["mass"]) for a in config["atoms"]))
    dual = dual_enumerate(group, config["cutoff"])
    assert [e["label"] for e in out["symbols"]] == [list(pi.label) if group == "t2" else pi.label for pi in dual]
    for pi, entry, (re, im) in zip(dual, out["symbols"], out["alpha"]):
        alpha = central_alpha(config["c"], nu, pi)
        assert abs(complex(re, im) - alpha) <= 1e-12 * abs(alpha) + 1e-15
        if pi.casimir == 0.0:
            assert "skipped" in entry
            continue
        expect = central_multiplier(np.array(config["cmatrix"]), np.array(config["psi"]), config["c"], nu, pi)
        got = np.array(entry["matrix"])
        got = got[..., 0] + 1j * got[..., 1]
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize(
    "config,undefined",
    [
        # c = 0, one atom at (pi, 0): the modes with even k1 do not see the atom
        (
            {"group": "t2", "cutoff": 2, "kind": "central", "c": 0.0, "psi": [0.7],
             "cmatrix": [[1.0, 0.0], [0.0, 1.0]], "atoms": [{"angle": [3.141592653589793, 0.0], "mass": 1.0}]},
            [[k1, k2] for k1 in (-2, 0, 2) for k2 in range(-2, 3)],
        ),
        # c = 0, one atom at exp(2 pi X_3) = -I up to rounding: integer spins do not see it
        (
            {"group": "su2", "cutoff": 2, "kind": "central", "c": 0.0, "psi": [0.7],
             "atoms": [{"axis_angle": [0.0, 0.0, 6.283185307179586], "mass": 1.0}]},
            [0.0, 1.0, 2.0],
        ),
    ],
)
def test_symbol_group_central_skips_every_undefined_mode(config, undefined, tmp_path, capsys):
    out = _symbol_group_in_process(tmp_path, config, capsys)
    skipped = [e["label"] for e in out["symbols"] if "skipped" in e]
    assert sorted(skipped) == sorted(undefined)
    assert all(e["skipped"] == "Re alpha = 0: multiplier undefined" for e in out["symbols"] if "skipped" in e)
    for entry in out["symbols"]:
        if "matrix" in entry:
            assert np.all(np.isfinite(np.array(entry["matrix"])))
    assert len(out["alpha"]) == len(out["symbols"])


SU2_ATOM = [{"axis_angle": [0.6, 0.3, 1.1], "mass": 0.9}]
TRIVIAL = {
    "riesz2": "Riesz symbol undefined on constants (trivial representation)",
    "laplace": "Laplace-transform-type symbol undefined on the trivial representation",
    "subordination": "subordination symbol undefined on the trivial representation",
}


@pytest.mark.parametrize(
    "config",
    [
        {"group": "t1", "cutoff": 2, "kind": "riesz2"},
        {"group": "t2", "cutoff": 2, "kind": "riesz2", "cmatrix": [[0.6, 0.2], [-0.1, -0.5]]},
        {"group": "su2", "cutoff": 1.5, "kind": "riesz2"},
        {"group": "t2", "cutoff": 2, "kind": "laplace", "gamma": 0.7},
        {"group": "su2", "cutoff": 1.5, "kind": "laplace"},
        {"group": "su2", "cutoff": 1.5, "kind": "subordination", "psi": 0.5, "atoms": SU2_ATOM, "bernstein": {"c": 0.2}},
        # h = 0: undefined on every mode
        {"group": "t1", "cutoff": 2, "kind": "subordination", "psi": 0.5, "atoms": [{"angle": [1.3]}], "bernstein": {}},
        {"group": "su2", "cutoff": 1.5, "kind": "subordination", "psi": 0.5, "atoms": SU2_ATOM, "bernstein": {}},
    ],
)
def test_symbol_group_skips_the_undefined_modes_of_every_kind(config, tmp_path, capsys):
    from levymult.groups import dual_enumerate

    out = _symbol_group_in_process(tmp_path, config, capsys)
    h_zero = config.get("bernstein") == {}
    dual = dual_enumerate(config["group"], config["cutoff"])
    assert len(out["symbols"]) == len(dual)
    for pi, entry in zip(dual, out["symbols"]):
        if pi.casimir == 0.0:
            assert entry["skipped"] == TRIVIAL[config["kind"]]
        elif h_zero:
            assert entry["skipped"] == "h(kappa) = 0: subordination symbol undefined"
        else:
            assert entry["dim"] == pi.dim and np.all(np.isfinite(np.array(entry["matrix"])))


def test_multiplier_autonomous_profile_exits_2_without_frequencies(tmp_path):
    cfg = tmp_path / "mult.json"
    cfg.write_text(
        json.dumps(
            {
                "triple": {"diffusion": [[1.0]]},
                "aprofile": {"type": "imaginary_power", "gamma": 0.5},
                "mode": "autonomous",
                "xi": [],
            }
        )
    )
    proc = run_cli("multiplier", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert "constant matrix" in proc.stderr


def _multiplier_rows(tmp_path, capsys, config):
    from levymult import cli

    cfg = tmp_path / "mult.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["multiplier", "--config", str(cfg)]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def test_time_mode_with_a_matrix_is_the_autonomous_route_at_2pi_xi(tmp_path, capsys):
    # a constant pair's time-integrated multiplier at xi is the autonomous ratio at 2 pi xi, bit for bit
    rng = np.random.default_rng(11)
    m = rng.standard_normal((2, 2))
    a = 0.4 * m @ m.T
    amat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    amat /= 1.3 * np.linalg.norm(amat, 2)
    xi = rng.standard_normal((20, 2)) * 2.0
    pair = {"amatrix": {"re": amat.real.tolist(), "im": amat.imag.tolist()}, "a_bound": 1.0, "psi_bound": 1.0}
    atoms = {"atoms": [{"point": [0.5, -0.2], "mass": 0.7}, {"point": [1.5, 0.3], "mass": 0.4}]}
    density = {"density": {"profile": {"type": "exp", "scale": 1.1}, "inner": 0.06, "outer": 0.45, "nodes": 72}}
    for jumps, psi in ((atoms, {"psi": [0.8, -0.5]}), (density, {"psi": 0.6}), (density, {})):
        config = {"triple": {"diffusion": a.tolist(), **jumps}, **pair, **psi}
        time = _multiplier_rows(tmp_path, capsys, {**config, "mode": "time", "xi": xi.tolist()})
        auto = _multiplier_rows(tmp_path, capsys, {**config, "mode": "autonomous", "xi": (2.0 * np.pi * xi).tolist()})
        assert [[row["xi1"], row["xi2"]] for row in time] == xi.tolist()  # the rows still print xi
        assert [(row["re_m"], row["im_m"]) for row in time] == [(row["re_m"], row["im_m"]) for row in auto]


def test_imaginary_power_runs_where_its_gamma_factor_underflows(tmp_path, capsys):
    # |Gamma(1 + 1000 i)| underflows to 0, so sup |A| = 1 / |Gamma| reads inf: a declared |A| bound exits 2
    # and an undeclared one runs; the symbols, kappa^{-1000 i} on R^n and on T^1, keep modulus 1
    from levymult import cli

    config = {"triple": {"diffusion": [[1.0]]}, "aprofile": {"type": "imaginary_power", "gamma": 1000}, "mode": "time"}
    rows = _multiplier_rows(tmp_path, capsys, {**config, "xi": [[0.5], [-2.0]]})
    assert [abs(complex(row["re_m"], row["im_m"])) for row in rows] == pytest.approx([1.0, 1.0], abs=1e-15)
    cfg = tmp_path / "bounded.json"
    cfg.write_text(json.dumps({**config, "xi": [[0.5]], "a_bound": 1e300}))
    assert cli.main(["multiplier", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "measured inf" in captured.err and captured.out == ""
    coeffs = {"group": "t1", "cutoff": 3, "blocks": [{"label": 2, "matrix": [[0.5]]}, {"label": -3, "matrix": [[2.0]]}]}
    cfg = tmp_path / "apply.json"
    cfg.write_text(json.dumps({"coeffs": coeffs, "symbol": {"kind": "laplace", "gamma": 1000}}))
    assert cli.main(["apply", "--config", str(cfg)]) == 0
    blocks = {b["label"]: complex(*b["matrix"][0][0]) for b in json.loads(capsys.readouterr().out)["blocks"]}
    for label, coeff in ((2, 0.5), (-3, 2.0)):
        assert blocks[label] == pytest.approx(coeff * np.exp(-1000j * np.log(label**2)), abs=1e-15)
        assert abs(blocks[label]) == pytest.approx(coeff, abs=1e-15)


def test_time_mode_refuses_an_unresolved_density_whatever_the_drift(tmp_path, capsys):
    # the multiplier does not depend on the drift, so neither may the refinement check of its density:
    # eight nodes per decade cannot track cos(xi . y) out to |y| = 30 at |2 pi xi| = 40
    from levymult import cli

    density = {"profile": {"type": "power", "alpha": 0.5}, "inner": 0.01, "outer": 30.0, "nodes": 8}
    triple = {"drift": [1e9, 0.0], "diffusion": [[0.01, 0.0], [0.0, 0.01]], "density": density}
    for pair in ({"amatrix": [[1.0, 0.0], [0.0, 1.0]]}, {"aprofile": {"type": "imaginary_power", "gamma": 0.5}}):
        cfg = tmp_path / "mult.json"
        cfg.write_text(json.dumps({"triple": triple, **pair, "mode": "time", "xi": [[40.0 / (2.0 * np.pi), 0.0]]}))
        assert cli.main(["multiplier", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: density quadrature did not stabilise")
        assert captured.out == ""


def test_apply_command(tmp_path):
    cfg = tmp_path / "apply.json"
    cfg.write_text(
        json.dumps(
            {
                "coeffs": {
                    "group": "t2",
                    "cutoff": 1,
                    "blocks": [
                        {"label": [1, 0], "matrix": [[1.0]]},
                        {"label": [0, 1], "matrix": [[2.0]]},
                    ],
                },
                "symbol": {"kind": "riesz2", "cmatrix": [[1.0, 0.0], [0.0, -1.0]], "cutoff": 1},
            }
        )
    )
    out = json.loads(run_cli("apply", "--config", str(cfg)).stdout)
    blocks = {tuple(b["label"]): b["matrix"] for b in out["blocks"]}
    assert blocks[(1, 0)][0][0][0] == pytest.approx(1.0)
    assert blocks[(0, 1)][0][0][0] == pytest.approx(-2.0)


def test_norm_search_command(tmp_path):
    cfg = tmp_path / "ns.json"
    cfg.write_text(
        json.dumps(
            {
                "triple": {"drift": [0.0, 0.0], "diffusion": [[1.0, 0.0], [0.0, 1.0]], "atoms": []},
                "amatrix": [[1.0, 0.0], [0.0, -1.0]],
                "grid": 16,
                "p": [2.0],
                "trials": 3,
                "refine": 3,
            }
        )
    )
    out = json.loads(run_cli("--seed", "5", "norm-search", "--config", str(cfg)).stdout)
    assert 0.5 < out["rows"][0]["lower_bound"] <= 1.0 + 1e-9


NORM_SEARCH_CONFIG = {
    "triple": {"diffusion": [[1.0, 0.0], [0.0, 1.0]], "atoms": [{"point": [0.3, -0.2], "mass": 0.5}]},
    "amatrix": [[1.0, 0.0], [0.0, -1.0]],
    "psi": [0.4],
    "grid": 16,
    "p": [1.5, 3.0],
    "trials": 2,
    "refine": 1,
}


@pytest.mark.parametrize(
    "change, pointer",
    [
        ({"p": [1.0]}, "config.p[0]"),
        ({"p": [2.0, 0.5]}, "config.p[1]"),
        ({"p": ["two"]}, "config.p[0]"),
        ({"p": 2.0}, "config.p"),
        ({"trials": 0}, "config.trials"),
        ({"refine": -1}, "config.refine"),
        ({"grid": 12}, "config.grid"),
        ({"grid": 1}, "config.grid"),
        ({"band": "wide"}, "config.band"),
        ({"band": 0}, "config.band"),
    ],
)
def test_norm_search_input_errors_exit_2_with_a_pointer(tmp_path, capsys, change, pointer):
    from levymult import cli

    cfg = tmp_path / "ns.json"
    cfg.write_text(json.dumps({**NORM_SEARCH_CONFIG, **change}))
    assert cli.main(["norm-search", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"config error at '{pointer}'" in captured.err
    assert captured.out == ""


def test_norm_search_rows_follow_the_p_list(tmp_path, capsys):
    from levymult import cli

    cfg = tmp_path / "ns.json"
    cfg.write_text(json.dumps({**NORM_SEARCH_CONFIG, "p": [3.0, 1.5, 3.0]}))
    assert cli.main(["norm-search", "--config", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["p"] for row in rows] == [3.0, 1.5, 3.0]
    assert rows[0]["lower_bound"] == rows[2]["lower_bound"]


def test_symbol_group_subordination_parses_bernstein_once(tmp_path, capsys, monkeypatch):
    from levymult import cli

    parsed = []
    original = cli._bernstein

    def counted(*args, **kwargs):
        parsed.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "_bernstein", counted)
    cfg = tmp_path / "sub.json"
    cfg.write_text(
        json.dumps(
            {
                "group": "t2",
                "cutoff": 2,
                "kind": "subordination",
                "psi": [0.7],
                "atoms": [{"angle": [0.5, -1.1], "mass": 0.9}],
                "bernstein": {"c": 0.1, "atoms": [{"y": 0.5, "mass": 1.2}]},
            }
        )
    )
    assert cli.main(["symbol-group", "--config", str(cfg)]) == 0
    symbols = json.loads(capsys.readouterr().out)["symbols"]
    assert len(symbols) == 25
    assert len(parsed) == 1


SIMULATE_CONFIG = {
    "group": "t1",
    "c": 0.4,
    "atoms": [{"angle": [2.0], "mass": 1.0}],
    "horizon": 0.5,
    "dt": 0.0625,
    "paths": 5,
    "f": {
        "group": "t1",
        "cutoff": 2,
        "blocks": [
            {"label": 1, "matrix": [[0.5]]},
            {"label": -1, "matrix": [[0.5]]},
        ],
    },
    "amatrix": [[0.9]],
    "psi": 0.5,
}


def test_simulate_writes_compressed_transcripts(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(SIMULATE_CONFIG))
    out_gz = tmp_path / "tr.jsonl.gz"
    proc = run_cli("--out", str(out_gz), "--seed", "3", "simulate", "--config", str(cfg))
    summary = json.loads(proc.stdout)
    assert summary["max_violation"] <= 1e-12
    assert summary["ratio_p2"] <= 1.0 + 3.0 * summary["stderr_p2"]
    with gzip.open(out_gz, "rt") as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 5
    assert all(len(r["times"]) == 9 for r in records)
    # identical invocation produces identical bytes, other paths included
    out_gz2 = tmp_path / "tr2.jsonl.gz"
    run_cli("--out", str(out_gz2), "--seed", "3", "simulate", "--config", str(cfg))
    assert out_gz.read_bytes() == out_gz2.read_bytes()


def test_simulate_rejects_unknown_start_mode(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({**SIMULATE_CONFIG, "sigma": "haaar"}))
    out_gz = tmp_path / "tr.jsonl.gz"
    proc = run_cli("--out", str(out_gz), "simulate", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert "config.sigma" in proc.stderr
    assert not out_gz.exists()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"group": "t2", "cutofff": 2}))
    proc = run_cli("symbol-group", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert "cutofff" in proc.stderr


@pytest.mark.parametrize(
    "command, config, pointer",
    [
        ("symbol", {"triple": {"atoms": [{"point": [0.5], "mass": 1.0, "bogus": 1}]}, "xi": [[1.0]]}, "config.triple.atoms[0].bogus"),
        ("multiplier", {"triple": {"bogus": 1}, "xi": [[1.0]]}, "config.triple.bogus"),
        (
            "symbol-group",
            {"group": "t1", "cutoff": 2, "kind": "subordination", "psi": [0.5], "bernstein": {"c": 1.0, "bogus": 1}},
            "config.bernstein.bogus",
        ),
    ],
)
def test_unknown_nested_key_points_into_the_config(tmp_path, capsys, command, config, pointer):
    from levymult import cli

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert f"config error at '{pointer}': unknown key" in capsys.readouterr().err


R1 = {"diffusion": [[1.0]]}
R2 = {"diffusion": [[1.0, 0.0], [0.0, 1.0]]}
APPLY_T1 = {"group": "t1", "cutoff": 1, "blocks": [{"label": 0, "matrix": [[1.0]]}, {"label": 1, "matrix": [[0.5]]}]}
DENSITY = {"profile": {"type": "power", "alpha": 1.2}, "inner": 1e-3, "outer": 10.0, "nodes": 16}
SU2_SIMULATE = {**SIMULATE_CONFIG, "group": "su2", "atoms": [], "f": {"group": "su2", "cutoff": 0.5, "blocks": []}, "amatrix": None, "psi": None}
APPLY_T2_COEFFS = {"group": "t2", "cutoff": 1, "blocks": [{"label": [1, 0], "matrix": [[1.0]]}, {"label": [0, 1], "matrix": [[2.0]]}]}
BERNSTEIN_DENSITY = {"profile": {"type": "stable_half"}, "inner": 1e-3, "outer": 100.0, "nodes": 8}
BERNSTEIN_DENSITY_CONFIG = {
    "group": "su2", "cutoff": 1.5, "kind": "subordination", "psi": 0.5, "atoms": SU2_ATOM,
    "bernstein": {"c": 0.1, "density": BERNSTEIN_DENSITY},
}
# the profiles that no other config runs: the radial exp(-r)/r and the Bernstein power
EXP_DENSITY = {"profile": {"type": "exp", "scale": 0.8}, "inner": 1e-3, "outer": 10.0, "nodes": 16}
BERNSTEIN_POWER = {"profile": {"type": "power", "alpha": 0.7}, "inner": 1e-3, "outer": 100.0, "nodes": 8}
# its pivot of 2a is -3e-12, below -PSD_TOL times 2, the largest diagonal of 2a; its eigenvalue -1.5e-12 is above -2e-12
PSD_EDGE = {"diffusion": [[1.0, 0.0], [0.0, -1.5e-12]], "atoms": [{"point": [0.8, -0.4], "mass": 0.6}]}


@pytest.mark.parametrize(
    "argv, config, pointer",
    [
        (["symbol"], {"triple": R2, "xi": [[1.0, 2.0, 3.0]]}, "config.xi"),
        (["multiplier"], {"triple": R2, "amatrix": [[1.0, 0.0], [0.0, 0.0]], "xi": [[1.0, 2.0, 3.0]]}, "config.xi"),
        (["multiplier"], {"triple": R2, "amatrix": [[1.0, 0.0], [0.0, 0.0]], "mode": "time", "xi": [[1.0, 2.0, 3.0]]}, "config.xi"),
        (["simulate"], {**SIMULATE_CONFIG, "paths": -3}, "config.paths"),
        (["dual", "--group", "t1", "--cutoff", "0.2"], None, "--cutoff"),
        (["dual", "--group", "su2", "--cutoff", "0.2"], None, "--cutoff"),
        # a psi list with one value per atom, against two atoms or one
        (["multiplier"], {"triple": {**R2, "atoms": [{"point": [0.5, 0.0], "mass": 1.0}] * 2}, "psi": [0.5], "xi": [[1.0, 2.0]]}, "config.psi"),
        (["simulate"], {**SIMULATE_CONFIG, "psi": [0.5, 0.5]}, "config.psi"),
        (["symbol-group"], {"group": "su2", "cutoff": 1, "kind": "central", "psi": [0.5, 0.5], "atoms": [{"axis_angle": [0.0, 0.0, 3.0]}]}, "config.psi"),
        # transform-pair matrices that are not n x n for the group or R^n
        (["symbol-group"], {"group": "t2", "cutoff": 2, "kind": "riesz2", "cmatrix": np.eye(3).tolist()}, "config.cmatrix"),
        (["symbol-group"], {"group": "t2", "cutoff": 2, "kind": "central", "cmatrix": np.eye(3).tolist()}, "config.cmatrix"),
        (["symbol-group"], {"group": "t2", "cutoff": 2, "kind": "central", "cmatrix": [[1.0]]}, "config.cmatrix"),
        (["apply"], {"coeffs": APPLY_T1, "symbol": {"kind": "riesz2", "cmatrix": np.eye(2).tolist()}}, "config.symbol.cmatrix"),
        (["simulate"], {**SIMULATE_CONFIG, "group": "t2", "atoms": [], "f": {"group": "t2", "cutoff": 1, "blocks": []}}, "config.amatrix"),
        (["multiplier"], {"triple": R2, "amatrix": [[1.0]], "xi": [[1.0, 0.5]]}, "config.amatrix"),
        (["apply"], {"coeffs": APPLY_T1, "symbol": {"kind": "laplace", "trivial": None}}, "config.symbol.trivial"),
        # values the library refuses, each reported at the config section it was built from
        (["symbol"], {"triple": {"diffusion": [[1.0, 0.5], [0.0, 1.0]]}, "xi": [[1.0, 0.0]]}, "config.triple"),
        (["symbol"], {"triple": {"diffusion": [[1.0, 0.0], [0.0, -1.0]]}, "xi": [[1.0, 0.0]]}, "config.triple"),
        (["symbol"], {"triple": {**R1, "drift": [0.0, 1.0]}, "xi": [[1.0]]}, "config.triple"),
        (["symbol"], {"triple": {**R1, "atoms": [{"point": [0.0], "mass": 1.0}]}, "xi": [[1.0]]}, "config.triple"),
        (["symbol"], {"triple": {**R1, "atoms": [{"mass": 1.0}]}, "xi": [[1.0]]}, "config.triple"),
        (["symbol"], {"triple": {**R1, "density": {**DENSITY, "inner": 10.0, "outer": 1.0}}, "xi": [[1.0]]}, "config.triple"),
        (["symbol"], {"triple": {**R1, "density": {**DENSITY, "nodes": 4}}, "xi": [[1.0]]}, "config.triple"),
        (["symbol"], {"triple": {"diffusion": np.eye(3).tolist(), "density": DENSITY}, "xi": [[1.0, 0.0, 0.0]]}, "config.triple"),
        (["simulate"], {**SIMULATE_CONFIG, "dt": 0}, "config"),
        (["simulate"], {**SIMULATE_CONFIG, "dt": 0.3}, "config"),
        (["simulate"], {**SIMULATE_CONFIG, "c": -0.1}, "config"),
        (["simulate"], {**SIMULATE_CONFIG, "c": "x"}, "config.c"),
        (["simulate"], {**SU2_SIMULATE, "drift": [0.1, 0.0, 0.0]}, "config"),
        (["simulate"], {**SIMULATE_CONFIG, "atoms": [{"angle": [0.0], "mass": 1.0}]}, "config.atoms"),
        (["simulate"], {**SIMULATE_CONFIG, "f": {"group": "t2", "cutoff": 1, "blocks": []}}, "config.f"),
        (["symbol-group"], {"group": "t3", "cutoff": 2}, "config"),
        (["symbol-group"], {"group": "t1", "cutoff": 0.7}, "config"),
        (["symbol-group"], {"group": "t1", "cutoff": "x"}, "config.cutoff"),
        (["symbol-group"], {"group": "t1", "cutoff": 2, "kind": "laplace", "gamma": "x"}, "config.gamma"),
        (["symbol-group"], {"group": "t1", "cutoff": 2, "kind": "central", "c": -0.5}, "config.c"),
        (["symbol-group"], {"group": "t1", "kind": "subordination", "psi": 0.5, "bernstein": {"c": -1.0}}, "config.bernstein"),
        (
            ["symbol-group"],
            {"group": "t1", "kind": "subordination", "psi": 0.5, "bernstein": {"atoms": [{"y": 0.0, "mass": 1.0}]}},
            "config.bernstein",
        ),
        (["multiplier"], {"triple": R1, "amatrix": [[1.0]], "grid": {"n": 0}}, "config.grid.n"),
        (["multiplier"], {"triple": R1, "amatrix": [[1.0]], "xi": [[1.0], [0.0]]}, "config.xi"),
        (["apply"], {"coeffs": {**APPLY_T1, "blocks": [{"label": 3, "matrix": [[0.5]]}]}, "symbol": {"kind": "riesz2"}}, "config.coeffs"),
        (["norm-search"], {"triple": {"diffusion": [[1.0, 0.0], [0.0, 0.0]]}, "grid": 8, "trials": 1, "refine": 0}, "config.triple"),
        # torus labels of the wrong length, each a traceback or silently cut before
        (["apply"], {"coeffs": {**APPLY_T2_COEFFS, "blocks": [{"label": [1], "matrix": [[1.0]]}]}, "symbol": {"kind": "riesz2"}}, "config.coeffs"),
        (["apply"], {"coeffs": {**APPLY_T2_COEFFS, "blocks": [{"label": [1, 0, 0], "matrix": [[1.0]]}]}, "symbol": {"kind": "riesz2"}}, "config.coeffs"),
        (["constants", "--p", "0.5"], None, "--p --b --B"),
        (["constants", "--p", "3", "--b", "1", "--B", "-1"], None, "--p --b --B"),
        # blocks that are not d_pi x d_pi
        (["simulate"], {**SU2_SIMULATE, "f": {"group": "su2", "cutoff": 0.5, "blocks": [{"label": 0.5, "matrix": np.eye(2, 3).tolist()}]}}, "config.f"),
        (["apply"], {"coeffs": {**APPLY_T1, "blocks": [{"label": 1, "matrix": [[0.5, 0.5]]}]}, "symbol": {"kind": "riesz2"}}, "config.coeffs"),
        # integers that are not integers
        (["apply"], {"coeffs": {**APPLY_T1, "blocks": [{"label": 1.5, "matrix": [[0.5]]}]}, "symbol": {"kind": "riesz2"}}, "config.coeffs"),
        (["simulate"], {**SIMULATE_CONFIG, "paths": 2.5}, "config.paths"),
        (["multiplier"], {"triple": R1, "amatrix": [[1.0]], "grid": {"n": 2.5}}, "config.grid.n"),
        (["symbol"], {"triple": {**R1, "density": {**DENSITY, "nodes": 16.5}}, "xi": [[1.0]]}, "config.triple.density.nodes"),
        (["symbol-group"], {**BERNSTEIN_DENSITY_CONFIG, "bernstein": {"density": {**BERNSTEIN_DENSITY, "nodes": 0}}}, "config.bernstein.density.nodes"),
        (["symbol-group"], {**BERNSTEIN_DENSITY_CONFIG, "bernstein": {"density": {**BERNSTEIN_DENSITY, "nodes": 4.5}}}, "config.bernstein.density.nodes"),
        # a diffusion that one PSD test refuses for every command: symbol once printed its exponent, and multiplier
        # reported it at config.xi
        (["symbol"], {"triple": PSD_EDGE, "xi": [[1.0, 0.5]]}, "config.triple"),
        (["multiplier"], {"triple": PSD_EDGE, "amatrix": np.eye(2).tolist(), "xi": [[1.0, 0.5]]}, "config.triple"),
        (["norm-search"], {"triple": PSD_EDGE, "amatrix": np.eye(2).tolist(), "grid": 8, "trials": 1, "refine": 0}, "config.triple"),
    ],
)
def test_bad_input_exits_2_with_a_pointer(tmp_path, capsys, argv, config, pointer):
    from levymult import cli

    if config is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), *argv]) == 2
    captured = capsys.readouterr()
    assert f"config error at '{pointer}'" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["symbol"], '{"triple": {"diffusion": [[1.0]]}, "xi": [[NaN]]}'),
        (["symbol"], '{"triple": {"diffusion": [[1.0]]}, "xi": [[-Infinity]]}'),
        (["simulate"], json.dumps(SIMULATE_CONFIG).replace('"horizon": 0.5', '"horizon": Infinity')),
        (["simulate"], json.dumps(SIMULATE_CONFIG).replace('"c": 0.4', '"c": 1e999')),
        # an integer literal of 400 digits overflows a double as 1e999 does
        (["multiplier"], '{"triple": {"diffusion": [[1.0]]}, "amatrix": [[%s]], "xi": [[1.0]]}' % ("9" * 400)),
    ],
)
def test_numbers_beyond_standard_json_exit_2_at_the_file(tmp_path, capsys, argv, text):
    from levymult import cli

    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), *argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"config error at '{cfg}': invalid JSON" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--p", "nan"],
        ["constants", "--p", "3", "--b=-inf", "--B", "1"],
        ["constants", "--p", "1e999"],
        ["dual", "--group", "t1", "--cutoff", "nan"],
        ["dual", "--group", "su2", "--cutoff", "inf"],
    ],
)
def test_non_finite_flags_exit_2(capsys, argv):
    from levymult import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --" in captured.err
    assert captured.out == ""


def test_repeated_main_calls_in_one_process_print_what_fresh_processes_print(capsys, tmp_path):
    # the parser is built once per process: no call may leave a default, a format or a seed to the next
    from levymult import cli

    cfg = tmp_path / "laplace.json"
    cfg.write_text(json.dumps({"group": "t2", "cutoff": 2, "kind": "laplace", "gamma": 3}))
    calls = [
        ["constants", "--p", "3"],
        ["--format", "csv", "--seed", "5", "dual", "--group", "su2", "--cutoff", "1.5"],
        ["dual", "--group", "t1", "--cutoff", "nan"],
        ["dual", "--group", "t2", "--cutoff", "1"],
        ["symbol-group", "--config", str(cfg)],
        ["--seed", "7", "dual"],
        ["constants", "--p", "3", "--b", "-1", "--B", "1"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [run(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 0, 2, 0]
    assert [run(argv) for argv in calls[::-1]] == first[::-1]
    for (code, out, err), argv in zip(first, calls):
        fresh = run_cli(*argv, check=False)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_su2_dual_stops_at_the_largest_spin_within_the_cutoff(capsys):
    from levymult import cli

    assert cli.main(["dual", "--group", "su2", "--cutoff", "0.8"]) == 0
    assert [r["label"] for r in json.loads(capsys.readouterr().out)["irreps"]] == [0.0, 0.5]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "command, config",
    [
        # A = 1e300 at xi = 1e10: the exponent is -infinity (the JSON or CSV output)
        ("symbol", {"triple": {"diffusion": [[1e300]]}, "xi": [[1e10]]}),
        # a pair matrix of 1e300 overflows the transform's quadratic variation (the transcripts) and the
        # Burkholder ratio and its error (the summary)
        ("simulate", {**SIMULATE_CONFIG, "amatrix": [[1e300]], "paths": 3, "horizon": 0.25, "dt": 0.125}),
    ],
)
def test_non_finite_results_exit_3(tmp_path, fmt, command, config):
    # in a subprocess: the overflow warnings are errors in a -W error::RuntimeWarning run
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    extra = ["--out", str(tmp_path / "tr.jsonl.gz")] if command == "simulate" else []
    proc = run_cli("--format", fmt, *extra, command, "--config", str(cfg), check=False)
    assert proc.returncode == 3
    assert "numerical failure: non-finite result" in proc.stderr
    assert proc.stdout == ""


def test_failed_simulate_leaves_the_out_file_as_it_was(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**SIMULATE_CONFIG, "amatrix": [[1e300]], "paths": 3, "horizon": 0.25, "dt": 0.125}))
    out = tmp_path / "part.gz"
    out.write_bytes(b"kept")
    proc = run_cli("--out", str(out), "simulate", "--config", str(cfg), check=False)
    assert proc.returncode == 3
    assert out.read_bytes() == b"kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "part.gz"]


UNRESOLVED = {"profile": {"type": "power", "alpha": 0.5}, "inner": 1e-3, "outer": 100.0, "nodes": 8}
UNRESOLVED_TRIPLE = {"diffusion": [[0.0]], "density": UNRESOLVED}
TRIPLE_NODES, BERNSTEIN_NODES = "config.triple.density.nodes", "config.bernstein.density.nodes"
# 48 nodes a decade leave a gap of 2.3 x the sum's tolerance at xi = (0, 9), whatever the drift and diffusion
EDGE_DENSITY = {"profile": {"type": "exp", "scale": 1.0}, "inner": 0.05, "outer": 2.0, "nodes": 48}
UNRESOLVED_CONFIGS = [  # (command, config, the nodes key of its density), each summed beyond what its nodes resolve
    ("symbol", {"triple": UNRESOLVED_TRIPLE, "xi": [[40.0]]}, TRIPLE_NODES),
    ("multiplier", {"triple": UNRESOLVED_TRIPLE, "amatrix": [[1.0]], "xi": [[40.0]]}, TRIPLE_NODES),
    ("multiplier", {"triple": UNRESOLVED_TRIPLE, "amatrix": [[1.0]], "mode": "time", "xi": [[40.0]]}, TRIPLE_NODES),
    ("multiplier", {"triple": UNRESOLVED_TRIPLE, "aprofile": {"type": "imaginary_power"}, "mode": "time", "xi": [[40.0]]}, TRIPLE_NODES),
    (
        "norm-search",
        {"triple": {**UNRESOLVED_TRIPLE, "diffusion": [[0.0, 0.0], [0.0, 0.0]]}, "amatrix": [[1.0, 0.0], [0.0, 0.0]], "psi": 0.5,
         "grid": 16, "trials": 1, "refine": 0},
        TRIPLE_NODES,
    ),
    (
        "symbol-group",
        {"group": "su2", "cutoff": 2, "kind": "subordination", "psi": 0.5, "atoms": SU2_ATOM,
         "bernstein": {"density": {"profile": {"type": "power"}, "nodes": 1}}},
        BERNSTEIN_NODES,
    ),
    ("symbol", {"triple": {"diffusion": [[0.5, 0.0], [0.0, 0.5]], "density": EDGE_DENSITY}, "xi": [[0.0, 9.0]]}, TRIPLE_NODES),
    ("symbol", {"triple": {"drift": [0.0, 3.0], "diffusion": [[0.0, 0.0], [0.0, 0.0]], "density": EDGE_DENSITY}, "xi": [[0.0, 9.0]]}, TRIPLE_NODES),
    (
        "multiplier",
        {"triple": {"diffusion": [[0.5, 0.0], [0.0, 0.5]], "density": EDGE_DENSITY}, "amatrix": [[1.0, 0.0], [0.0, 1.0]], "xi": [[0.0, 9.0]]},
        TRIPLE_NODES,
    ),
]


def test_density_quadrature_that_does_not_stabilise_exits_3(tmp_path):
    # the message names the key to raise: the nodes of the density that failed
    for command, config, nodes in UNRESOLVED_CONFIGS:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli(command, "--config", str(cfg), check=False)
        assert proc.returncode == 3, (command, proc.stderr)
        assert proc.stderr.startswith("numerical failure: density quadrature did not stabilise")
        assert proc.stderr.rstrip().endswith(f", at {nodes}")
        assert proc.stdout == ""


def _readme_config_sketches():
    """(file name, config) of each sketch under "Config sketches" in the README, its `//` name line dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config sketches", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    sketches = {}
    for line in block.strip().splitlines():
        if line.startswith("//"):
            name = line[2:].strip()
            sketches[name] = []
        else:
            sketches[name].append(line)
    return [(name, json.loads("\n".join(lines))) for name, lines in sketches.items()]


README_SKETCHES = _readme_config_sketches()
README_COMMANDS = {"multiplier.json": "multiplier", "simulate.json": "simulate"}


@pytest.mark.parametrize("name, config", README_SKETCHES, ids=[name for name, _ in README_SKETCHES])
def test_readme_config_sketches_run(tmp_path, name, config):
    from levymult import cli

    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    assert cli.main(["--out", str(tmp_path / "out"), README_COMMANDS[name], "--config", str(cfg)]) == 0


ONE_ATOM = {"diffusion": [[1.0]], "atoms": [{"point": [0.5], "mass": 1.0}]}


@pytest.mark.parametrize(
    "command, config",
    [
        ("symbol", {"triple": ONE_ATOM, "xi": []}),
        ("multiplier", {"triple": ONE_ATOM, "amatrix": [[1.0]], "xi": []}),
        ("multiplier", {"triple": ONE_ATOM, "amatrix": [[1.0]], "mode": "time", "xi": []}),
    ],
)
def test_empty_frequency_list_gives_no_rows(tmp_path, capsys, command, config):
    from levymult import cli

    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_missing_config_exits_2(tmp_path):
    proc = run_cli("symbol", "--config", str(tmp_path / "nope.json"), check=False)
    assert proc.returncode == 2


def test_verify_subcommand_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli(
            "--out", str(out), "--seed", "7", "verify", "subordination", "--paths", "800"
        )
        assert "[PASS]" in proc.stdout
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_reports_failure_with_nonzero_exit(monkeypatch, capsys):
    from levymult import cli, verify

    def failing_check():
        return verify.CheckResult("constants", False, {"duality_err": 1.0})

    monkeypatch.setitem(verify.ALL_CHECKS, "constants", failing_check)
    assert cli.main(["verify", "constants"]) == 1
    assert "[FAIL] constants: duality_err=1.0" in capsys.readouterr().out.splitlines()


def test_verify_reports_the_seed_each_check_used(tmp_path):
    out = tmp_path / "verify.json"
    run_cli("--out", str(out), "verify", "constants", "casimir")
    payload = json.loads(out.read_text())
    assert payload["meta"]["seed"] is None
    seeds = {r["name"]: r["seed"] for r in payload["results"]}
    assert seeds == {"constants": 20249, "casimir": None}
    # an explicit --seed 0 is an override like any other
    run_cli("--out", str(out), "--seed", "0", "verify", "constants")
    payload = json.loads(out.read_text())
    assert payload["meta"]["seed"] == 0
    assert payload["results"][0]["seed"] == 0


# ---------------------------------------------------------------------------
# the exit contract, as a property of every input one mutation away from a valid one

MUTATION_BASES = [
    *((README_COMMANDS[name], config) for name, config in README_SKETCHES),
    ("simulate", SIMULATE_CONFIG),
    (
        "simulate",
        {**SU2_SIMULATE, "atoms": SU2_ATOM, "f": {"group": "su2", "cutoff": 0.5, "blocks": [{"label": 0.5, "matrix": [[0.5, 0.0], [0.0, 0.5]]}]}},
    ),
    ("norm-search", NORM_SEARCH_CONFIG),
    *(("symbol-group", config) for config in CENTRAL_CONFIGS.values()),
    ("symbol-group", BERNSTEIN_DENSITY_CONFIG),
    ("symbol-group", {**BERNSTEIN_DENSITY_CONFIG, "bernstein": {"c": 0.1, "density": BERNSTEIN_POWER}}),
    ("symbol", {"triple": {**R1, "density": EXP_DENSITY}, "xi": [[1.0], [-2.5]]}),
    ("symbol-group", {"group": "t2", "cutoff": 2, "kind": "laplace", "gamma": 0.7}),
    ("multiplier", {"triple": ONE_ATOM, "aprofile": {"type": "imaginary_power", "gamma": 0.5}, "mode": "time", "xi": [[1.0], [-0.5]]}),
    ("apply", {"coeffs": APPLY_T1, "symbol": {"kind": "riesz2"}}),
    ("apply", {"coeffs": APPLY_T2_COEFFS, "symbol": {"kind": "riesz2", "cmatrix": [[1.0, 0.0], [0.0, -1.0]], "cutoff": 1}}),
]
FLAG_BASES = [
    ["constants", "--p", "3"],
    ["constants", "--p", "3", "--b", "-1", "--B", "1"],
    ["dual", "--group", "t2", "--cutoff", "1"],
    ["dual", "--group", "su2", "--cutoff", "2.5"],
]
OVERFLOW = {"<a literal that overflows a double>": "1e999", "<an integer literal that overflows a double>": "9" * 400}
REPLACEMENTS = ["x", float("nan"), float("inf"), float("-inf"), 0, -1, [], {}, *OVERFLOW]


def _nodes(obj, path=()):
    """(key path, value) of every value below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _replaced(obj, path, value):
    copy = json.loads(json.dumps(obj))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def _mutants(value):
    """One value of every mutation kind: a string, NaN, +-infinity, 0, -1, [], {}, a float and an integer literal
    that overflow a double, the value plus 1/2, and a list with one element fewer or more."""
    out = list(REPLACEMENTS)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(value + 0.5)
    if isinstance(value, list) and value:
        out += [value[:-1], value + value[-1:]]
    return out


def _config_mutants():
    for command, config in MUTATION_BASES:
        for path, value in _nodes(config):
            for mutant in _mutants(value):
                text = json.dumps(_replaced(config, path, mutant))
                for placeholder, literal in OVERFLOW.items():
                    text = text.replace(json.dumps(placeholder), literal)
                yield [command], text


def _flag_mutants():
    for argv in FLAG_BASES:
        for i in range(2, len(argv), 2):
            values = ["x", "nan", "inf", "-inf", "0", "-1", *OVERFLOW.values()]
            with contextlib.suppress(ValueError):
                values.append(repr(float(argv[i]) + 0.5))
            for value in values:  # --flag=value, so that argparse reads "-inf" as a value
                yield argv[: i - 1] + [f"{argv[i - 1]}={value}"] + argv[i + 1 :], None


CLI_MUTANTS = [*_config_mutants(), *_flag_mutants()]


def _refuse(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _assert_exit_contract(argv, text):
    """Exit 0, 2 or 3 and nothing else escapes; no output on 2 and 3; strict JSON on 0."""
    from levymult import cli

    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            cfg = Path(tmp) / "config.json"
            cfg.write_text(text)
            argv = argv + ["--config", str(cfg)]
        if argv[0] == "simulate":  # the transcripts go to --out, the summary to stdout
            argv = ["--out", str(Path(tmp) / "tr.jsonl.gz"), *argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    assert code in (0, 2, 3), (argv, text, code)
    if code:
        assert out.getvalue() == "", (argv, text)
    else:
        json.loads(out.getvalue(), parse_constant=_refuse)


def _pointer(path) -> str:
    return "config" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


NUMBER_LEAVES = [
    (command, config, path, value)
    for command, config in MUTATION_BASES
    for path, value in _nodes(config)
    if isinstance(value, (int, float)) and not isinstance(value, bool)
]


@pytest.mark.parametrize("form", ["boolean", "string"])
def test_a_number_given_as_a_boolean_or_a_string_exits_2_at_its_key(tmp_path, capsys, form):
    from levymult import cli

    cfg = tmp_path / "config.json"
    for command, config, path, value in NUMBER_LEAVES:
        cfg.write_text(json.dumps(_replaced(config, path, True if form == "boolean" else str(value))))
        argv = ["--out", str(tmp_path / "out"), command, "--config", str(cfg)]
        assert cli.main(argv) == 2, (command, path)
        captured = capsys.readouterr()
        assert f"config error at '{_pointer(path)}': expected a number" in captured.err, (command, path)
        assert captured.out == ""


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(st.sampled_from(CLI_MUTANTS))
def test_every_input_one_mutation_from_a_valid_one_keeps_the_exit_contract(case):
    _assert_exit_contract(*case)
