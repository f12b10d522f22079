import gzip
import json
import subprocess
import sys

import numpy as np
import pytest

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
