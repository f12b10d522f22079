"""Smoke check of the benchmark at a tiny size.

    python3 perfbench/smoke.py

For every workload: a short untraced run prints every end-to-end metric
with its unit; a second run with the same seed reports identical
failed_frac, repr_gap_max and inputs; a run with another seed gets
different inputs; a traced run prints every per-layer metric of
BENCHMARK.json with its unit.  Exits nonzero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CYCLES = {"mc_final": 10, "mc_pathwise": 12, "spectral": 8}
# every end-to-end metric a run prints, by workload, with its unit
REPORTED = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
MC_ONLY = {"paths_per_s": "paths/s"}
PATHWISE_ONLY = {"repr_gap_max": "abs"}


def run(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--min-ops", str(CYCLES[workload]),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    info = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "run":
            info.update(p.split("=", 1) for p in parts[1:])
    return printed, info, json.loads(lines[-1])


def expect(cond, message):
    if not cond:
        raise SystemExit("smoke check failed: " + message)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in CYCLES:
        wanted = dict(REPORTED)
        if workload != "spectral":
            wanted.update(MC_ONLY)
        if workload == "mc_pathwise":
            wanted.update(PATHWISE_ONLY)
        printed, info, result = run(workload, 1, 0)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: ops failed at seed 1")
        for name, unit in wanted.items():
            expect(printed.get(name, (None, None))[1] == unit, f"{workload}: {name} [{unit}] not printed")
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == end_to_end, f"{workload}: end-to-end metrics differ from BENCHMARK.json")

        again, info_again, _ = run(workload, 1, 0)
        for name in ("failed_frac", "repr_gap_max"):
            if name in wanted:
                expect(again[name][0] == printed[name][0], f"{workload}: {name} differs at the same seed")
        expect(info_again["inputs_sha256"] == info["inputs_sha256"], f"{workload}: inputs differ at the same seed")
        _, info_other, _ = run(workload, 2, 0)
        expect(info_other["inputs_sha256"] != info["inputs_sha256"], f"{workload}: seed does not change inputs")

        traced, _, traced_result = run(workload, 1, 1)
        got = {n: m["unit"] for n, m in traced_result["metrics"].items()}
        expect(got == per_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        expect("bench.trace_overhead" in traced, f"{workload}: tracing overhead not printed")
        print(f"{workload}: ok ({result['attempted']} ops untraced, {traced_result['attempted']} traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
