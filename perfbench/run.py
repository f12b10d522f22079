"""levymult benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_final --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each run starts fresh worker processes (``worker.py``) with
BLAS/OpenMP threads pinned to 1, one at a time, so at most two
processes exist at once.  Set-up is measured in ``SETUP_SAMPLES``
processes that stop after set-up, plus the measuring process; the
median is reported.

stdout: an environment block, one line per metric (name, value, unit),
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  The exit code is nonzero, with no JSON line, if the
library cannot be found or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_final", "mc_pathwise", "spectral")
SETUP_SAMPLES = 6
RUN_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, env, deadline, setup_only=False) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--min-ops", str(args.min_ops),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--min-ops", type=int, default=100,
        help="ops a run completes at least (100 gives the p90 ten samples beyond it)",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "levymult" / "__init__.py").is_file():
        sys.stderr.write(f"levymult sources not found under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args, env, deadline, setup_only=True) for _ in range(SETUP_SAMPLES)]
        res = run_worker(args, env, deadline)
    except (RuntimeError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setups.append(res)

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"env nproc={nproc} python={platform.python_version()} numpy={res['numpy']} "
        f"commit={git_commit()} threads=1 processes<=2"
    )
    print(
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} ops={res['attempted']} inputs_sha256={res['inputs_sha256']}"
    )
    print("host reference_ms_min_median_max=" + json.dumps(res["reference_ms"]))
    if res["gates"]:
        print("gates " + json.dumps(res["gates"], sort_keys=True))

    if args.trace:
        shown = res["layers"]
        print(f"traced ops={res['traced_ops']} spans_dropped={res['spans_dropped']} spans={res['spans_file']}")
        print("absent " + json.dumps(res["absent"]))
    else:
        shown = dict(res["metrics"])
        shown["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        print(f"setup samples_s={json.dumps([s['setup_s'] for s in setups])}")
        print(f"setup raw_samples_s={json.dumps([s['setup_raw_s'] for s in setups])}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value!r} {unit}")

    names = END_TO_END if not args.trace else list(res["layers"])
    result = {
        "correct": res["failed"] == 0 and res["gates_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": shown[n][0], "unit": shown[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
