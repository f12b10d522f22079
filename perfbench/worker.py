"""One benchmark process: set up a workload, run it for a while, report.

Started by ``run.py`` as a fresh process per run (so peak RSS belongs to
one workload) with BLAS/OpenMP threads pinned to 1.  ``--t0`` is the
launcher's monotonic clock just before the process was started; set-up
time runs from there to the first timed op.  Prints one JSON line.

A run is a closed loop: one caller issues ops back to back, each op
timed on its own.  Input generation and oracle checks run between ops
and are not timed; op and set-up times are scaled to a nominal host
speed by ``HostSpeed``, whose kernel time is not counted.  The loop
ends on a whole rotation of the workload's op kinds once ``--seconds``
have passed and at least ``--min-ops`` ops are done.  With ``--trace 1``
the first half of the time runs untraced and the second half traced, so
the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 120.0  # keeps every run well inside the 180 s a run may take
# Nominal time of ``reference_s``: op and set-up times are reported at the
# host speed where the reference kernel takes this long.
REFERENCE_S = 2.0e-3
SAMPLE_PERIOD_S = 0.05  # how often the kernel runs inside an op or set-up
# Kernel mix per workload, as (vector passes, loop steps): each about 2 ms.
# mc_pathwise is interpreter-bound (per-step loops over small arrays) and
# its times followed the loop-only kernel best; the others the even mix.
REFERENCE_MIX = {"mc_pathwise": (0, 600)}
DEFAULT_MIX = (3, 250)
_REF_VECTOR = np.random.default_rng(0).standard_normal(20_000)
_REF_MATRIX = np.random.default_rng(1).standard_normal((3, 3))


def nearest_rank(sorted_values, q):
    k = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil(q n)
    return sorted_values[k - 1]


def reference_s(mix) -> float:
    """Time of a fixed kernel that does not use levymult (about 2 ms).

    ``mix`` is (passes of numpy over 20 000 floats, steps of an
    interpreter-bound loop of 3x3 numpy calls); see ``REFERENCE_MIX``.
    """
    vector_passes, loop_steps = mix
    t = time.perf_counter()
    v = _REF_VECTOR
    for _ in range(vector_passes):
        v = np.exp(-np.abs(v) * 0.3) * np.cos(v)
        v.sum()
    x = _REF_MATRIX
    acc = 0.0
    for k in range(loop_steps):
        x = np.tanh(x @ _REF_MATRIX * 0.3)
        acc += float(x[0, 0]) * 0.5 + k
    return time.perf_counter() - t


class HostSpeed:
    """How fast the host runs this process, sampled around and inside ops.

    Other processes on a shared host slow this one by up to 2x, in bursts
    of seconds and in phases of minutes, without taking its CPU away (its
    CPU time equals its wall time), so no clock leaves the slowdown out.
    The reference kernel slows down with the workloads, so a time divided
    by the mean kernel time over the same interval follows the program's
    own cost.  The kernel runs once after every op (that sample also opens
    the next op) and, from a SIGALRM handler, every ``SAMPLE_PERIOD_S``
    inside an op; kernel time inside an op is taken out of the op's time.
    Python runs the handler between bytecodes of the main thread, so it
    never interrupts a native call.
    """

    def __init__(self, mix):
        self.mix = mix
        self.last = reference_s(mix)
        self.samples = [self.last]  # every kernel time, for the host line
        self._inside = []  # (start, seconds) of kernel runs since start()
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self._inside.append((t, reference_s(self.mix)))
        if self._armed:  # one-shot, re-armed only after the kernel ran
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def start(self, sample_inside=True):
        self._inside = []
        self._armed = sample_inside
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def stop(self, seconds, since=-np.inf, until=np.inf):
        """(net time scaled to the nominal host speed, net time), where the
        net time is ``seconds``, measured over [since, until], less the
        kernel runs inside that interval."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = self._inside
        after = reference_s(self.mix)
        refs = [self.last] + [d for _, d in inside] + [after]
        self.last = after
        self.samples.extend(refs[1:])
        net = seconds - sum(d for t, d in inside if since <= t < until)
        return net * REFERENCE_S / statistics.fmean(refs), net


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    host = HostSpeed(REFERENCE_MIX.get(args.workload, DEFAULT_MIX))
    host.start(sample_inside=not args.trace)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer, layer_metrics

    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = workloads.make_workload(args.workload, args.seed, str(workdir), args.min_ops)
    for j in wl.warmup_ops:
        wl.run(wl.make_input(j, warmup=True))
    setup_s, setup_raw_s = host.stop(time.monotonic() - args.t0)
    setup = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.setup_only:
        wl.finish()
        print(json.dumps(setup))
        return 0

    records = []  # (scaled s, raw s, ok, paths, repr_gap, searches, traced)
    fingerprints = hashlib.sha256()
    loop_start = time.perf_counter()

    def run_phase(until_s, traced, min_ops):
        first = len(records)
        while True:
            n = len(records)
            elapsed = time.perf_counter() - loop_start
            done = (
                n - first >= wl.cycle
                and n % wl.cycle == 0
                and elapsed >= until_s
                and n >= min_ops
            )
            if done or elapsed > HARD_LIMIT_S:
                return
            inp = wl.make_input(n)
            if n < args.min_ops:
                fingerprints.update(np.asarray(inp.fingerprint, dtype=float).tobytes())
            if traced:
                tracer.op = n
            # no kernel inside traced ops: it would add to their spans
            host.start(sample_inside=not traced)
            t = time.perf_counter()
            try:
                out = wl.run(inp)
                err = None
            except Exception as exc:  # counted as a failed op, the run goes on
                err = exc
            t_end = time.perf_counter()
            scaled, dur = host.stop(t_end - t, t, t_end)
            if tracer is not None:
                tracer.op = None
            info = {"ok": False, "paths": 0}
            if err is None:
                try:
                    info = wl.check(n, inp, out)
                except Exception as exc:
                    err = exc
            if err is not None:
                sys.stderr.write(f"op {n} ({inp.kind}) failed: {err!r}\n")
            records.append((
                scaled,
                dur,
                info["ok"],
                info["paths"] if info["ok"] else 0,
                info.get("repr_gap", 0.0),
                info.get("searches", 0),
                traced,
            ))

    if tracer is None:
        run_phase(args.seconds, traced=False, min_ops=args.min_ops)
    else:
        run_phase(args.seconds / 2.0, traced=False, min_ops=0)
        run_phase(args.seconds, traced=True, min_ops=args.min_ops)
    gate_failed, gates = wl.finish()

    failed = {i for i, r in enumerate(records) if not r[2]} | set(gate_failed)
    untraced = [r for r in records if not r[6]]
    throughput = len(untraced) / sum(r[0] for r in untraced)
    durations_ms = sorted(1e3 * r[0] for r in untraced)
    raw_ms = sorted(1e3 * r[1] for r in untraced)
    metrics = {
        "ops_per_s": (throughput, "1/s"),
        "op_p50_ms": (nearest_rank(durations_ms, 0.5), "ms"),
        "op_p90_ms": (nearest_rank(durations_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "paths_per_s": (throughput * sum(r[3] for r in untraced) / len(untraced), "paths/s"),
        "failed_frac": (len(failed) / len(records), "ratio"),
        "repr_gap_max": (max((r[4] for r in records[: args.min_ops]), default=0.0), "abs"),
        "raw_ops_per_s": (len(untraced) / sum(r[1] for r in untraced), "1/s"),
        "raw_op_p50_ms": (nearest_rank(raw_ms, 0.5), "ms"),
        "raw_op_p90_ms": (nearest_rank(raw_ms, 0.9), "ms"),
    }
    ref_ms = sorted(1e3 * r for r in host.samples)
    result = {
        **setup,
        "attempted": len(records),
        "failed": len(failed),
        "gates_ok": not gate_failed,
        "gates": gates,
        "inputs_sha256": fingerprints.hexdigest(),
        "reference_ms": [ref_ms[0], statistics.median(ref_ms), ref_ms[-1]],
        "numpy": np.__version__,
        "metrics": metrics,
    }
    if tracer is not None:
        traced = [r for r in records if r[6]]
        layers = layer_metrics(
            tracer,
            ops=len(traced),
            paths=sum(r[3] for r in traced),
            searches=sum(r[5] for r in traced),
        )
        layers["bench.paths_per_s"] = metrics["paths_per_s"]
        layers["bench.failed_frac"] = metrics["failed_frac"]
        layers["bench.repr_gap_max"] = metrics["repr_gap_max"]
        traced_throughput = len(traced) / sum(r[0] for r in traced)
        layers["bench.trace_overhead"] = (throughput / traced_throughput, "ratio")
        layers["bench.host_reference_ms"] = (statistics.median(ref_ms), "ms")
        result["layers"] = layers
        result["traced_ops"] = len(traced)
        result["absent"] = tracer.absent
        result["spans_dropped"] = tracer.dropped
        span_file = workdir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(span_file)
        result["spans_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
