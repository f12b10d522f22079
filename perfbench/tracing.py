"""Span tracing of levymult's layers from outside the library.

Every traced name is wrapped at each ``levymult`` module that binds it
(``from .groups import su2_irrep_batch`` copies the reference, so the
defining module alone is not enough).  Methods of the transcript
contexts are wrapped on the object ``transform_context`` returns rather
than on a class, so merging or renaming the context classes does not
break tracing.  A name that no longer exists is reported as absent.

Spans are recorded only while an op is active.  Each span keeps (id,
name, start, end, parent id, op id) in memory up to ``MAX_SPANS``; per-name
call counts and self times (duration minus the time covered by child
spans) are aggregated for every span regardless of the cap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

MAX_SPANS = 200_000


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# (module, attribute path, per-call work counters).  A work counter maps
# (args, kwargs, result) to {count name: increment}.
FUNCTIONS = [
    ("simulate", "simulate_path", None),
    ("simulate", "ensemble_final_states",
     lambda a, k, r: {"paths": int(_arg(a, k, 1, "paths"))}),
    ("rng", "stream", None),
    ("martingale", "transform_context", None),
    ("martingale", "projection_mc_estimate", None),
    ("martingale", "simulate_transform_ensemble", None),
    ("martingale", "central_char_report", None),
    ("martingale", "empirical_char", None),
    ("martingale", "check_differential_subordination", None),
    ("groups", "su2_irrep_batch",
     lambda a, k, r: {"elements": int(np.asarray(_arg(a, k, 1, "gs")).size // 4)}),
    ("groups", "su2_exp", None),
    ("groups", "su2_exp_batch", None),
    ("groups", "haar_sample", None),
    ("groups", "pw_forward", None),
    ("groups", "pw_inverse", lambda a, k, r: {"points": int(len(r))}),
    ("groups", "quadrature_grid", None),
    ("euclid", "multiplier_autonomous_grid", None),  # counters added by the tracer
    ("levy", "factor_diffusion", None),
    ("levy", "RadialDensity.points_weights", None),
    ("operators", "apply_symbol_grid", None),
    ("operators", "lp_norm", None),
    ("operators", "norm_lower_bound_search", None),
    ("symbols", "central_multiplier", None),
    ("symbols", "symbol_table", None),
    ("cli", "main", None),
]

# methods of the object returned by martingale.transform_context
CONTEXT_METHODS = [
    ("transcript", lambda a, k, r: {"nodes": int(len(_arg(a, k, 0, "path").times))}),
    ("final_value", None),
]


class Tracer:
    """Installs wrappers and aggregates spans per traced name."""

    def __init__(self):
        self.op = None
        self.stats = {}  # name -> [calls, self seconds]
        self.counts = {}  # name -> count
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.dropped = 0
        self.absent = []
        self.cli_depth = 0
        self.rep_calls = 0
        self.rep_hits = 0
        self._next_id = 0
        self._stack = []  # [span id, child seconds] per open span

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, work=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        is_cli = name == "cli.main"
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            self.cli_depth += is_cli
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.cli_depth -= is_cli
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, name, start, end, parent, self.op))
                else:
                    self.dropped += 1
            if work is not None:
                try:
                    counted = work(args, kwargs, result)
                except (LookupError, TypeError, AttributeError):
                    # the signature changed under a refactor: report, don't fail the op
                    counted = {}
                    if f"{name} counters" not in self.absent:
                        self.absent.append(f"{name} counters")
                for key, inc in counted.items():
                    self.count(f"{name}.{key}", inc)
            return result

        return traced

    def count(self, key, inc=1):
        self.counts[key] = self.counts.get(key, 0) + inc

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced name in every loaded levymult module."""
        homes = {}
        for mod_name in dict.fromkeys(mod for mod, _, _ in FUNCTIONS):
            try:
                homes[mod_name] = importlib.import_module(f"levymult.{mod_name}")
            except ImportError:
                pass
        # listed after the imports above: the package does not import cli itself
        modules = [m for n, m in sys.modules.items() if n == "levymult" or n.startswith("levymult.")]
        for mod_name, attr, work in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            home = homes.get(mod_name)
            if home is None:
                self.absent.append(name)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or not hasattr(cls, meth):
                    self.absent.append(name)
                    continue
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), work))
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            if name == "euclid.multiplier_autonomous_grid":
                work = self._grid_work
            wrapped = self.wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
            if name == "martingale.transform_context":
                self._wrap_contexts(modules, wrapped)
        self._wrap_rep_on_grid()

    def _grid_work(self, args, kwargs, result):
        out = {"freqs": int(len(result))}
        nu = _arg(args, kwargs, 3, "nu")
        if getattr(nu, "density", None) is not None:
            out["density_calls"] = 1
        if self.cli_depth:
            self.count("cli.symbol_evals")
        return out

    def _wrap_contexts(self, modules, ctx_factory):
        stats = self.stats
        for meth, _ in CONTEXT_METHODS:
            stats.setdefault(f"martingale.{meth}", [0, 0.0])
        tracer = self

        @functools.wraps(ctx_factory)
        def factory(*args, **kwargs):
            ctx = ctx_factory(*args, **kwargs)
            for meth, work in CONTEXT_METHODS:
                name = f"martingale.{meth}"
                bound = getattr(ctx, meth, None)
                try:
                    if bound is None:
                        raise AttributeError(meth)
                    setattr(ctx, meth, tracer.wrap(name, bound, work))
                except AttributeError:
                    # method gone, or a context that refuses instance attributes
                    if name not in tracer.absent:
                        tracer.absent.append(name)
            return ctx

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is ctx_factory:
                    setattr(mod, key, factory)

    def _wrap_rep_on_grid(self):
        name = "groups.rep_on_grid"
        groups = sys.modules.get("levymult.groups")
        cls = getattr(groups, "GroupQuadrature", None)
        method = getattr(cls, "rep_on_grid", None)
        if method is None:
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(method)
        def rep_on_grid(grid, pi, *args, **kwargs):
            if tracer.op is not None:
                cache = getattr(grid, "_rep_cache", None)
                tracer.rep_calls += 1
                if cache is not None and getattr(pi, "label", None) in cache:
                    tracer.rep_hits += 1
            return method(grid, pi, *args, **kwargs)

        cls.rep_on_grid = rep_on_grid

    # -- output ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int, paths: int, searches: int) -> dict:
    """Per-layer metrics of a traced phase, normalised per traced op.

    Names that were never installed are absent; their values read 0.
    """
    per_op = 1.0 / max(ops, 1)
    out = {}
    for mod_name, attr, work in FUNCTIONS:
        name = f"{mod_name}.{attr}"
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls * per_op, "1/op")
        out[f"{name}.self_s"] = (self_s * per_op, "s/op")
    for meth, _ in CONTEXT_METHODS:
        calls, self_s = tracer.stats.get(f"martingale.{meth}", (0, 0.0))
        out[f"martingale.{meth}.calls"] = (calls * per_op, "1/op")
        out[f"martingale.{meth}.self_s"] = (self_s * per_op, "s/op")
    for key in (
        "simulate.ensemble_final_states.paths",
        "martingale.transcript.nodes",
        "groups.su2_irrep_batch.elements",
        "groups.pw_inverse.points",
        "euclid.multiplier_autonomous_grid.freqs",
        "euclid.multiplier_autonomous_grid.density_calls",
    ):
        out[key] = (tracer.counts.get(key, 0) * per_op, "1/op")
    stream_calls = tracer.stats.get("rng.stream", (0, 0.0))[0]
    out["rng.stream.per_path"] = (stream_calls / paths if paths else 0.0, "1/path")
    out["groups.rep_on_grid.hit_ratio"] = (
        tracer.rep_hits / tracer.rep_calls if tracer.rep_calls else 0.0,
        "ratio",
    )
    out["operators.symbol_evals_per_search"] = (
        tracer.counts.get("cli.symbol_evals", 0) / searches if searches else 0.0,
        "1/search",
    )
    return out
