"""The library entry points the benchmark calls.

``perfbench/workloads.py`` looks these names up on their modules at call
time and calls them with the arguments listed here.  A refactor that
deletes or re-signs one of them fails here, in tier-1, and not only in
the benchmark's smoke run.
"""

import importlib
import inspect
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# (module, name, positional arguments passed, keyword arguments passed), as in the workloads
CALLS = [
    ("rng", "stream", 3, ()),
    ("groups", "su2_exp", 1, ()),
    ("groups", "random_band_limited", 3, ("real",)),
    ("groups", "GroupLevyMeasure", 2, ()),
    ("groups", "get_irrep", 2, ()),
    ("groups", "haar_sample", 3, ()),
    ("groups", "quadrature_grid", 2, ()),
    ("groups", "dual_enumerate", 2, ()),
    ("groups", "pw_inverse", 1, ("grid",)),
    ("groups", "pw_inverse", 1, ("points",)),
    ("groups", "pw_forward", 3, ("grid",)),
    ("levy", "RadialDensity", 0, ("profile", "inner", "outer", "nodes")),
    ("levy", "LevyMeasureRn", 0, ("dim", "atoms", "density")),
    ("euclid", "multiplier_autonomous_grid", 5, ()),
    ("simulate", "GroupProcessSpec", 5, ("seed", "drift")),
    ("simulate", "simulate_path", 2, ()),
    ("martingale", "projection_mc_estimate", 6, ()),
    ("martingale", "simulate_transform_ensemble", 5, ()),
    ("martingale", "empirical_burkholder", 2, ()),
    ("martingale", "central_char_report", 3, ()),
    ("martingale", "transform_context", 2, ()),
    ("martingale", "martingale_transcript", 5, ("ctx",)),
    ("martingale", "check_differential_subordination", 1, ("bounds",)),
    ("symbols", "central_alpha", 3, ()),
    ("symbols", "generator_matrix", 3, ()),
    ("symbols", "symbol_table", 2, ("trivial",)),
    ("symbols", "central_multiplier", 5, ()),
    ("operators", "GridFunction", 1, ()),
    ("operators", "frequency_lattice", 1, ()),
    ("operators", "apply_symbol_coeffs", 2, ()),
    ("linalg", "expm", 1, ()),
    ("cli", "main", 1, ()),
]


@pytest.mark.parametrize("module, name, n_args, keywords", CALLS, ids=[f"{m}.{n}:{','.join(k)}" for m, n, _, k in CALLS])
def test_benchmark_entry_point_takes_the_workload_arguments(module, name, n_args, keywords):
    assert f".{name}(" in WORKLOADS.read_text()
    fn = getattr(importlib.import_module(f"levymult.{module}"), name)
    inspect.signature(fn).bind(*[None] * n_args, **{k: None for k in keywords})
