"""Batch command-line front end.

Subcommands wire JSON configs to the library and emit machine-readable
results (JSON or CSV).  Every numeric artifact embeds the seed and a
hash of the resolved configuration, and identical invocations produce
identical output bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import io
import itertools
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import verify as verifymod
from .constants import constant_report
from .euclid import (
    ImaginaryPowerProfile,
    check_bounds,
    density_psi,
    multiplier_autonomous_grid,
    psi_values,
)
from .groups import (
    GroupLevyMeasure,
    PeterWeylCoeffs,
    dual_enumerate,
    get_irrep,
    group_dim,
    heat_coeffs,
    su2_exp,
)
from .levy import (
    BernsteinSpec,
    LevyMeasureRn,
    LevyTriple,
    PositiveDensity,
    QuadratureError,
    RadialDensity,
    symbol_grid,
)
from .linalg import pair_matrix
from .martingale import (
    TransformEnsemble,
    check_differential_subordination,
    empirical_burkholder,
    ensemble_chunks,
    transform_context,
)
from .operators import apply_symbol_coeffs, norm_lower_bound_search, symbol_on_lattice
from .simulate import GroupProcessSpec
from .symbols import UNDEFINED, central_symbols, laplace_symbols, stack_rows, subordination_symbols

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"config error at '{pointer}': {message}")
        self.pointer = pointer


@contextlib.contextmanager
def _at(pointer: str):
    """Library errors raised while the config section at ``pointer`` is read or built, as a ``ConfigError`` there.

    A finer ``ConfigError``, ``LinAlgError`` (a numerical failure) and ``QuadratureError`` pass unchanged."""
    try:
        yield
    except (ConfigError, np.linalg.LinAlgError):
        raise
    except (ValueError, TypeError, LookupError) as exc:
        raise ConfigError(pointer, f"{type(exc).__name__}: {exc}") from exc


@contextlib.contextmanager
def _refined(pointer: str):
    """A ``QuadratureError`` of the block, its message ending with the ``nodes`` key of the density at ``pointer``."""
    try:
        yield
    except QuadratureError as exc:
        raise QuadratureError(f"{exc}, at {pointer}.nodes") from exc


def _finite(text: str) -> float:
    """A number of a config (standard JSON, RFC 8259) or a flag: NaN, +-infinity and overflowing literals are refused."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _finite_int(text: str) -> int:
    """An integer literal of a config, refused where ``_finite`` refuses it: one that overflows a double."""
    _finite(text)
    return int(text)


def _require_keys(obj: dict, allowed, pointer: str):
    if not isinstance(obj, dict):
        raise ConfigError(pointer, "expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{pointer}.{key}", "unknown key")


def _int_at_least(obj: dict, key: str, default: int, low: int, pointer: str) -> int:
    """``obj[key]`` (``default`` when absent), an integer of at least ``low``, or a ``ConfigError`` at ``pointer.key``."""
    value = obj.get(key, default)
    if not isinstance(value, (int, float)) or value % 1 or value < low:
        raise ConfigError(f"{pointer}.{key}", f"expected an integer >= {low}, got {value!r}")
    return int(value)


def _dumps(obj, **layout) -> str:
    """``json.dumps`` with sorted keys and numpy scalars as their Python values (``item``); NaN and
    +-infinity, which standard JSON cannot hold, a numerical failure."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, default=np.generic.item, **layout)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite result: {exc}") from exc


def _canonical(obj) -> str:
    return _dumps(obj, separators=(",", ":"))


def _config_hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def _matrix(obj, pointer: str) -> np.ndarray:
    if isinstance(obj, dict):
        _require_keys(obj, {"re", "im"}, pointer)
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj.get("im", 0.0), dtype=float)
    return np.asarray(obj, dtype=float)


def _pair_matrix(obj, pointer: str, n: int) -> np.ndarray:
    """A transform-pair matrix of the config (``linalg.pair_matrix``): absent is zero, else n x n."""
    with _at(pointer):
        return pair_matrix(None if obj is None else _matrix(obj, pointer), n)


#: the density profiles of a config section: type -> (its parameters with their defaults, profile of the parameters)
RADIAL_PROFILES = {  # triple.density, a RadialDensity: profile(r, u) at radius r, direction u
    "power": ({"alpha": 1.0}, lambda alpha: lambda r, u: r ** (-1.0 - alpha)),
    "exp": ({"scale": 1.0}, lambda scale: lambda r, u: scale * np.exp(-r) / r),
}
BERNSTEIN_PROFILES = {  # bernstein.density, a PositiveDensity: profile(y)
    "stable_half": ({}, lambda: lambda y: y**-1.5 / (2.0 * np.sqrt(np.pi))),
    "power": ({"alpha": 0.5}, lambda alpha: lambda y: y ** (-1.0 - alpha)),
}


def _density(cls, obj, pointer: str, profiles: dict, inner: float, outer: float, nodes: int):
    """The truncated density ``cls`` of the config section at ``pointer``, its profile one of ``profiles``;
    ``inner``, ``outer`` and ``nodes`` (per decade) are the defaults of the keys of those names."""
    _require_keys(obj, {"profile", "inner", "outer", "nodes"}, pointer)
    prof = obj.get("profile", {})
    _require_keys(prof, {"type"}.union(*(params for params, _ in profiles.values())), f"{pointer}.profile")
    kind = prof.get("type")
    if kind not in list(profiles):  # compared, not hashed: a list or object type is an unknown profile too
        raise ConfigError(f"{pointer}.profile.type", f"unknown profile {kind!r}")
    params, profile = profiles[kind]
    return cls(
        profile=profile(**{key: float(prof.get(key, value)) for key, value in params.items()}),
        inner=float(obj.get("inner", inner)),
        outer=float(obj.get("outer", outer)),
        nodes=_int_at_least(obj, "nodes", nodes, 1, pointer),
    )


def _atom_list(atoms, pointer: str, keys: set, read) -> tuple:
    """The (point, mass) pairs ``read`` from the objects of the config list ``atoms`` at ``pointer``, keys among ``keys``."""
    out = []
    for i, atom in enumerate(atoms):
        _require_keys(atom, keys, f"{pointer}[{i}]")
        out.append(read(atom))
    return tuple(out)


def _levy_triple(obj, pointer: str) -> LevyTriple:
    with _at(pointer):
        _require_keys(obj, {"drift", "diffusion", "atoms", "density"}, pointer)
        a = _matrix(obj.get("diffusion", [[0.0]]), f"{pointer}.diffusion").real
        n = len(a)
        atoms = _atom_list(obj.get("atoms", []), f"{pointer}.atoms", {"point", "mass"}, lambda a: (a["point"], a["mass"]))
        density = None
        if obj.get("density") is not None:
            density = _density(RadialDensity, obj["density"], f"{pointer}.density", RADIAL_PROFILES, 1e-4, 1e3, 96)
        nu = LevyMeasureRn(dim=n, atoms=atoms, density=density)
        return LevyTriple(drift=obj.get("drift", [0.0] * n), diffusion=a, nu=nu)


def _bernstein(obj, pointer: str) -> BernsteinSpec:
    with _at(pointer):
        _require_keys(obj, {"c", "atoms", "density"}, pointer)
        atoms = _atom_list(obj.get("atoms", []), f"{pointer}.atoms", {"y", "mass"}, lambda a: (a["y"], a["mass"]))
        density = None
        if obj.get("density") is not None:
            density = _density(PositiveDensity, obj["density"], f"{pointer}.density", BERNSTEIN_PROFILES, 1e-6, 1e4, 32)
        return BernsteinSpec(c=float(obj.get("c", 0.0)), atoms=atoms, density=density)


def _group_measure(group: str, obj, pointer: str) -> GroupLevyMeasure:
    def read(atom):
        return atom["angle"] if group in ("t1", "t2") else su2_exp(atom["axis_angle"]), atom.get("mass", 1.0)

    with _at(pointer):
        return GroupLevyMeasure(group, _atom_list(obj or [], pointer, {"angle", "axis_angle", "mass"}, read))


def _frequencies(rows, dim: int) -> np.ndarray:
    """``config.xi`` as an array of rows of ``dim`` numbers; a flat list of numbers when dim is 1."""
    with _at("config.xi"):
        return np.array(rows, dtype=float).reshape(len(rows), dim)


def _psi(obj, n_atoms):
    """``config.psi``: None, a number or a per-atom table (``euclid.psi_values``); with a density, None or a number."""
    with _at("config.psi"):
        return density_psi(obj) if n_atoms is None else psi_values(obj, n_atoms)


def _coeff_table(obj, pointer: str) -> PeterWeylCoeffs:
    with _at(pointer):
        _require_keys(obj, {"group", "cutoff", "blocks"}, pointer)
        group = obj["group"]
        blocks = {}
        for i, blk in enumerate(obj.get("blocks", [])):
            _require_keys(blk, {"label", "matrix"}, f"{pointer}.blocks[{i}]")
            mat = np.asarray(blk["matrix"], dtype=float)
            if mat.ndim == 3:  # entries as [re, im]
                mat = mat[..., 0] + 1j * mat[..., 1]
            blocks[get_irrep(group, blk["label"]).label] = np.atleast_2d(mat)
        return PeterWeylCoeffs(group, obj.get("cutoff", 0), blocks)


def _label_json(label):
    """JSON view of an irrep label: T^2 labels are lists, the others numbers."""
    return list(label) if isinstance(label, tuple) else label


def _complex_matrix_json(mat: np.ndarray):
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


#: the keys whose values are names; every other string of a config, and every boolean, is not a number
NAME_KEYS = {"group", "kind", "mode", "sigma", "type"}


def _refuse_non_numbers(obj, pointer: str):
    """A ``ConfigError`` at the first boolean, or string not under a ``NAME_KEYS`` key, below ``obj``."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ():
        at = f"{pointer}.{key}" if isinstance(obj, dict) else f"{pointer}[{key}]"
        if isinstance(value, bool) or (isinstance(value, str) and key not in NAME_KEYS):
            raise ConfigError(at, f"expected a number, got {value!r}")
        _refuse_non_numbers(value, at)


def _load_config(path: str, keys) -> dict:
    """The config file at ``path``: an object of ``keys`` only, each leaf a number, a name (``NAME_KEYS``) or null."""
    try:
        with open(path) as fh:
            config = json.load(fh, parse_float=_finite, parse_int=_finite_int, parse_constant=_finite)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found")
    except ValueError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")
    _require_keys(config, keys, "config")
    _refuse_non_numbers(config, "config")
    return config


def _render(payload: dict, args, csv_rows=None, csv_header=None) -> str:
    """The payload as JSON, or the rows as CSV.

    CSV output carries the seed and config hash in a leading comment line
    so every numeric table keeps its provenance.
    """
    if args.format != "csv" or csv_rows is None:
        return _dumps(payload, indent=1) + "\n"
    _dumps(csv_rows)  # the same refusal of NaN and +-infinity for every cell
    meta = payload.get("meta", {})
    lines = [f"# seed={meta.get('seed')} config_hash={meta.get('config_hash')}", ",".join(csv_header)]
    for row in csv_rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(payload: dict, args, csv_rows=None, csv_header=None) -> None:
    """Write ``_render`` of the payload to --out or stdout."""
    text = _render(payload, args, csv_rows, csv_header)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, config) -> dict:
    return {"seed": args.seed, "config_hash": _config_hash(config)}


def _emit_rows(args, config, header: tuple, rows: list) -> None:
    """``_emit`` of the rows, one object of ``header`` keys each under ``rows``, or as CSV."""
    _emit({"meta": _meta(args, config), "rows": [dict(zip(header, row)) for row in rows]}, args, rows, header)


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    with _at("--p --b --B"):
        report = constant_report(args.p, args.b, args.B)
    payload = {"meta": _meta(args, {"p": args.p, "b": args.b, "B": args.B}), **dataclasses.asdict(report)}
    if report.interval is None:
        del payload["interval"]
    _emit(payload, args)
    return 0


def cmd_dual(args) -> int:
    with _at("--cutoff"):
        irreps = dual_enumerate(args.group, args.cutoff)
    rows = [
        {
            "label": _label_json(pi.label),
            "dim": pi.dim,
            "casimir": pi.casimir,
        }
        for pi in irreps
    ]
    payload = {"meta": _meta(args, {"group": args.group, "cutoff": args.cutoff}), "irreps": rows}
    csv_rows = [(json.dumps(r["label"]), r["dim"], float(r["casimir"])) for r in rows]
    _emit(payload, args, csv_rows=csv_rows, csv_header=("label", "dim", "casimir"))
    return 0


def cmd_symbol(args) -> int:
    config = _load_config(args.config, {"triple", "xi"})
    triple = _levy_triple(config.get("triple", {}), "config.triple")
    xis = _frequencies(config.get("xi", []), triple.dim)
    with _refined("config.triple.density"):
        re, im = symbol_grid(triple, xis)
    rows = [tuple(float(x) for x in xi) + (float(r), float(i)) for xi, r, i in zip(xis, re, im)]
    header = tuple(f"xi{i+1}" for i in range(triple.dim)) + ("re", "im")
    _emit_rows(args, config, header, rows)
    return 0


def _transform_pair(config):
    """The triple and the transform pair (A, psi) of a multiplier config, checked against its declared bounds
    (infinite when not given): A is an ``ImaginaryPowerProfile`` for ``aprofile``, else the n x n ``amatrix``."""
    triple = _levy_triple(config.get("triple", {}), "config.triple")
    if config.get("aprofile") is not None:
        prof = config["aprofile"]
        with _at("config.aprofile"):
            _require_keys(prof, {"type", "gamma"}, "config.aprofile")
            if prof.get("type") != "imaginary_power":
                raise ConfigError("config.aprofile.type", "unknown profile")
            apair = ImaginaryPowerProfile(float(prof.get("gamma", 0.5)))
    else:
        apair = _pair_matrix(config.get("amatrix"), "config.amatrix", triple.dim)
    psi = _psi(config.get("psi"), None if triple.nu.density is not None else len(triple.nu.atoms))
    with _at("config"):
        check_bounds(apair, psi, triple.nu, config.get("a_bound", np.inf), config.get("psi_bound", np.inf))
    return triple, apair, psi


def cmd_multiplier(args) -> int:
    config = _load_config(
        args.config, {"triple", "amatrix", "aprofile", "psi", "mode", "xi", "grid", "a_bound", "psi_bound"}
    )
    triple, apair, psi = _transform_pair(config)
    mode = config.get("mode", "autonomous")
    if mode not in ("autonomous", "time"):
        raise ConfigError("config.mode", "expected 'autonomous' or 'time'")
    if mode == "autonomous" and isinstance(apair, ImaginaryPowerProfile):
        raise ConfigError("config.mode", "autonomous mode needs a constant matrix")
    if config.get("xi") is not None:
        xis, where = _frequencies(config["xi"], triple.dim), "config.xi"
    else:
        grid = config.get("grid", {})
        with _at("config.grid"):
            _require_keys(grid, {"n", "halfwidth"}, "config.grid")
            n, w = _int_at_least(grid, "n", 16, 1, "config.grid"), float(grid.get("halfwidth", 4.0))
        axis = np.linspace(-w, w, n)
        xis = np.array(list(itertools.product(axis, repeat=triple.dim)))
        # xi = 0 is left out: the multiplier is undefined elsewhere only for degenerate data
        xis, where = xis[np.any(xis != 0.0, axis=1)], "config.triple"
    with _at(where), _refined("config.triple.density"):  # time mode is the autonomous route at 2 pi xi
        scaled = 2.0 * np.pi * xis if mode == "time" else xis
        vals = multiplier_autonomous_grid(apair, psi, triple.diffusion, triple.nu, scaled)
    rows = [tuple(float(x) for x in xi) + (float(val.real), float(val.imag)) for xi, val in zip(xis, vals)]
    header = tuple(f"xi{i+1}" for i in range(triple.dim)) + ("re_m", "im_m")
    _emit_rows(args, config, header, rows)
    return 0


def _stacked_symbol(kind: str, cfg: dict, pointer: str, group: str):
    """stack -> (blocks, defined) for the kinds both group commands take (riesz2, laplace)."""
    if kind == "riesz2":
        n = group_dim(group)
        cmat = _pair_matrix(cfg.get("cmatrix", np.eye(n)), f"{pointer}.cmatrix", n)
        empty = GroupLevyMeasure(group)
        return lambda stack: central_symbols(cmat, None, 1.0, empty, stack, None)[:2]
    if kind == "laplace":
        with _at(f"{pointer}.gamma"):
            profile = ImaginaryPowerProfile(float(cfg.get("gamma", 0.5)))
        return lambda stack: laplace_symbols(profile, stack)
    raise ConfigError(f"{pointer}.kind", f"unknown symbol kind {kind!r}")


#: ``symbol-group``'s reason to skip an undefined mode: every central one (Re alpha = 0) and the
#: trivial irrep of each other kind; a subordination symbol is also undefined where h(kappa) = 0
SKIPPED = {
    "central": UNDEFINED,
    "riesz2": "Riesz symbol undefined on constants (trivial representation)",
    "laplace": "Laplace-transform-type symbol undefined on the trivial representation",
    "subordination": "subordination symbol undefined on the trivial representation",
}
H_ZERO = "h(kappa) = 0: subordination symbol undefined"


def cmd_symbol_group(args) -> int:
    config = _load_config(
        args.config, {"group", "cutoff", "kind", "cmatrix", "gamma", "psi", "c", "bernstein", "atoms"}
    )
    group = config.get("group", "t1")
    with _at("config.cutoff"):
        cutoff = float(config.get("cutoff", 3))
    kind = config.get("kind", "riesz2")
    with _at("config"):
        dual = dual_enumerate(group, cutoff)
    nu = _group_measure(group, config.get("atoms"), "config.atoms")
    bernstein = _bernstein(config.get("bernstein", {}), "config.bernstein") if kind == "subordination" else None
    psi = _psi(config.get("psi"), len(nu.atoms))
    if kind == "central":
        cmat = _pair_matrix(config.get("cmatrix"), "config.cmatrix", group_dim(group))
        with _at("config.c"):
            rows = stack_rows(dual, lambda st: central_symbols(cmat, psi, float(config.get("c", 1.0)), nu, st, None))
    elif kind == "subordination":
        with _refined("config.bernstein.density"):
            rows = stack_rows(dual, lambda stack: subordination_symbols(psi, bernstein, nu, stack))
    else:
        rows = stack_rows(dual, _stacked_symbol(kind, config, "config", group))
    payload = {"meta": _meta(args, config), "kind": kind, "symbols": []}
    for pi, (block, defined, *_) in zip(dual, rows):
        skipped = H_ZERO if kind == "subordination" and pi.casimir > 0.0 else SKIPPED[kind]
        entry = {"dim": pi.dim, "matrix": _complex_matrix_json(block)} if defined else {"skipped": skipped}
        payload["symbols"].append({"label": _label_json(pi.label), **entry})
    if kind == "central":
        payload["alpha"] = [[float(alpha.real), float(alpha.imag)] for _, _, alpha in rows]
        payload["central_measure"] = nu.is_central()
    _emit(payload, args)
    return 0


def cmd_apply(args) -> int:
    config = _load_config(args.config, {"coeffs", "symbol"})
    coeffs = _coeff_table(config.get("coeffs", {}), "config.coeffs")
    sym_cfg = config.get("symbol", {})
    _require_keys(sym_cfg, {"group", "cutoff", "kind", "cmatrix", "gamma", "trivial"}, "config.symbol")
    sym_cfg = {"group": coeffs.group, "cutoff": coeffs.cutoff, **sym_cfg}
    kind = sym_cfg.get("kind", "riesz2")
    if kind == "heat":
        with _at("config.symbol.gamma"):
            out = heat_coeffs(coeffs, float(sym_cfg.get("gamma", 1.0)))
    else:
        with _at("config.symbol"):
            dual = dual_enumerate(sym_cfg["group"], sym_cfg["cutoff"])
        symbol = _stacked_symbol(kind, sym_cfg, "config.symbol", sym_cfg["group"])
        trivial = sym_cfg.get("trivial", 0.0)
        if not isinstance(trivial, (int, float)):
            raise ConfigError("config.symbol.trivial", f"expected a number, got {trivial!r}")
        rows = zip(dual, stack_rows(dual, symbol))
        table = {pi.label: blk if ok else complex(trivial) * np.eye(pi.dim, dtype=complex) for pi, (blk, ok) in rows}
        with _at("config.coeffs"):
            out = apply_symbol_coeffs(table, coeffs)
    payload = {
        "meta": _meta(args, config),
        "group": out.group,
        "cutoff": out.cutoff,
        "blocks": [
            {"label": _label_json(lb), "matrix": _complex_matrix_json(out.blocks[lb])}
            for lb in out.labels()
        ],
    }
    _emit(payload, args)
    return 0


def cmd_norm_search(args) -> int:
    config = _load_config(
        args.config, {"triple", "amatrix", "aprofile", "psi", "grid", "p", "trials", "refine", "band"}
    )
    triple, apair, psi = _transform_pair(config)
    if isinstance(apair, ImaginaryPowerProfile):
        raise ConfigError("config.aprofile", "norm search uses autonomous multipliers")
    n = _int_at_least(config, "grid", 32, 2, "config")
    if n & (n - 1):
        raise ConfigError("config.grid", f"{n} is not a power of two")
    trials = _int_at_least(config, "trials", 8, 1, "config")
    refine = _int_at_least(config, "refine", 6, 0, "config")
    band = None if config.get("band") is None else _int_at_least(config, "band", None, 1, "config")
    ps = config.get("p", [2.0])
    if not isinstance(ps, list):
        raise ConfigError("config.p", "expected a list of exponents")
    for i, p in enumerate(ps):
        if not isinstance(p, (int, float)) or not 1.0 < p < np.inf:
            raise ConfigError(f"config.p[{i}]", f"expected an exponent in (1, infinity), got {p!r}")

    m = lambda xi: multiplier_autonomous_grid(apair, psi, triple.diffusion, triple.nu, xi)
    with _at("config.triple"), _refined("config.triple.density"):  # xi = 0 is set aside: only degenerate data fails
        values = symbol_on_lattice(m, (n,) * triple.dim)
    results = norm_lower_bound_search(
        values, ps, trials=trials, refine_steps=refine, seed=args.seed, band=band
    )
    rows = [(res.p, res.ratio, res.trials, res.refine_steps) for res in results]
    header = ("p", "lower_bound", "trials", "refine_steps")
    _emit_rows(args, config, header, rows)
    return 0


@contextlib.contextmanager
def _replacing(path: str):
    """A new binary file that replaces ``path`` when the block succeeds and is removed when it fails."""
    part = f"{path}.{os.getpid()}.part"
    raw = open(part, "xb")
    try:
        with raw:
            yield raw
        os.replace(part, path)
    except BaseException:
        os.remove(part)
        raise


def cmd_simulate(args) -> int:
    config = _load_config(
        args.config, {"group", "c", "drift", "atoms", "horizon", "dt", "paths", "f", "amatrix", "psi", "sigma"}
    )
    group = config.get("group", "t1")
    with _at("config"):
        spec = GroupProcessSpec(
            group=group,
            c=float(config.get("c", 0.5)),
            jumps=_group_measure(group, config.get("atoms"), "config.atoms"),
            horizon=float(config.get("horizon", 1.0)),
            dt=float(config.get("dt", 1.0 / 64)),
            seed=args.seed,
            drift=tuple(config.get("drift", ()) or ()),
        )
    coeffs = _coeff_table(config.get("f", {}), "config.f")
    amatrix = _pair_matrix(config.get("amatrix"), "config.amatrix", group_dim(group))
    psi = _psi(config.get("psi"), len(spec.jumps.atoms))
    paths = _int_at_least(config, "paths", 100, 1, "config")
    sigma_mode = config.get("sigma", "haar")
    if sigma_mode not in ("haar", "identity"):
        raise ConfigError("config.sigma", f"expected 'haar' or 'identity', got {sigma_mode!r}")
    with _at("config.f"):
        ctx = transform_context(spec, coeffs)
    out_path = args.out or "transcripts.jsonl.gz"
    summary = {"paths": paths, "max_violation": -np.inf, "max_repr_gap": 0.0}
    x_final = np.zeros(paths, dtype=complex)
    y_final = np.zeros(paths, dtype=complex)
    # filename and mtime pinned so identical runs give identical bytes
    with _replacing(out_path) as raw, gzip.GzipFile(
        filename="", fileobj=raw, mode="wb", mtime=0
    ) as gz, io.TextIOWrapper(gz, encoding="utf-8") as fh:
        for idx, path, sigmas in ensemble_chunks(spec, ctx, paths, args.seed, sigma_mode == "haar"):
            tr = ctx.transcript(path, amatrix, psi, sigmas)
            viol = check_differential_subordination(tr)
            summary["max_violation"] = max(summary["max_violation"], float(np.max(viol)))
            summary["max_repr_gap"] = max(summary["max_repr_gap"], tr.repr_gap)
            x_final[idx], y_final[idx] = tr.m[:, -1], tr.m_transform[:, -1]
            times = tr.times.tolist()
            rows = {
                "m_re": tr.m.real,
                "m_im": tr.m.imag,
                "transform_re": tr.m_transform.real,
                "transform_im": tr.m_transform.imag,
                "qv": tr.qv,
                "qv_transform": tr.qv_transform,
            }
            for row, i in enumerate(idx):
                record = {"path": int(i), "times": times, "violation": float(viol[row])}
                record.update({key: values[row].tolist() for key, values in rows.items()})
                fh.write(_canonical(record) + "\n")
        ratio, stderr = (0.0, 0.0)
        if paths >= 2 and np.any(np.abs(x_final) > 0.0):
            ratio, stderr = empirical_burkholder(TransformEnsemble(x_final, y_final), 2.0)
        summary["ratio_p2"] = ratio
        summary["stderr_p2"] = stderr
        payload = {"meta": _meta(args, config), "transcripts": out_path, **summary}
        header = ("paths", "ratio_p2", "stderr_p2", "max_violation", "max_repr_gap")
        text = _render(payload, args, [tuple(summary[k] for k in header)], header)
    # stdout, as --out names the transcripts file
    sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    names = args.suites or None
    overrides = {}
    if args.paths is not None:
        overrides["paths"] = args.paths
    if args.specs is not None:
        overrides["n_specs"] = args.specs
    if args.seed is not None:
        overrides["seed"] = args.seed
    results = verifymod.run_checks(names, overrides)
    lines = [r.line() for r in results]
    payload = {
        "meta": _meta(args, {"suites": names or "all", "overrides": overrides}),
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "seed": r.seed,
                "details": r.details,
            }
            for r in results
        ],
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_render(payload, args))
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in results) else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="levymult",
        description="Levy-process Fourier multipliers and their Monte Carlo verification",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed for stochastic commands (default 0; verify: each check's own seed)",
    )
    parser.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sharp-constant report")
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--b", type=_finite, default=None)
    p.add_argument("--B", type=_finite, default=None)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("dual", help="enumerate a unitary dual")
    p.add_argument("--group", choices=("t1", "t2", "su2"), required=True)
    p.add_argument("--cutoff", type=_finite, required=True)
    p.set_defaults(fn=cmd_dual)

    for name, fn in (
        ("symbol", cmd_symbol),
        ("multiplier", cmd_multiplier),
        ("symbol-group", cmd_symbol_group),
        ("apply", cmd_apply),
        ("norm-search", cmd_norm_search),
        ("simulate", cmd_simulate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify", help="run verification suites; nonzero exit on failure")
    p.add_argument("suites", nargs="*", help=f"subset of: {', '.join(verifymod.ALL_CHECKS)}")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--specs", type=int, default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None and args.fn is not cmd_verify:
        args.seed = 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_CONFIG
    except (QuadratureError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
