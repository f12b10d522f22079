"""Batch command-line front end.

Subcommands wire JSON configs to the library and emit machine-readable
results (JSON or CSV).  Every numeric artifact embeds the seed and a
hash of the resolved configuration, and identical invocations produce
identical output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import hashlib
import io
import itertools
import json
import sys

import numpy as np

from . import verify as verifymod
from .constants import constant_report
from .euclid import (
    ImaginaryPowerProfile,
    MultiplierSpec,
    multiplier_autonomous_grid,
    multiplier_time_dependent,
)
from .groups import (
    GroupLevyMeasure,
    PeterWeylCoeffs,
    dual_enumerate,
    su2_exp,
)
from .levy import (
    BernsteinSpec,
    LevyMeasureRn,
    LevyTriple,
    PositiveDensity,
    QuadratureError,
    RadialDensity,
    eval_symbol,
)
from .martingale import (
    TransformEnsemble,
    check_differential_subordination,
    empirical_burkholder,
    ensemble_chunks,
    transform_context,
)
from .operators import apply_symbol_coeffs, norm_lower_bound_search, symbol_on_lattice
from .simulate import GroupProcessSpec
from .symbols import (
    UNDEFINED,
    central_symbols,
    laplace_type_symbol,
    riesz2_symbol_group,
    subordination_symbol,
    symbol_table,
)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"config error at '{pointer}': {message}")
        self.pointer = pointer


def _require_keys(obj: dict, allowed, pointer: str):
    if not isinstance(obj, dict):
        raise ConfigError(pointer, "expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{pointer}.{key}", "unknown key")


def _py(value):
    """Plain-Python view of numpy scalars for JSON output."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def _matrix(obj, pointer: str) -> np.ndarray:
    if isinstance(obj, dict):
        _require_keys(obj, {"re", "im"}, pointer)
        return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj.get("im", 0.0), dtype=float)
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(pointer, f"not a matrix: {exc}")


def _radial_density(obj, pointer: str) -> RadialDensity:
    _require_keys(obj, {"profile", "inner", "outer", "nodes"}, pointer)
    prof = obj.get("profile", {})
    _require_keys(prof, {"type", "alpha", "scale"}, f"{pointer}.profile")
    kind = prof.get("type")
    if kind == "power":
        alpha = float(prof.get("alpha", 1.0))
        fn = lambda r, u: r ** (-1.0 - alpha)
    elif kind == "exp":
        scale = float(prof.get("scale", 1.0))
        fn = lambda r, u: scale * np.exp(-r) / r
    else:
        raise ConfigError(f"{pointer}.profile.type", f"unknown profile {kind!r}")
    return RadialDensity(
        profile=fn,
        inner=float(obj.get("inner", 1e-4)),
        outer=float(obj.get("outer", 1e3)),
        nodes=int(obj.get("nodes", 96)),
    )


def _levy_triple(obj, pointer: str = "triple") -> LevyTriple:
    _require_keys(obj, {"drift", "diffusion", "atoms", "density"}, pointer)
    a = _matrix(obj.get("diffusion", [[0.0]]), f"{pointer}.diffusion").real
    n = a.shape[0]
    atoms = []
    for i, atom in enumerate(obj.get("atoms", [])):
        _require_keys(atom, {"point", "mass"}, f"{pointer}.atoms[{i}]")
        atoms.append((np.asarray(atom["point"], dtype=float), float(atom["mass"])))
    density = None
    if obj.get("density") is not None:
        density = _radial_density(obj["density"], f"{pointer}.density")
    nu = LevyMeasureRn(dim=n, atoms=tuple(atoms), density=density)
    drift = np.asarray(obj.get("drift", [0.0] * n), dtype=float)
    return LevyTriple(drift=drift, diffusion=a, nu=nu)


def _bernstein(obj, pointer: str = "bernstein") -> BernsteinSpec:
    _require_keys(obj, {"c", "atoms", "density"}, pointer)
    atoms = []
    for i, atom in enumerate(obj.get("atoms", [])):
        _require_keys(atom, {"y", "mass"}, f"{pointer}.atoms[{i}]")
        atoms.append((float(atom["y"]), float(atom["mass"])))
    density = None
    if obj.get("density") is not None:
        dobj = obj["density"]
        _require_keys(dobj, {"profile", "inner", "outer", "nodes"}, f"{pointer}.density")
        prof = dobj.get("profile", {})
        _require_keys(prof, {"type", "alpha"}, f"{pointer}.density.profile")
        kind = prof.get("type")
        if kind == "stable_half":
            fn = lambda y: y**-1.5 / (2.0 * np.sqrt(np.pi))
        elif kind == "power":
            alpha = float(prof.get("alpha", 0.5))
            fn = lambda y: y ** (-1.0 - alpha)
        else:
            raise ConfigError(f"{pointer}.density.profile.type", f"unknown profile {kind!r}")
        density = PositiveDensity(
            profile=fn,
            inner=float(dobj.get("inner", 1e-6)),
            outer=float(dobj.get("outer", 1e4)),
            nodes=int(dobj.get("nodes", 32)),
        )
    return BernsteinSpec(c=float(obj.get("c", 0.0)), atoms=tuple(atoms), density=density)


def _group_measure(group: str, obj, pointer: str) -> GroupLevyMeasure:
    atoms = []
    for i, atom in enumerate(obj or []):
        _require_keys(atom, {"angle", "axis_angle", "mass"}, f"{pointer}[{i}]")
        mass = float(atom.get("mass", 1.0))
        if group in ("t1", "t2"):
            atoms.append((np.asarray(atom["angle"], dtype=float), mass))
        else:
            atoms.append((su2_exp(np.asarray(atom["axis_angle"], dtype=float)), mass))
    return GroupLevyMeasure(group, tuple(atoms))


def _psi(obj):
    if obj is None:
        return None
    if isinstance(obj, (int, float)):
        return float(obj)
    return np.asarray(obj, dtype=float)


def _coeff_table(obj, pointer: str) -> PeterWeylCoeffs:
    _require_keys(obj, {"group", "cutoff", "blocks"}, pointer)
    group = obj["group"]
    blocks = {}
    for i, blk in enumerate(obj.get("blocks", [])):
        _require_keys(blk, {"label", "matrix"}, f"{pointer}.blocks[{i}]")
        label = blk["label"]
        if group == "t2":
            label = (int(label[0]), int(label[1]))
        elif group == "t1":
            label = int(label)
        else:
            label = float(label)
        mat = np.asarray(blk["matrix"], dtype=float)
        if mat.ndim == 3:  # entries as [re, im]
            mat = mat[..., 0] + 1j * mat[..., 1]
        blocks[label] = np.atleast_2d(mat)
    return PeterWeylCoeffs(group, obj.get("cutoff", 0), blocks)


def _label_json(label):
    """JSON view of an irrep label: T^2 labels are lists, the others numbers."""
    return list(label) if isinstance(label, tuple) else label


def _complex_matrix_json(mat: np.ndarray):
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(path, "config file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")


def _emit(payload: dict, args, csv_rows=None, csv_header=None) -> None:
    """Write the payload as JSON, or the rows as CSV, to --out or stdout.

    CSV output carries the seed and config hash in a leading comment line
    so every numeric table keeps its provenance.
    """
    if args.format == "csv" and csv_rows is not None:
        meta = payload.get("meta", {})
        lines = [f"# seed={meta.get('seed')} config_hash={meta.get('config_hash')}"]
        lines.append(",".join(csv_header))
        for row in csv_rows:
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, config) -> dict:
    return {"seed": args.seed, "config_hash": _config_hash(config)}


# ---------------------------------------------------------------------------
# subcommands


def _fields_but_p(report) -> dict:
    return {k: v for k, v in dataclasses.asdict(report).items() if k != "p"}


def cmd_constants(args) -> int:
    report = constant_report(args.p, args.b, args.B)
    payload = {
        "meta": _meta(args, {"p": args.p, "b": args.b, "B": args.B}),
        "p": report.p,
        "p_star": report.p_star,
        "burkholder": report.burkholder,
        "choi": _fields_but_p(report.choi),
    }
    if report.interval is not None:
        payload["interval"] = _fields_but_p(report.interval)
    _emit(payload, args)
    return 0


def cmd_dual(args) -> int:
    cutoff = float(args.cutoff) if args.group == "su2" else int(args.cutoff)
    irreps = dual_enumerate(args.group, cutoff)
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
    config = _load_config(args.config)
    _require_keys(config, {"triple", "xi"}, "config")
    triple = _levy_triple(config.get("triple", {}))
    rows = []
    for xi in config.get("xi", []):
        re, im = eval_symbol(triple, np.asarray(xi, dtype=float))
        rows.append(tuple(float(x) for x in xi) + (re, im))
    header = tuple(f"xi{i+1}" for i in range(triple.dim)) + ("re", "im")
    payload = {
        "meta": _meta(args, config),
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _emit(payload, args, csv_rows=rows, csv_header=header)
    return 0


def _multiplier_from_config(config):
    _require_keys(
        config,
        {"triple", "amatrix", "aprofile", "psi", "mode", "xi", "grid", "a_bound", "psi_bound"},
        "config",
    )
    triple = _levy_triple(config.get("triple", {}))
    amatrix = None
    aprofile = None
    if config.get("aprofile") is not None:
        prof = config["aprofile"]
        _require_keys(prof, {"type", "gamma"}, "config.aprofile")
        if prof.get("type") != "imaginary_power":
            raise ConfigError("config.aprofile.type", "unknown profile")
        aprofile = ImaginaryPowerProfile(float(prof.get("gamma", 0.5)))
    else:
        amatrix = _matrix(config.get("amatrix", np.zeros((triple.dim, triple.dim))), "config.amatrix")
    psi = _psi(config.get("psi"))
    if config.get("a_bound") is not None or config.get("psi_bound") is not None:
        spec = MultiplierSpec(
            a_bound=float(config.get("a_bound", np.inf)),
            psi_bound=float(config.get("psi_bound", np.inf)),
            amatrix=amatrix,
            aprofile=aprofile,
            psi=psi,
        )
        try:
            spec.validate(triple.nu)
        except ValueError as exc:
            raise ConfigError("config.a_bound", str(exc))
    return triple, amatrix, aprofile, psi


def cmd_multiplier(args) -> int:
    config = _load_config(args.config)
    triple, amatrix, aprofile, psi = _multiplier_from_config(config)
    mode = config.get("mode", "autonomous")
    if mode not in ("autonomous", "time"):
        raise ConfigError("config.mode", "expected 'autonomous' or 'time'")
    if mode == "autonomous" and aprofile is not None:
        raise ConfigError("config.mode", "autonomous mode needs a constant matrix")
    if config.get("xi") is not None:
        xis = np.array(config["xi"], dtype=float).reshape(len(config["xi"]), triple.dim)
    else:
        grid = config.get("grid", {})
        _require_keys(grid, {"n", "halfwidth"}, "config.grid")
        n = int(grid.get("n", 16))
        w = float(grid.get("halfwidth", 4.0))
        axis = np.linspace(-w, w, n)
        xis = np.array(list(itertools.product(axis, repeat=triple.dim)))
        xis = xis[np.any(xis != 0.0, axis=1)]
    if mode == "autonomous":
        vals = multiplier_autonomous_grid(amatrix, psi, triple.diffusion, triple.nu, xis)
    else:
        spec = MultiplierSpec(a_bound=np.inf, psi_bound=np.inf, amatrix=amatrix, aprofile=aprofile, psi=psi)
        vals = [multiplier_time_dependent(spec, triple, xi) for xi in xis]
    rows = [tuple(float(x) for x in xi) + (float(val.real), float(val.imag)) for xi, val in zip(xis, vals)]
    header = tuple(f"xi{i+1}" for i in range(triple.dim)) + ("re_m", "im_m")
    payload = {"meta": _meta(args, config), "rows": [dict(zip(header, r)) for r in rows]}
    _emit(payload, args, csv_rows=rows, csv_header=header)
    return 0


def _shared_group_symbol(kind: str, cfg: dict, pointer: str, dual):
    """pi -> symbol block for the kinds both group commands take (riesz2, laplace), else None."""
    if kind == "riesz2":
        cmat = _matrix(cfg.get("cmatrix", np.eye(len(dual[0].generators))), f"{pointer}.cmatrix")
        return lambda pi: riesz2_symbol_group(cmat, pi)
    if kind == "laplace":
        profile = ImaginaryPowerProfile(float(cfg.get("gamma", 0.5)))
        return lambda pi: laplace_type_symbol(profile, pi)
    return None


def _central_group_symbols(config: dict, dual, nu: GroupLevyMeasure, psi):
    """``symbol-group`` entries of kind central and every irrep's exponent, one stacked evaluation
    per irrep dimension; every mode where the multiplier is undefined is ``skipped``."""
    cmat = _matrix(config["cmatrix"], "config.cmatrix") if config.get("cmatrix") is not None else None
    by_label = {}
    for dim in {pi.dim for pi in dual}:
        stack = [pi for pi in dual if pi.dim == dim]
        mats, alphas, defined = central_symbols(cmat, psi, float(config.get("c", 1.0)), nu, stack, None)
        for pi, mat, alpha, ok in zip(stack, mats, alphas, defined):
            entry = {"dim": pi.dim, "matrix": _complex_matrix_json(mat)} if ok else {"skipped": UNDEFINED}
            by_label[pi.label] = ({"label": _label_json(pi.label), **entry}, [float(alpha.real), float(alpha.imag)])
    return [by_label[pi.label][0] for pi in dual], [by_label[pi.label][1] for pi in dual]


def cmd_symbol_group(args) -> int:
    config = _load_config(args.config)
    _require_keys(
        config,
        {"group", "cutoff", "kind", "cmatrix", "gamma", "psi", "c", "bernstein", "atoms"},
        "config",
    )
    group = config.get("group", "t1")
    cutoff = float(config.get("cutoff", 3))
    kind = config.get("kind", "riesz2")
    dual = dual_enumerate(group, cutoff)
    nu = _group_measure(group, config.get("atoms"), "config.atoms")
    psi = _psi(config.get("psi"))
    payload = {"meta": _meta(args, config), "kind": kind}
    if kind == "central":
        payload["symbols"], payload["alpha"] = _central_group_symbols(config, dual, nu, psi)
        payload["central_measure"] = nu.is_central()
        _emit(payload, args)
        return 0
    shared = _shared_group_symbol(kind, config, "config", dual)
    entries = []
    for pi in dual:
        try:
            if shared is not None:
                mat = shared(pi)
            elif kind == "subordination":
                mat = subordination_symbol(psi, _bernstein(config.get("bernstein", {})), nu, pi)
            else:
                raise ConfigError("config.kind", f"unknown symbol kind {kind!r}")
        except ValueError as exc:
            if pi.casimir == 0.0:
                entries.append({"label": _label_json(pi.label), "skipped": str(exc)})
                continue
            raise
        entries.append(
            {"label": _label_json(pi.label), "dim": pi.dim, "matrix": _complex_matrix_json(mat)}
        )
    payload["symbols"] = entries
    _emit(payload, args)
    return 0


def cmd_apply(args) -> int:
    config = _load_config(args.config)
    _require_keys(config, {"coeffs", "symbol"}, "config")
    coeffs = _coeff_table(config.get("coeffs", {}), "config.coeffs")
    sym_cfg = dict(config.get("symbol", {}))
    sym_cfg.setdefault("group", coeffs.group)
    sym_cfg.setdefault("cutoff", coeffs.cutoff)

    kind = sym_cfg.get("kind", "riesz2")
    _require_keys(sym_cfg, {"group", "cutoff", "kind", "cmatrix", "gamma", "trivial"}, "config.symbol")
    dual = dual_enumerate(sym_cfg["group"], sym_cfg["cutoff"])
    shared = _shared_group_symbol(kind, sym_cfg, "config.symbol", dual)
    if shared is not None:
        table = symbol_table(dual, shared, trivial=sym_cfg.get("trivial", 0.0))
    elif kind == "heat":
        table = {pi.label: np.exp(-float(sym_cfg.get("gamma", 1.0)) * pi.casimir) * np.eye(pi.dim) for pi in dual}
    else:
        raise ConfigError("config.symbol.kind", f"unknown symbol kind {kind!r}")
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
    config = _load_config(args.config)
    _require_keys(
        config,
        {"triple", "amatrix", "aprofile", "psi", "grid", "p", "trials", "refine", "band"},
        "config",
    )
    triple, amatrix, aprofile, psi = _multiplier_from_config(
        {k: config.get(k) for k in ("triple", "amatrix", "aprofile", "psi")}
    )
    if aprofile is not None:
        raise ConfigError("config.aprofile", "norm search uses autonomous multipliers")
    n = int(config.get("grid", 32))

    def m(pts):
        vals = np.zeros(len(pts), dtype=complex)
        nonzero = np.any(pts != 0.0, axis=1)
        vals[nonzero] = multiplier_autonomous_grid(
            amatrix, psi, triple.diffusion, triple.nu, pts[nonzero]
        )
        return vals

    values = symbol_on_lattice(m, (n,) * triple.dim)
    rows = []
    for p in config.get("p", [2.0]):
        res = norm_lower_bound_search(
            values,
            float(p),
            trials=int(config.get("trials", 8)),
            refine_steps=int(config.get("refine", 6)),
            seed=args.seed,
            band=config.get("band"),
        )
        rows.append((float(p), res.ratio, res.trials, res.refine_steps))
    payload = {
        "meta": _meta(args, config),
        "rows": [
            {"p": r[0], "lower_bound": r[1], "trials": r[2], "refine_steps": r[3]} for r in rows
        ],
    }
    _emit(payload, args, csv_rows=rows, csv_header=("p", "lower_bound", "trials", "refine_steps"))
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    _require_keys(
        config,
        {"group", "c", "drift", "atoms", "horizon", "dt", "paths", "f", "amatrix", "psi", "sigma"},
        "config",
    )
    group = config.get("group", "t1")
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
    amatrix = _matrix(config["amatrix"], "config.amatrix") if config.get("amatrix") is not None else None
    psi = _psi(config.get("psi"))
    paths = int(config.get("paths", 100))
    sigma_mode = config.get("sigma", "haar")
    if sigma_mode not in ("haar", "identity"):
        raise ConfigError("config.sigma", f"expected 'haar' or 'identity', got {sigma_mode!r}")
    ctx = transform_context(spec, coeffs)
    out_path = args.out or "transcripts.jsonl.gz"
    summary = {"paths": paths, "max_violation": -np.inf, "max_repr_gap": 0.0}
    x_final = np.zeros(paths, dtype=complex)
    y_final = np.zeros(paths, dtype=complex)
    # filename and mtime pinned so identical runs give identical bytes
    with open(out_path, "wb") as raw, gzip.GzipFile(
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
        ratio, stderr = empirical_burkholder(TransformEnsemble(x_final, y_final, x_final), 2.0)
    summary["ratio_p2"] = ratio
    summary["stderr_p2"] = stderr
    payload = {"meta": _meta(args, config), "transcripts": out_path, **summary}
    if args.format == "csv":
        meta = payload["meta"]
        sys.stdout.write(
            f"# seed={meta['seed']} config_hash={meta['config_hash']}\n"
            "paths,ratio_p2,stderr_p2,max_violation,max_repr_gap\n"
            f"{paths},{ratio:.17g},{stderr:.17g},{summary['max_violation']:.17g},{summary['max_repr_gap']:.17g}\n"
        )
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return 0


def cmd_verify(args) -> int:
    names = args.suites or None
    overrides = {}
    if args.paths is not None:
        overrides["paths"] = args.paths
        overrides["transcripts"] = args.paths
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
                "passed": _py(r.passed),
                "seed": r.seed,
                "details": {k: _py(v) for k, v in r.details.items()},
            }
            for r in results
        ],
    }
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--B", type=float, default=None)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("dual", help="enumerate a unitary dual")
    p.add_argument("--group", choices=("t1", "t2", "su2"), required=True)
    p.add_argument("--cutoff", type=float, required=True)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None and args.fn is not cmd_verify:
        args.seed = 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_CONFIG
    except (QuadratureError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
