"""Quantitative verification suites for the package's guarantees.

Each check returns a CheckResult with the measured numbers.  Its
contractual grids, cutoffs, exponents and tolerances are the module
constants below; a caller varies only its size (``paths`` or
``n_specs``, which the command-line ``verify`` subcommand sets) and its
``seed``.  The acceptance tests run every check at its defaults.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng as rngmod
from .constants import burkholder_constant, cpbB_bounds
from .euclid import ImaginaryPowerProfile, multiplier_autonomous_grid, riesz2_symbol_rn
from .gammafn import gamma
from .groups import (
    SU2,
    T1,
    T2,
    GroupLevyMeasure,
    group_dim,
    dual_enumerate,
    casimir_eigenvalue,
    get_irrep,
    pw_inverse,
    quadrature_grid,
    random_band_limited,
    su2_exp,
)
from .levy import (
    BernsteinSpec,
    LevyMeasureRn,
    PositiveDensity,
    RadialDensity,
    bernstein_atoms,
    bernstein_eval,
)
from .martingale import (
    central_char_report,
    check_differential_subordination,
    empirical_burkholder,
    ensemble_chunks,
    projection_mc_estimate,
    simulate_transform_ensemble,
    transform_context,
)
from .operators import (
    GridFunction,
    apply_symbol_coeffs,
    apply_symbol_grid,
    frequency_lattice,
    norm_lower_bound_search,
    plancherel_residual,
)
from .simulate import GroupProcessSpec, simulate_subordinator
from .symbols import central_symbols, laplace_symbols, subordination_symbols

# the contract of each criterion beyond its size and seed
MULTIPLIER_GRID, MULTIPLIER_TOL = 64, 1e-9  # 1: lattice side, slack on |m| <= 1
RIESZ_GRID, RIESZ_CUTOFF, RIESZ_RTOL = 64, 5, 1e-10  # 2
SEARCH_INTERVAL_SPECS, SEARCH_GROUP_SPECS = 40, 12  # 3: cases after the n_specs random pairs
SEARCH_PS, SEARCH_GRID, SEARCH_TRIALS, SEARCH_STEPS = (1.5, 2.0, 3.0, 4.0), 32, 4, 4
SEARCH_SLACK, SEARCH_P2_TOL, SEARCH_INTERVAL_SLACK = 3e-2, 1e-9, 1e-9  # over p* - 1, p = 2 sup, interval bound
PLANCHEREL_PAIRS, PLANCHEREL_TOL = 100, 1e-6  # 4: pairs per group
CASIMIR_TORUS_CUTOFF, CASIMIR_SPIN_CUTOFF, CASIMIR_TOL = 16, 8.0, 1e-10  # 5
POWER_KAPPAS, POWER_GAMMAS = (1.0, 4.0, 9.0), (0.5, 1.0)  # 6
POWER_TOL, PREFACTOR_TOL = 1e-6, 1e-10
INCREMENT_TOL = 1e-12  # 7: quadratic-variation increments
BURKHOLDER_PS, BURKHOLDER_HORIZONS = (1.5, 2.0, 3.0), (0.5, 1.0, 2.0)  # 8
SIGMAS = 3.0  # 8-11: Monte Carlo gates, in standard errors
PROJECTION_DT = 1 / 256  # 9
ORACLE_TOL = 1e-8  # 10: scalar against matrix oracle
SYMBOL_TOL = 1e-10  # 11: subordination against central symbol
CONSTANTS_DRAWS, CONSTANTS_TOL = 10000, 1e-12  # 12: random (p, b, B); sandwich slack and duality error


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict
    seed: Optional[int] = None  # set by run_checks; None for checks that draw nothing

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        core = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {core}"


# ---------------------------------------------------------------------------
# random transform-pair fixtures


def _random_bounded_matrix(gen, n, bound=1.0):
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    a *= bound * gen.uniform(0.2, 0.999) / np.linalg.norm(a, 2)
    return a


def _random_psd(gen, n, allow_degenerate=True):
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    eig = gen.uniform(0.05, 1.5, size=n)
    if allow_degenerate and gen.uniform() < 0.2:
        eig[0] = 0.0
    return (q * eig) @ q.T


def _random_measure(gen, n, allow_empty=True) -> LevyMeasureRn:
    n_atoms = int(gen.integers(0 if allow_empty else 1, 4))
    atoms = []
    for _ in range(n_atoms):
        point = gen.standard_normal(n) * gen.uniform(0.3, 2.0)
        while not np.any(point != 0.0):
            point = gen.standard_normal(n)
        atoms.append((point, float(gen.uniform(0.1, 2.0))))
    return LevyMeasureRn(dim=n, atoms=tuple(atoms))


def _random_multiplier_fixture(gen):
    """(amatrix, psi_atom_values, a, nu) on R^2 with bounds <= 1 and nondegenerate symbol."""
    n = 2
    amat = _random_bounded_matrix(gen, n)
    a = _random_psd(gen, n)
    degenerate_a = not np.any(a != 0.0) or np.min(np.linalg.eigvalsh(a)) < 1e-12
    nu = _random_measure(gen, n, allow_empty=not degenerate_a)
    if degenerate_a and not len(nu.atoms):
        nu = _random_measure(gen, n, allow_empty=False)
    psi = gen.uniform(-0.999, 0.999, size=len(nu.atoms))
    if gen.uniform() < 0.3 and len(nu.atoms):
        phases = np.exp(1j * gen.uniform(0, 2 * np.pi, size=len(nu.atoms)))
        psi = psi * phases
    return amat, psi, a, nu


def _nonzero_lattice(shape):
    lattice = frequency_lattice(GridFunction(np.zeros(shape, dtype=complex)))
    flat = lattice.reshape(-1, lattice.shape[-1])
    return flat[np.any(flat != 0.0, axis=1)]


def check_multiplier_bound(n_specs=1000, seed=20240) -> CheckResult:
    """Autonomous multipliers with bounds <= 1 stay within 1 on the lattice."""
    xi = _nonzero_lattice((MULTIPLIER_GRID, MULTIPLIER_GRID))
    worst = 0.0
    n_density = 0
    for i in range(n_specs):
        gen = rngmod.stream(seed, rngmod.SPEC_DRAW, i)
        amat, psi, a, nu = _random_multiplier_fixture(gen)
        if i % 250 == 0:
            # a handful of fixtures carry a density part as well; the support
            # is kept small so the fixed quadrature resolves cos(xi . y) over
            # the whole frequency lattice
            scale = float(gen.uniform(0.5, 1.5))
            nu = LevyMeasureRn(
                dim=2,
                atoms=nu.atoms,
                density=RadialDensity(
                    profile=lambda r, u, s=scale: s * np.exp(-r) / r,
                    inner=0.06,
                    outer=0.45,
                    nodes=72,
                ),
            )
            psi_d = float(gen.uniform(-0.999, 0.999))
            vals = multiplier_autonomous_grid(amat, psi_d, a, nu, xi)
            n_density += 1
        else:
            vals = multiplier_autonomous_grid(amat, psi, a, nu, xi)
        worst = max(worst, float(np.max(np.abs(vals))))
    return CheckResult(
        "multiplier-bound",
        worst <= 1.0 + MULTIPLIER_TOL,
        {"max_abs": worst, "specs": n_specs, "grid": MULTIPLIER_GRID, "with_density": n_density},
    )


def check_riesz_equivalence(seed=20241) -> CheckResult:
    """Grid route and coefficient route agree for second-order Riesz on T^2."""
    grid = RIESZ_GRID
    gen = rngmod.stream(seed, rngmod.SPEC_DRAW)
    worst = 0.0
    points = quadrature_grid(T2, grid - 1).points
    cs = [np.diag([1.0, -1.0])]
    for _ in range(3):
        m = gen.standard_normal((2, 2))
        cs.append((m + m.T) / 2.0)
    dual, empty = dual_enumerate(T2, RIESZ_CUTOFF), GroupLevyMeasure(T2)
    for c in cs:
        coeffs = random_band_limited(T2, RIESZ_CUTOFF, gen)
        values = pw_inverse(coeffs, points).reshape(grid, grid)
        gf = GridFunction(values)
        via_grid = apply_symbol_grid(lambda xi, c=c: riesz2_symbol_rn(c, xi), gf)
        # second-order Riesz: the central symbol at c = 1 without jumps (one stack), zero on constants
        table = dict(zip([pi.label for pi in dual], central_symbols(c, None, 1.0, empty, dual, None)[0]))
        via_coeffs = pw_inverse(apply_symbol_coeffs(table, coeffs), points).reshape(grid, grid)
        scale = float(np.max(np.abs(values))) or 1.0
        worst = max(worst, float(np.max(np.abs(via_grid.values - via_coeffs)) / scale))
    # the flagship difference multiplier on the lattice
    lat = _nonzero_lattice((grid, grid))
    sym = riesz2_symbol_rn(np.diag([1.0, -1.0]), lat)
    explicit = (lat[:, 0] ** 2 - lat[:, 1] ** 2) / (lat[:, 0] ** 2 + lat[:, 1] ** 2)
    lattice_err = float(np.max(np.abs(sym - explicit)))
    passed = worst <= RIESZ_RTOL and lattice_err <= RIESZ_RTOL
    return CheckResult(
        "riesz2-equivalence",
        passed,
        {"max_rel_err": worst, "lattice_err": lattice_err, "grid": grid},
    )


def _central_lattice_symbol(gen, xi):
    """Random central-process multiplier on T^2 at the frequencies xi."""
    amat = _random_bounded_matrix(gen, 2)
    c = float(gen.uniform(0.05, 0.8))
    nu = _random_group_measure(gen, T2)
    psi = gen.uniform(-0.999, 0.999, size=len(nu.atoms))
    pis = [get_irrep(T2, (int(round(k[0])), int(round(k[1])))) for k in xi]
    return central_symbols(amat, psi, c, nu, pis, None)[0][:, 0, 0]


def check_norm_search(n_specs=200, seed=20242) -> CheckResult:
    """Search lower bounds never exceed the sharp constants."""
    n_interval = SEARCH_INTERVAL_SPECS
    shape = (SEARCH_GRID, SEARCH_GRID)
    xi = _nonzero_lattice(shape)  # every lattice frequency after xi = 0, which is first
    worst_gap = -np.inf
    worst_p2 = -np.inf
    worst_interval = -np.inf
    for i in range(n_specs + n_interval + SEARCH_GROUP_SPECS):
        gen = rngmod.stream(seed, rngmod.SPEC_DRAW, i)
        interval_case = n_specs <= i < n_specs + n_interval
        if i >= n_specs + n_interval:
            # compact-group route: central-process symbols on the T^2 lattice
            sym = _central_lattice_symbol(gen, xi)
        elif interval_case:
            b = float(gen.uniform(-2.0, 0.5))
            bb = float(gen.uniform(b + 0.2, 2.5))
            q, _ = np.linalg.qr(gen.standard_normal((2, 2)))
            amat = (q * np.array([b, bb])) @ q.T
            a = _random_psd(gen, 2, allow_degenerate=False)
            sym = multiplier_autonomous_grid(amat, np.zeros(0), a, LevyMeasureRn(dim=2), xi)
        else:
            sym = multiplier_autonomous_grid(*_random_multiplier_fixture(gen), xi)
        vals = np.concatenate([[0.0], sym]).reshape(shape)
        sup_lattice = float(np.max(np.abs(vals)))
        for res in norm_lower_bound_search(vals, SEARCH_PS, trials=SEARCH_TRIALS, refine_steps=SEARCH_STEPS, seed=seed + i):
            if interval_case:
                worst_interval = max(worst_interval, res.ratio - cpbB_bounds(res.p, b, bb).upper)
            else:
                worst_gap = max(worst_gap, res.ratio - burkholder_constant(res.p))
                if res.p == 2.0:
                    worst_p2 = max(worst_p2, res.ratio - sup_lattice)
    passed = worst_gap <= SEARCH_SLACK and worst_p2 <= SEARCH_P2_TOL and worst_interval <= SEARCH_INTERVAL_SLACK
    return CheckResult(
        "norm-search",
        passed,
        {
            "max_over_pstar": worst_gap,
            "max_over_lattice_p2": worst_p2,
            "max_over_interval_bound": worst_interval,
            "specs": n_specs + n_interval + SEARCH_GROUP_SPECS,
        },
    )


def check_plancherel(seed=20243) -> CheckResult:
    """Space-side and coefficient-side pairings agree on all three groups."""
    worst = 0.0
    cutoffs = {T1: 8, T2: 4, SU2: 2.0}
    for gi, group in enumerate((T1, T2, SU2)):
        cutoff = cutoffs[group]
        grid = quadrature_grid(group, 2 * cutoff)
        for i in range(PLANCHEREL_PAIRS):
            gen = rngmod.stream(seed, rngmod.SPEC_DRAW, gi, i)
            f = random_band_limited(group, cutoff, gen)
            g = random_band_limited(group, cutoff, gen)
            resid = plancherel_residual(f, g, grid=grid)
            worst = max(worst, resid / (f.l2_norm() * g.l2_norm()))
    return CheckResult("plancherel", worst <= PLANCHEREL_TOL, {"max_rel_residual": worst, "pairs": PLANCHEREL_PAIRS})


def check_casimir() -> CheckResult:
    """Squared generators are scalar with the closed-form eigenvalue."""
    worst = 0.0
    fundamental = None
    for group, cutoff in ((T1, CASIMIR_TORUS_CUTOFF), (T2, CASIMIR_TORUS_CUTOFF), (SU2, CASIMIR_SPIN_CUTOFF)):
        for pi in dual_enumerate(group, cutoff):
            kappa = casimir_eigenvalue(pi)  # raises if not scalar within 1e-10
            worst = max(worst, abs(kappa - pi.casimir))
            if group == SU2 and pi.label == 0.5:
                fundamental = kappa
    # independent matrix arithmetic for the fundamental representation
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    direct = sum((0.5j * s) @ (0.5j * s) for s in sigma)
    oracle = float(-np.trace(direct).real / 2.0)
    passed = (
        worst <= CASIMIR_TOL
        and fundamental is not None
        and abs(fundamental - oracle) <= CASIMIR_TOL
        and abs(oracle - 0.75) == 0.0
    )
    return CheckResult(
        "casimir",
        passed,
        {"max_eigen_err": worst, "fundamental": fundamental, "oracle": oracle},
    )


def _laplace_quadrature(profile, kappa: float) -> complex:
    """int_0^infty profile(s) e^{-2 s kappa} ds at one rate kappa > 0: criterion 6's oracle for the closed form.

    A trapezoid rule of 4,096 nodes in v = log s, where oscillatory profiles
    like (2s)^{i gamma} stay band-limited.
    """
    log_scale = np.log(1.0 / (2.0 * kappa))
    v = np.linspace(log_scale - 36.0, log_scale + np.log(50.0), 4096)
    s = np.exp(v)
    return complex(np.trapezoid(profile(s) * np.exp(-2.0 * s * kappa) * s, v))


def check_imaginary_power() -> CheckResult:
    """Quadrature of the imaginary-power profile against kappa^{-i gamma}, the closed form of ``laplace_symbols``."""
    worst = 0.0
    pis = [get_irrep(T1, int(round(np.sqrt(kap)))) for kap in POWER_KAPPAS]
    for g in POWER_GAMMAS:
        profile = ImaginaryPowerProfile(g)
        out, _ = laplace_symbols(profile, pis)
        for kap, block in zip(POWER_KAPPAS, out):
            quad = 2.0 * kap * _laplace_quadrature(profile, kap)
            worst = max(worst, abs(quad - complex(block[0, 0])))
    worst_pref = 0.0
    for p in (1.5, 2.0, 3.0):
        for g in POWER_GAMMAS:
            via_gamma = burkholder_constant(p) / abs(gamma(1.0 - 1j * g))
            via_identity = burkholder_constant(p) * np.sqrt(np.sinh(np.pi * g) / (np.pi * g))
            worst_pref = max(worst_pref, abs(via_gamma - via_identity))
    passed = worst <= POWER_TOL and worst_pref <= PREFACTOR_TOL
    return CheckResult(
        "imaginary-power",
        passed,
        {"max_symbol_err": worst, "max_prefactor_err": worst_pref},
    )


def _random_group_measure(gen, group) -> GroupLevyMeasure:
    """Up to two random atoms on the group."""
    n_atoms = int(gen.integers(0, 3))
    atoms = []
    for _ in range(n_atoms):
        if group == SU2:
            tau = su2_exp(gen.standard_normal(3) * gen.uniform(0.4, 1.5))
        else:
            tau = gen.uniform(0.3, 2 * np.pi - 0.3, size=group_dim(group))
        atoms.append((tau, float(gen.uniform(0.3, 1.5))))
    return GroupLevyMeasure(group, tuple(atoms))


def check_differential_subordination_sweep(paths=10000, seed=20244) -> CheckResult:
    """Pathwise quadratic-variation domination over random transform pairs, on at least ``paths`` transcripts."""
    total = 0
    worst = -np.inf
    worst_interval = -np.inf
    batch = 0
    while total < paths:
        gen = rngmod.stream(seed, rngmod.SPEC_DRAW, batch)
        group = (T1, T2, SU2)[batch % 3]
        # SU(2) always diffuses, so its Brownian gradient terms are checked too
        c = float(gen.uniform(0.05, 0.6)) if group == SU2 else float(gen.uniform(0.0, 0.6))
        jumps = _random_group_measure(gen, group)
        if c == 0.0 and not jumps.atoms:
            c = 0.3
        spec = GroupProcessSpec(group, c, jumps, 0.5, 1 / 64, seed=seed + 101 * batch)
        cutoff = {T1: 3, T2: 2, SU2: 1.0}[group]
        f = random_band_limited(group, cutoff, gen, real=True)
        n = group_dim(group)
        amat = _random_bounded_matrix(gen, n, bound=0.999)
        if batch % 4 == 0:
            # non-symmetric interval form: the whole pair takes values in [b, B]
            b = float(gen.uniform(-0.9, 0.0))
            bb = float(gen.uniform(0.05, 0.9))
            q, _ = np.linalg.qr(gen.standard_normal((n, n)))
            eig = gen.uniform(b, bb, size=n)
            eig[0], eig[-1] = b, bb
            amat = (q * eig) @ q.T
            interval = (b, bb)
            psi = gen.uniform(b, bb, size=len(jumps.atoms))
        else:
            interval = None
            psi = gen.uniform(-0.999, 0.999, size=len(jumps.atoms))
        ctx = transform_context(spec, f)
        per_batch = 400 if group == SU2 else 520
        for _, path, sigmas in ensemble_chunks(spec, ctx, per_batch, seed, haar_key=(batch,)):
            tr = ctx.transcript(path, amat, psi, sigmas)
            worst = max(worst, float(np.max(check_differential_subordination(tr))))
            if interval is not None:
                worst_interval = max(
                    worst_interval, float(np.max(check_differential_subordination(tr, bounds=interval)))
                )
        total += per_batch
        batch += 1
    passed = worst <= INCREMENT_TOL and worst_interval <= INCREMENT_TOL
    return CheckResult(
        "differential-subordination",
        passed,
        {"max_violation": worst, "max_interval_violation": worst_interval, "transcripts": total},
    )


def check_burkholder(paths=10000, seed=20245) -> CheckResult:
    """Transform-to-martingale p-norm ratios against p* - 1."""
    jumps = GroupLevyMeasure(T1, ((np.array([2.0]), 1.2),))
    f = random_band_limited(T1, 3, rngmod.stream(seed, rngmod.SPEC_DRAW), real=True)
    amat = np.array([[0.95]])
    psi = -0.9
    margins = []
    passed = True
    for horizon in BURKHOLDER_HORIZONS:
        spec = GroupProcessSpec(T1, 0.5, jumps, horizon, horizon / 256, seed=seed)
        ens = simulate_transform_ensemble(spec, f, amat, psi, paths)
        for p in BURKHOLDER_PS:
            ratio, se = empirical_burkholder(ens, p)
            bound = burkholder_constant(p)
            ok = ratio <= bound * (1.0 + SIGMAS * se / ratio)
            passed = passed and ok and (p != 2.0 or ratio <= 1.0 + SIGMAS * se)
            margins.append(bound * (1 + SIGMAS * se / ratio) - ratio)
    return CheckResult(
        "burkholder",
        passed,
        {"cases": len(margins), "min_margin": min(margins), "paths": paths},
    )


def _projection_fixtures(seed):
    gen = rngmod.stream(seed, rngmod.SPEC_DRAW, 9)
    f = random_band_limited(T2, 2, gen, real=True)
    g = random_band_limited(T2, 2, gen, real=True)
    atom1 = GroupLevyMeasure(T2, ((np.array([1.1, 0.7]), 0.8),))
    atom2 = GroupLevyMeasure(
        T2, ((np.array([1.1, 0.7]), 0.8), (np.array([2.3, 4.1]), 0.5))
    )
    empty = GroupLevyMeasure(T2)
    rot = np.array([[0.0, 0.7], [-0.7, 0.0]])
    sym = np.array([[0.5, 0.3], [0.3, -0.4]])
    return f, g, [
        ("identity", np.eye(2), 1.0, 0.4, atom1, 1.0, ()),
        ("riesz-like", np.diag([0.9, -0.9]), 0.0, 0.5, empty, 1.0, ()),
        ("jump-only", None, np.array([0.8]), 0.2, atom1, 1.0, ()),
        ("drifted", rot, np.array([0.5, -0.5]), 0.3, atom2, 0.5, (0.4, -0.2)),
        ("mixed", sym, np.array([-0.7]), 0.35, atom1, 1.0, ()),
    ]


def check_projection(paths=10000, seed=20246) -> CheckResult:
    """Monte Carlo pairing values against the finite-horizon spectral formula."""
    f, g, fixtures = _projection_fixtures(seed)
    worst_z = 0.0
    for fi, (name, amat, psi, c, jumps, horizon, drift) in enumerate(fixtures):
        spec = GroupProcessSpec(T2, c, jumps, horizon, PROJECTION_DT, seed=seed + 137 * fi, drift=drift)
        est = projection_mc_estimate(f, g, amat, psi, spec, paths)
        worst_z = max(worst_z, abs(est.mc_value - est.deterministic) / est.stderr)
    return CheckResult(
        "projection",
        worst_z <= SIGMAS,
        {"max_z": worst_z, "fixtures": len(fixtures), "paths": paths},
    )


def _central_spec(seed) -> GroupProcessSpec:
    """Criterion 10's central SU(2) process: diffusion and jumps by -I."""
    return GroupProcessSpec(SU2, 0.4, GroupLevyMeasure(SU2, ((-np.eye(2), 0.8),)), 0.75, 1 / 500, seed=seed)


def check_central_char(paths=10000, seed=20247) -> CheckResult:
    """Empirical transform of a central SU(2) process against both oracles."""
    spec = _central_spec(seed)
    pis = [get_irrep(SU2, j) for j in (0.5, 1.0, 1.5)]
    reports = central_char_report(spec, pis, paths)
    worst_sig = max(max(r.max_sigmas("scalar"), r.max_sigmas("matrix")) for r in reports)
    worst_oracle = max(float(np.max(np.abs(r.scalar_oracle - r.matrix_oracle))) for r in reports)
    passed = worst_sig <= SIGMAS and worst_oracle <= ORACLE_TOL and all(r.is_central for r in reports)
    return CheckResult(
        "central-levy-khintchine",
        passed,
        {"max_sigmas": worst_sig, "oracle_gap": worst_oracle, "paths": paths},
    )


def _z_score(vals: np.ndarray, expect) -> float:
    """|mean - expect| in standard errors of the mean."""
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    return abs(float(np.mean(vals)) - expect) / se


def check_subordination(paths=10000, seed=20248) -> CheckResult:
    """Subordinator law against its Laplace exponent; symbol cross-checks."""
    density = PositiveDensity(
        profile=lambda y: y**-1.5 / (2.0 * np.sqrt(np.pi)), inner=1e-4, outer=1e3, nodes=24
    )
    h_disc = bernstein_atoms(BernsteinSpec(c=0.05, density=density))
    ens = simulate_subordinator(h_disc, horizon=1.0, dt=0.25, seed=seed, paths=paths)
    # the law at u = 1, 2, 4; u = k^2 is also the subordinated heat semigroup on
    # T^1 (the average of e^{-s kappa} over the law) at kappa = k^2 for k = 1, 2
    us = [1.0, 2.0, 4.0]
    zs = [_z_score(np.exp(-u * ens.values[:, -1]), np.exp(-float(bernstein_eval(h_disc, u)))) for u in us]
    # closed-form Poisson case
    h1 = BernsteinSpec(c=0.0, atoms=((1.0, 1.0),))
    ens1 = simulate_subordinator(h1, 1.0, 0.5, seed + 1, paths)
    zs.append(_z_score(np.exp(-ens1.values[:, -1]), np.exp(-(1.0 - np.exp(-1.0)))))
    worst_z = max(zs)
    # symbol cross-check: subordination symbol == central multiplier at alpha = -h(kappa)
    worst_sym = 0.0
    hb = BernsteinSpec(c=0.1, atoms=((0.8, 2.0), (2.5, 0.4)))
    tau = su2_exp([0.6, 0.3, 1.1])
    cases = [
        (T1, GroupLevyMeasure(T1, ((np.array([1.3]), 1.0),)), get_irrep(T1, 2), np.array([0.7])),
        (
            SU2,
            GroupLevyMeasure(SU2, ((tau, 0.9),)),
            get_irrep(SU2, 1.0),
            np.array([-0.6]),
        ),
    ]
    for _, nu, pi, psi in cases:
        direct, _ = subordination_symbols(psi, hb, nu, [pi])
        via_central, _, _ = central_symbols(None, psi, 0.0, nu, [pi], -bernstein_eval(hb, np.array([pi.casimir])))
        worst_sym = max(worst_sym, float(np.max(np.abs(direct - via_central))))
    passed = worst_z <= SIGMAS and worst_sym <= SYMBOL_TOL
    return CheckResult(
        "subordination",
        passed,
        {"max_z": worst_z, "symbol_gap": worst_sym, "paths": paths, "atoms": len(h_disc.atoms)},
    )


def check_constants(seed=20249) -> CheckResult:
    """Closed-form constants and the interval sandwich."""
    values = {p: burkholder_constant(p) for p in (1.5, 2.0, 3.0, 4.0)}
    expect = {1.5: 2.0, 2.0: 1.0, 3.0: 2.0, 4.0: 3.0}
    exact_ok = all(values[p] == expect[p] for p in values)
    sym = cpbB_bounds(3.0, -1.0, 1.0)
    collapse_ok = sym.lower == sym.upper == sym.exact == 2.0
    gen = rngmod.stream(seed, rngmod.SPEC_DRAW)
    sandwich_ok = True
    duality_worst = 0.0
    for _ in range(CONSTANTS_DRAWS):
        p = float(gen.uniform(1.01, 8.0))
        b = float(gen.uniform(-3.0, 2.0))
        bb = float(gen.uniform(b + 1e-6, 3.0))
        bounds = cpbB_bounds(p, b, bb)
        sandwich_ok = sandwich_ok and bounds.lower <= bounds.upper + CONSTANTS_TOL
        duality_worst = max(
            duality_worst, abs(burkholder_constant(p) - burkholder_constant(p / (p - 1.0)))
        )
    passed = exact_ok and collapse_ok and sandwich_ok and duality_worst <= CONSTANTS_TOL
    return CheckResult(
        "constants",
        passed,
        {
            "burkholder_ok": exact_ok,
            "symmetric_collapse_ok": collapse_ok,
            "sandwich_ok": sandwich_ok,
            "duality_err": duality_worst,
        },
    )


ALL_CHECKS = {
    "multiplier-bound": check_multiplier_bound,
    "riesz2-equivalence": check_riesz_equivalence,
    "norm-search": check_norm_search,
    "plancherel": check_plancherel,
    "casimir": check_casimir,
    "imaginary-power": check_imaginary_power,
    "differential-subordination": check_differential_subordination_sweep,
    "burkholder": check_burkholder,
    "projection": check_projection,
    "central": check_central_char,
    "subordination": check_subordination,
    "constants": check_constants,
}


def run_checks(names=None, overrides=None) -> list:
    """Run the named checks (all by default) with keyword overrides.

    Each override goes to the checks that take it as a parameter; each
    result records the seed its check actually ran with.
    """
    names = list(ALL_CHECKS) if not names else list(names)
    overrides = overrides or {}
    out = []
    for name in names:
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown check {name!r}")
        fn = ALL_CHECKS[name]
        params = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in overrides.items() if k in params}
        result = fn(**kwargs)
        if "seed" in params:
            result.seed = kwargs.get("seed", params["seed"].default)
        out.append(result)
    return out
