"""Levy-process Fourier multipliers on R^n and compact groups.

The package evaluates the multiplier symbols produced by martingale
transforms of Levy processes (second-order Riesz transforms, imaginary
powers of the Laplacian, subordination and central-process symbols),
applies them spectrally, and verifies the underlying martingale
inequalities by Monte Carlo simulation of jump diffusions on T^1, T^2
and SU(2).
"""

from .constants import (
    ChoiApprox,
    ConstantReport,
    CpbBBounds,
    burkholder_constant,
    choi_constant_approx,
    constant_report,
    cpbB_bounds,
    p_star,
)
from .euclid import (
    ImaginaryPowerProfile,
    multiplier_autonomous_grid,
    multiplier_time_dependent,
    riesz2_symbol_rn,
)
from .gammafn import gamma
from .groups import (
    SU2,
    T1,
    T2,
    GroupLevyMeasure,
    GroupQuadrature,
    Irrep,
    PeterWeylCoeffs,
    casimir_eigenvalue,
    dual_enumerate,
    get_irrep,
    haar_sample,
    heat_coeffs,
    plancherel_pairing,
    pw_forward,
    pw_inverse,
    quadrature_grid,
    random_band_limited,
    su2_exp,
)
from .levy import (
    BernsteinSpec,
    LevyMeasureRn,
    LevyTriple,
    PositiveDensity,
    QuadratureError,
    RadialDensity,
    bernstein_atoms,
    bernstein_eval,
    factor_diffusion,
)
from .martingale import (
    CharReport,
    MartingaleTranscript,
    ProjectionEstimate,
    TransformEnsemble,
    central_char_report,
    check_differential_subordination,
    empirical_burkholder,
    empirical_char,
    ensemble_chunks,
    martingale_transcript,
    projection_deterministic,
    projection_mc_estimate,
    simulate_transform_ensemble,
    transform_context,
)
from .operators import (
    GridFunction,
    SearchResult,
    apply_symbol_grid,
    apply_symbol_coeffs,
    frequency_lattice,
    lp_norm,
    norm_lower_bound_search,
    plancherel_residual,
    symbol_on_lattice,
)
from .simulate import (
    GroupProcessSpec,
    PathRecord,
    SubordinatorEnsemble,
    ensemble_final_states,
    simulate_path,
    simulate_paths,
    simulate_subordinator,
)
from .symbols import (
    central_alpha,
    central_multiplier,
    central_symbols,
    generator_matrix,
    laplace_symbols,
    stack_rows,
    subordination_symbols,
    symbol_table,
)

__version__ = "0.1.0"
