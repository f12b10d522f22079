"""Acceptance suite: every contractual guarantee at its stated size and tolerance.

Every check runs at its defaults: its sizes and seed are the defaults of
its parameters, its grids and tolerances constants of ``levymult.verify``.
Each test prints one [PASS]/[FAIL] line with the measured numbers, so the
whole gate can be audited from the pytest -s output (the command-line
``verify`` subcommand runs the same checks).
"""

import pytest

from levymult import verify


def _report(result):
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_multiplier_boundedness():
    # 1000 random pairs with |A| v |psi| <= 1, random characteristics,
    # 64^2 frequency lattice: max |m| <= 1 + 1e-9
    r = _report(verify.check_multiplier_bound())
    assert r.details["max_abs"] <= 1.0 + 1e-9
    assert r.details["specs"] == 1000 and r.details["grid"] == 64


def test_criterion_02_riesz_grid_vs_coefficient_routes():
    # the two evaluation routes agree to 1e-10 relative on T^2 trigonometric
    # polynomials, and the difference symbol is (k1^2-k2^2)/(k1^2+k2^2)
    r = _report(verify.check_riesz_equivalence())
    assert r.details["max_rel_err"] <= 1e-10
    assert r.details["lattice_err"] <= 1e-10
    assert r.details["grid"] == 64


def test_criterion_03_norm_search_never_exceeds_sharp_constants():
    # 200 random pairs, 40 interval pairs and 12 central T^2 symbols at
    # p in {1.5, 2, 3, 4}: lower bounds <= (p*-1) + 3e-2; at p=2 <= lattice
    # sup + 1e-9; symmetric interval pairs <= the sandwich upper bound
    r = _report(verify.check_norm_search())
    assert r.details["max_over_pstar"] <= 3e-2
    assert r.details["max_over_lattice_p2"] <= 1e-9
    assert r.details["max_over_interval_bound"] <= 1e-9
    assert r.details["specs"] == 252


def test_criterion_04_plancherel_residual():
    # 100 random band-limited pairs per group, residual <= 1e-6 relative
    r = _report(verify.check_plancherel())
    assert r.details["max_rel_residual"] <= 1e-6
    assert r.details["pairs"] == 100


def test_criterion_05_casimir_scalarity():
    # tori to cutoff 16, SU(2) to spin 8, scalarity within 1e-10;
    # the fundamental eigenvalue is 3/4 by direct matrix arithmetic
    r = _report(verify.check_casimir())
    assert r.details["max_eigen_err"] <= 1e-10
    assert r.details["fundamental"] == pytest.approx(0.75, abs=1e-12)


def test_criterion_06_imaginary_power_symbol():
    # quadrature against kappa^{-i gamma} for kappa in {1,4,9}, gamma in
    # {0.5, 1}, within 1e-6; the (p*-1)/|Gamma(1-i gamma)| prefactor is
    # reproduced to 1e-10 through the committed Gamma evaluation
    r = _report(verify.check_imaginary_power())
    assert r.details["max_symbol_err"] <= 1e-6
    assert r.details["max_prefactor_err"] <= 1e-10


def test_criterion_07_pathwise_differential_subordination():
    # >= 10^4 transcripts with random bounded pairs: increment violations
    # <= 1e-12, including the non-symmetric interval form
    r = _report(verify.check_differential_subordination_sweep())
    assert r.details["transcripts"] >= 10000
    assert r.details["max_violation"] <= 1e-12
    assert r.details["max_interval_violation"] <= 1e-12


def test_criterion_08_empirical_burkholder():
    # p in {1.5, 2, 3}, horizons {0.5, 1, 2}, 10^4 paths:
    # ratio <= (p*-1)(1 + 3 se/ratio); at p=2 also ratio <= 1 + 3 se
    r = _report(verify.check_burkholder())
    assert r.details["cases"] == 9
    assert r.details["min_margin"] > 0.0
    assert r.details["paths"] == 10000


def test_criterion_09_projection_consistency():
    # 5 fixtures on T^2 including the identity pair, 10^4 paths each:
    # |MC - spectral| <= 3 stderr
    r = _report(verify.check_projection())
    assert r.details["fixtures"] == 5
    assert r.details["max_z"] <= 3.0
    assert r.details["paths"] == 10000


def test_criterion_10_central_levy_khintchine():
    # SU(2) with a conjugation-closed atom set: empirical transform within
    # 3 stderr of both e^{t alpha} I and e^{t L(pi)}; oracles agree to 1e-8
    r = _report(verify.check_central_char())
    assert r.details["max_sigmas"] <= 3.0
    assert r.details["oracle_gap"] <= 1e-8
    assert r.details["paths"] == 10000


def test_criterion_11_subordination():
    # simulated subordinator Laplace transform within 3 stderr of the
    # discretised exponent; subordination symbol agrees with the central
    # multiplier special case to 1e-10
    r = _report(verify.check_subordination())
    assert r.details["max_z"] <= 3.0
    assert r.details["symbol_gap"] <= 1e-10
    assert r.details["paths"] == 10000


def test_criterion_12_constants():
    # burkholder values {2,1,2,3}; exact symmetric-interval collapse;
    # sandwich order on 10^4 random triples; p* - 1 is symmetric under
    # p -> p/(p-1) to 1e-12
    r = _report(verify.check_constants())
    assert r.details["burkholder_ok"] and r.details["symmetric_collapse_ok"]
    assert r.details["sandwich_ok"]
    assert r.details["duality_err"] <= 1e-12
