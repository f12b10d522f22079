import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levymult.constants import (
    burkholder_constant,
    choi_constant_approx,
    constant_report,
    cpbB_bounds,
)


@pytest.mark.parametrize("p,expected", [(1.5, 2.0), (2.0, 1.0), (3.0, 2.0), (4.0, 3.0)])
def test_burkholder_values(p, expected):
    assert burkholder_constant(p) == expected


def test_p_out_of_range():
    for p in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            burkholder_constant(p)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1.01, max_value=50.0))
def test_duality_symmetry(p):
    q = p / (p - 1.0)
    assert burkholder_constant(p) == pytest.approx(burkholder_constant(q), abs=1e-11)


def test_choi_terms_independent_arithmetic():
    # re-evaluate each displayed subexpression separately
    log_half = np.log((1.0 + np.exp(-2.0)) / 2.0)
    ratio = np.exp(-2.0) / (1.0 + np.exp(-2.0))
    alpha2 = log_half**2 + 0.5 * log_half - 2.0 * ratio**2
    approx = choi_constant_approx(2.0)
    assert approx.alpha2 == pytest.approx(alpha2, abs=1e-15)
    assert approx.leading == 1.0
    assert approx.log_term == pytest.approx(0.5 * log_half, abs=1e-15)
    assert approx.alpha2_term == pytest.approx(alpha2 / 2.0, abs=1e-15)
    assert approx.value == pytest.approx(1.0 + 0.5 * log_half + alpha2 / 2.0, abs=1e-15)
    assert approx.asymptotic


def test_choi_leading_term_dominates_for_large_p():
    p = 1e6
    assert choi_constant_approx(p).value / (p / 2.0) == pytest.approx(1.0, abs=1e-5)


def test_interval_bounds_symmetric_collapse():
    out = cpbB_bounds(3.0, -1.0, 1.0)
    assert out.lower == out.upper == out.exact == 2.0
    assert out.exact_kind == "symmetric"
    assert not out.open_value


def test_interval_bounds_one_sided_uses_choi():
    out = cpbB_bounds(3.0, 0.0, 1.0)
    assert out.exact == pytest.approx(choi_constant_approx(3.0).value)
    assert out.exact_kind == "choi-asymptotic"
    assert out.lower <= out.exact is not None
    assert out.lower == max(burkholder_constant(3.0) / 2.0, 1.0)
    assert out.upper == burkholder_constant(3.0)


def test_interval_bounds_general_case_is_open():
    out = cpbB_bounds(3.0, 1.0, 2.0)
    assert out.exact is None and out.open_value
    assert out.lower == pytest.approx(max(0.5 * 2.0, 2.0))
    assert out.upper == pytest.approx(2.0 * 2.0)


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        cpbB_bounds(2.0, 1.0, 1.0)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(min_value=1.01, max_value=12.0),
    st.floats(min_value=-4.0, max_value=3.0),
    st.floats(min_value=1e-4, max_value=5.0),
)
def test_sandwich_order(p, b, width):
    out = cpbB_bounds(p, b, b + width)
    assert out.lower <= out.upper + 1e-12
    assert np.isfinite(out.lower) and np.isfinite(out.upper)


def test_constant_report_shapes():
    rep = constant_report(3.0)
    assert rep.burkholder == 2.0 and rep.interval is None
    rep2 = constant_report(3.0, -1.0, 1.0)
    assert rep2.interval.exact == 2.0
    with pytest.raises(ValueError):
        constant_report(3.0, b=-1.0)
