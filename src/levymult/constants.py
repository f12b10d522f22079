"""Sharp constants for martingale-transform bounds.

burkholder_constant(p) = p* - 1 with p* = max(p, p/(p-1)) is the sharp
factor for transform coefficients in [-1, 1].  For coefficients in
[0, 1] the sharp factor is the Choi constant, known only through its
asymptotic expansion; for a general interval [b, B] only a sandwich is
known (the exact value is open outside the symmetric and one-sided
cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


def p_star(p: float) -> float:
    if not p > 1.0:
        raise ValueError("p must lie in (1, infinity)")
    return max(p, p / (p - 1.0))


def burkholder_constant(p: float) -> float:
    """Sharp constant p* - 1 for symmetric transform bounds."""
    return p_star(p) - 1.0


@dataclass(frozen=True)
class ChoiApprox:
    """Asymptotic three-term expansion of the Choi constant.

    value = p/2 + (1/2) log((1+e^{-2})/2) + alpha2/p, flagged asymptotic:
    the exact constant is characterised only implicitly.
    """

    value: float
    leading: float
    log_term: float
    alpha2_term: float
    alpha2: float
    asymptotic: bool = True


def choi_constant_approx(p: float) -> ChoiApprox:
    if not p > 1.0:
        raise ValueError("p must lie in (1, infinity)")
    log_half = np.log((1.0 + np.exp(-2.0)) / 2.0)
    alpha2 = log_half**2 + 0.5 * log_half - 2.0 * (np.exp(-2.0) / (1.0 + np.exp(-2.0))) ** 2
    leading = p / 2.0
    log_term = 0.5 * log_half
    alpha2_term = alpha2 / p
    return ChoiApprox(
        value=float(leading + log_term + alpha2_term),
        leading=float(leading),
        log_term=float(log_term),
        alpha2_term=float(alpha2_term),
        alpha2=float(alpha2),
    )


@dataclass(frozen=True)
class CpbBBounds:
    """Sandwich for the sharp constant over transforms with range [b, B].

    lower = max(((B-b)/2)(p*-1), max(|B|, |b|)),
    upper = max(B, |b|)(p*-1).
    ``exact`` is filled on the symmetric interval [-a, a] (= a(p*-1)) and,
    through the asymptotic Choi expansion, on [0, a]; otherwise the value
    is open and only the sandwich is reported.
    """

    b: float
    B: float
    lower: float
    upper: float
    exact: Optional[float]
    exact_kind: Optional[str]
    open_value: bool


def cpbB_bounds(p: float, b: float, B: float) -> CpbBBounds:
    if not b < B:
        raise ValueError("need b < B")
    star = burkholder_constant(p)
    lower = max(((B - b) / 2.0) * star, max(abs(B), abs(b)))
    upper = max(B, abs(b)) * star
    exact = None
    kind = None
    if b == -B and B > 0.0:
        exact = B * star
        kind = "symmetric"
    elif b == 0.0 and B > 0.0:
        exact = B * choi_constant_approx(p).value
        kind = "choi-asymptotic"
    return CpbBBounds(
        b=b,
        B=B,
        lower=float(lower),
        upper=float(upper),
        exact=exact,
        exact_kind=kind,
        open_value=exact is None or kind == "choi-asymptotic",
    )


@dataclass(frozen=True)
class ConstantReport:
    p: float
    p_star: float
    burkholder: float
    choi: ChoiApprox
    interval: Optional[CpbBBounds]


def constant_report(p: float, b: Optional[float] = None, B: Optional[float] = None) -> ConstantReport:
    interval = None
    if b is not None or B is not None:
        if b is None or B is None:
            raise ValueError("give both interval endpoints or neither")
        interval = cpbB_bounds(p, b, B)
    return ConstantReport(
        p=p,
        p_star=p_star(p),
        burkholder=burkholder_constant(p),
        choi=choi_constant_approx(p),
        interval=interval,
    )
