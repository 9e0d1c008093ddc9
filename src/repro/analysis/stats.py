"""Statistics helpers: means and 95 % confidence intervals.

Figure 4 reports average response times "with corresponding 95%
confidence intervals (shown as error bars)"; these helpers compute the
same quantities with the exact two-sided Student-t critical value.

The t quantile is computed here from the standard library alone, so
importing :mod:`repro` loads no scientific stack and every host gets
the same interval: below 1000 degrees of freedom by bisection on the
exact tail probability (memoised per dof), from there up by an
asymptotic series that is exact to double precision.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

# The bisection bracket.  Every t quantile lies between the normal one
# (_Z, the dof -> infinity limit) and the dof = 1 (Cauchy) value
# tan(0.475 * pi) = 12.7062...
_Z = 1.9599639845400543
_T_CEILING = 13.0
_LOG_SQRT_PI = 0.5 * math.log(math.pi)  # lgamma(1/2)
_TINY = 1e-300
# From this many degrees of freedom up, the Cornish-Fisher expansion in
# 1/dof through dof^-4 is exact to double precision (truncation below
# 4e-16 relative), while the tail's continued fraction loses digits to
# cancellation at x = dof / (dof + t^2) -> 1 (about 1e-16 * dof).
_SERIES_DOF = 1000
_SERIES = (
    (_Z ** 3 + _Z) / 4,
    (5 * _Z ** 5 + 16 * _Z ** 3 + 3 * _Z) / 96,
    (3 * _Z ** 7 + 19 * _Z ** 5 + 17 * _Z ** 3 - 15 * _Z) / 384,
    (79 * _Z ** 9 + 776 * _Z ** 7 + 1482 * _Z ** 5 - 1920 * _Z ** 3
     - 945 * _Z) / 92160,
)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function
    I_x(a, b), evaluated by the modified Lentz method."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    m = 0
    while True:
        m += 1
        m2 = 2 * m
        for numerator in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                          -(a + m) * (a + b + m) * x
                          / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h


def _t_tail(t: float, dof: int) -> float:
    """Two-sided tail P(|T| > t) of Student's t: the regularized
    incomplete beta I_x(dof/2, 1/2) at x = dof / (dof + t^2)."""
    a = 0.5 * dof
    square = t * t
    x = dof / (dof + square)
    y = square / (dof + square)  # 1 - x without the cancellation
    log_front = (math.lgamma(a + 0.5) - math.lgamma(a) - _LOG_SQRT_PI
                 - a * math.log1p(square / dof) + 0.5 * math.log(y))
    # The fraction converges fast only below the beta distribution's
    # mean; above it, use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + 2.5):
        return math.exp(log_front) * _beta_fraction(a, 0.5, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(0.5, a, y) * 2.0


@functools.cache
def _solve_t_975(dof: int) -> float:
    """Solve _t_tail(t, dof) = 0.05 by bisection down to adjacent
    floats (the tail falls as t grows)."""
    low, high = _Z, _T_CEILING
    while True:
        mid = 0.5 * (low + high)
        if mid <= low or mid >= high:
            return mid
        if _t_tail(mid, dof) > 0.05:
            low = mid
        else:
            high = mid


def t_critical_95(dof: int) -> float:
    """Two-sided 95 % Student-t critical value (the 0.975 quantile),
    exact to ~1e-13 relative for every dof >= 1."""
    if dof < 1:
        raise ValueError("need at least two samples for an interval")
    if dof < _SERIES_DOF:
        return _solve_t_975(dof)
    inverse = 1.0 / dof
    g1, g2, g3, g4 = _SERIES
    return _Z + inverse * (g1 + inverse * (g2 + inverse * (g3 + inverse * g4)))


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation."""
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((v - center) ** 2 for v in values) /
                     (len(values) - 1))


class MeanCI:
    """A sample mean with its 95 % confidence half-width."""

    __slots__ = ("mean", "half_width", "count")

    def __init__(self, mean_value: float, half_width: float, count: int):
        self.mean = mean_value
        self.half_width = half_width
        self.count = count

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __repr__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f} (n={self.count})"


def mean_ci95(values: Sequence[float]) -> Optional[MeanCI]:
    """Mean with 95 % CI, or None for an empty sample.

    A single observation yields a zero-width interval (the paper plots
    singletons without error bars).
    """
    if not values:
        return None
    if len(values) == 1:
        return MeanCI(values[0], 0.0, 1)
    center = mean(values)
    spread = sample_std(values)
    half = t_critical_95(len(values) - 1) * spread / math.sqrt(len(values))
    return MeanCI(center, half, len(values))


def proportion(numerator: int, denominator: int) -> float:
    """A percentage-safe ratio (0.0 when the denominator is zero)."""
    if denominator == 0:
        return 0.0
    return numerator / denominator
