"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import (
    mean,
    mean_ci95,
    proportion,
    sample_std,
    t_critical_95,
)

try:
    from scipy import stats as scipy_stats
except ImportError:  # CI installs only pytest+hypothesis
    scipy_stats = None

needs_scipy = pytest.mark.skipif(
    scipy_stats is None,
    reason="the dof-by-dof check needs scipy as the reference")

# scipy 1.17.1 ``stats.t.ppf(0.975, dof)``: the reference when scipy
# is absent (CI installs only pytest and hypothesis).
SCIPY_T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    4: 2.7764451051977934,
    5: 2.5705818356363146,
    9: 2.262157162798205,
    11: 2.200985160091639,
    12: 2.1788128296672284,
    30: 2.0422724563012378,
    60: 2.0002978220142604,
    120: 1.9799304050824402,
    1000: 1.9623390808264083,
    10**4: 1.960201239890626,
    10**6: 1.959966356814107,
}

FLOATS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2, max_size=50,
)


def test_mean_simple():
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_of_nothing_rejected():
    with pytest.raises(ValueError):
        mean([])


def test_sample_std_known_value():
    assert sample_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == \
        pytest.approx(2.138, abs=1e-3)


def test_sample_std_singleton_is_zero():
    assert sample_std([5.0]) == 0.0


def test_t_critical_matches_normal_for_large_dof():
    assert t_critical_95(10_000) == pytest.approx(1.96, abs=0.01)


def test_t_critical_small_dof():
    assert t_critical_95(1) == pytest.approx(12.706, abs=0.01)
    assert t_critical_95(9) == pytest.approx(2.262, abs=0.01)


def test_t_critical_rejects_nonpositive_dof():
    for dof in (0, -1):
        with pytest.raises(ValueError):
            t_critical_95(dof)


class TestFallbackTable:
    """The t quantile, exact on every host.

    The regression these tests grew from: a table fallback rounded
    dof=11 *up* to the dof=12 entry (2.179 < the true 2.201), silently
    narrowing every interval whose dof fell between table rows.
    """

    def test_matches_scipy_reference_values(self):
        for dof, exact in SCIPY_T_975.items():
            assert t_critical_95(dof) == pytest.approx(exact, rel=1e-9), \
                f"dof={dof}"

    def test_dof_11_regression(self):
        # Must be near the true 2.201, NOT the dof=12 value 2.179.
        value = t_critical_95(11)
        assert value == pytest.approx(2.201, abs=0.005)
        assert value > 2.179

    def test_monotone_decreasing_in_dof(self):
        # Also across dof 1000, where the solve hands over to the series.
        dofs = [*range(1, 501), *range(990, 1011)]
        values = [t_critical_95(dof) for dof in dofs]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_large_dof_approaches_normal(self):
        assert t_critical_95(100_000) == pytest.approx(1.96, abs=0.001)

    @needs_scipy
    def test_fallback_within_1pct_of_scipy_dof_1_to_200(self):
        # The bound the old table met; the exact quantile must too.
        for dof in range(1, 201):
            exact = float(scipy_stats.t.ppf(0.975, dof))
            assert t_critical_95(dof) == pytest.approx(exact, rel=0.01), \
                f"dof={dof}"

    @needs_scipy
    def test_fallback_errs_conservative_between_table_rows(self):
        # Wherever the quantile deviates it must widen, not narrow: no
        # dof where the old table interpolated may come out low.
        for dof in range(1, 201):
            exact = float(scipy_stats.t.ppf(0.975, dof))
            assert t_critical_95(dof) >= exact - 5e-4, f"dof={dof}"

    @needs_scipy
    def test_within_1e9_of_scipy_dof_1_to_300(self):
        for dof in range(1, 301):
            exact = float(scipy_stats.t.ppf(0.975, dof))
            assert t_critical_95(dof) == pytest.approx(exact, rel=1e-9), \
                f"dof={dof}"


class TestMeanCI:
    def test_empty_sample_is_none(self):
        assert mean_ci95([]) is None

    def test_singleton_has_zero_width(self):
        ci = mean_ci95([42.0])
        assert ci.mean == 42.0
        assert ci.half_width == 0.0
        assert ci.count == 1

    def test_known_interval(self):
        ci = mean_ci95([10.0, 12.0, 14.0, 16.0, 18.0])
        assert ci.mean == 14.0
        # s = sqrt(10), t(4) = 2.776 -> hw = 2.776*sqrt(10)/sqrt(5)
        assert ci.half_width == pytest.approx(
            2.776 * math.sqrt(10.0) / math.sqrt(5.0), rel=1e-3)
        assert ci.low == ci.mean - ci.half_width
        assert ci.high == ci.mean + ci.half_width

    @given(FLOATS)
    def test_interval_contains_mean(self, values):
        ci = mean_ci95(values)
        assert ci.low <= ci.mean <= ci.high

    @given(FLOATS)
    def test_constant_shift_moves_mean_not_width(self, values):
        base = mean_ci95(values)
        shifted = mean_ci95([v + 100.0 for v in values])
        assert shifted.mean == pytest.approx(base.mean + 100.0, abs=1e-6)
        assert shifted.half_width == pytest.approx(base.half_width, abs=1e-6)

    @given(st.lists(st.floats(min_value=0, max_value=1000,
                              allow_nan=False), min_size=2, max_size=30))
    def test_identical_values_zero_width(self, values):
        constant = [values[0]] * len(values)
        assert mean_ci95(constant).half_width == pytest.approx(0.0, abs=1e-9)


def test_proportion():
    assert proportion(1, 4) == 0.25
    assert proportion(0, 0) == 0.0
    assert proportion(5, 0) == 0.0
