import math

import pytest
from hypothesis import given, strategies as st
from scipy import stats

from doublespend import MiningPowerSplit, poisson_pmf, poisson_rate


class TestPoissonRate:
    def test_worked_example_rate(self):
        assert poisson_rate(3, MiningPowerSplit(0.25)) == pytest.approx(1.0, abs=0)

    def test_zero_depth_gives_zero_rate(self):
        assert poisson_rate(0, MiningPowerSplit(0.4)) == 0.0

    def test_balanced_power(self):
        assert poisson_rate(6, MiningPowerSplit(0.5)) == 6.0

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            poisson_rate(-1, MiningPowerSplit(0.3))


class TestPoissonPmf:
    def test_worked_example_value(self):
        assert poisson_pmf(2, 1.0) == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)

    def test_empty_interval(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_normalization(self):
        total = math.fsum(poisson_pmf(k, 5.0) for k in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 5.0, 50.0])
    def test_partial_sums_reach_one(self, rate):
        k_top = int(rate + 40.0 * math.sqrt(rate) + 25)
        total = math.fsum(poisson_pmf(k, rate) for k in range(k_top + 1))
        assert total >= 1.0 - 1e-12

    @pytest.mark.parametrize(
        "rate", [0.01, 0.5, 1.0, 5.0, 50.0, 300.0, 699.0, 1000.0, 5000.0]
    )
    def test_matches_scipy(self, rate):
        ks = [0, 1, 2, 5, 17, int(rate), int(rate) + 30, int(2 * rate) + 50]
        for k in ks:
            mine = poisson_pmf(k, rate)
            ref = float(stats.poisson.pmf(k, rate))
            assert mine == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_extreme_k_and_rate_do_not_overflow(self):
        # k = rate = 10000: value ~ 1/sqrt(2*pi*10000) ~ 0.004
        value = poisson_pmf(10_000, 10_000.0)
        assert value == pytest.approx(float(stats.poisson.pmf(10_000, 10_000.0)), rel=1e-8)
        # far tail underflows toward zero instead of blowing up
        assert 0.0 <= poisson_pmf(10_000, 5.0) < 1e-300
        assert 0.0 <= poisson_pmf(3, 10_000.0) < 1e-300

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.5)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_a_rate_that_is_not_finite(self, rate):
        with pytest.raises(ValueError, match=r"rate must be finite and >= 0"):
            poisson_pmf(3, rate)

    @given(
        k=st.integers(min_value=0, max_value=400),
        rate=st.floats(min_value=0.0, max_value=750.0),
    )
    def test_always_a_probability(self, k, rate):
        assert 0.0 <= poisson_pmf(k, rate) <= 1.0
