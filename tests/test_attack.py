import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import doublespend.model as model_module
from doublespend import (
    AttackQuery,
    MiningPowerSplit,
    ProbabilityRangeError,
    Variant,
    attack_success,
    attack_summands,
    min_confirmations,
)
from oracles import attack_success_naive

# Success probabilities published in the Bitcoin whitepaper (section 11) for
# the catch-up formulation; an external anchor for the original variant.
WHITEPAPER_TABLE = {
    (0.1, 0): 1.0,
    (0.1, 1): 0.2045873,
    (0.1, 2): 0.0509779,
    (0.1, 3): 0.0131722,
    (0.1, 4): 0.0034552,
    (0.1, 5): 0.0009137,
    (0.1, 10): 0.0000012,
    (0.3, 5): 0.1773523,
    (0.3, 10): 0.0416605,
    (0.3, 20): 0.0024804,
    (0.3, 50): 0.0000006,
}


def success(q, z, variant, surplus=35):
    return attack_success(AttackQuery(MiningPowerSplit(q), z, variant, surplus))


def chernoff_rate(q):
    """c = r - 1 - ln r with r = q/p: P(z) >= 1 - exp(-z c) when q > p."""
    r = q / (1.0 - q)
    return r - 1.0 - math.log(r)


class TestSummands:
    def test_worked_example_term_by_term(self):
        rows = attack_summands(AttackQuery(MiningPowerSplit(0.25), 3, Variant.ORIGINAL))
        assert [row.k for row in rows] == [0, 1, 2, 3]
        k2 = rows[2]
        assert k2.pmf == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)
        assert k2.catch_up == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert k2.product == pytest.approx(1.0 / (6.0 * math.e), abs=1e-12)
        # the final term has deficit zero, hence certain catch-up
        assert rows[3].catch_up == 1.0

    def test_corrected_runs_one_term_further(self):
        query = AttackQuery(MiningPowerSplit(0.25), 3, Variant.CORRECTED)
        assert [row.k for row in attack_summands(query)] == [0, 1, 2, 3, 4]

    def test_summands_recompose_the_success_probability(self):
        for variant in Variant:
            query = AttackQuery(MiningPowerSplit(0.2), 4, variant)
            rows = attack_summands(query)
            missed = math.fsum(r.pmf * (1.0 - r.catch_up) for r in rows)
            assert attack_success(query) == pytest.approx(1.0 - missed, abs=1e-13)


class TestAttackSuccess:
    def test_original_at_zero_depth_is_certain(self):
        assert success(0.3, 0, Variant.ORIGINAL) == 1.0

    def test_corrected_at_zero_depth_is_single_catch_up(self):
        assert success(0.3, 0, Variant.CORRECTED) == pytest.approx(3.0 / 7.0, abs=1e-15)

    @pytest.mark.parametrize("q", [0.5, 0.55, 0.7])
    @pytest.mark.parametrize("z", [0, 1, 5, 20])
    def test_majority_attacker_always_wins_exactly(self, q, z):
        # not special-cased: every (1 - catch_up) term vanishes analytically
        assert success(q, z, Variant.ORIGINAL) == 1.0
        assert success(q, z, Variant.CORRECTED) == 1.0

    def test_budgeted_majority_attacker_can_still_go_bankrupt(self):
        value = success(0.55, 3, Variant.BUDGETED)
        assert 0.9 < value < 1.0

    @pytest.mark.parametrize(("q", "z"), sorted(WHITEPAPER_TABLE))
    def test_reproduces_whitepaper_table(self, q, z):
        assert success(q, z, Variant.ORIGINAL) == pytest.approx(
            WHITEPAPER_TABLE[(q, z)], abs=5e-8
        )

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("q", [0.1, 0.25, 0.4, 0.55])
    @pytest.mark.parametrize("z", [0, 1, 3, 7])
    def test_matches_naive_rearranged_sum(self, variant, q, z):
        assert success(q, z, variant) == pytest.approx(
            attack_success_naive(q, z, variant.value), abs=1e-12
        )

    @pytest.mark.parametrize("variant", list(Variant))
    def test_monotone_in_depth_and_power(self, variant):
        qs = [0.05 * i for i in range(1, 10)]
        for q in qs:
            values = [success(q, z, variant) for z in range(31)]
            assert all(a >= b for a, b in zip(values, values[1:])), (variant, q)
        for z in (0, 1, 5, 15, 30):
            values = [success(q, z, variant) for q in qs]
            assert all(a <= b for a, b in zip(values, values[1:])), (variant, z)

    def test_correction_never_exceeds_original(self):
        for q in [0.05 * i for i in range(1, 10)]:
            for z in range(31):
                assert success(q, z, Variant.CORRECTED) <= success(
                    q, z, Variant.ORIGINAL
                )

    def test_budget_bounded_by_corrected_and_monotone_in_surplus(self):
        for q in (0.1, 0.3, 0.45):
            for z in (0, 2, 6):
                corrected = success(q, z, Variant.CORRECTED)
                values = [
                    success(q, z, Variant.BUDGETED, surplus)
                    for surplus in (1, 2, 5, 15, 35, 100)
                ]
                assert all(a <= b for a, b in zip(values, values[1:]))
                assert values[-1] <= corrected + 1e-9

    def test_minimal_budget_edge_case(self):
        # surplus = 1 exercises the deficit-zero final term
        value = success(0.3, 2, Variant.BUDGETED, 1)
        assert 0.0 < value < success(0.3, 2, Variant.CORRECTED)

    def test_tiny_probabilities_keep_relative_accuracy(self):
        tiny = success(0.05, 30, Variant.CORRECTED)
        assert 1e-30 < tiny < 1e-25
        assert tiny == pytest.approx((0.05 / 0.95) ** 31, rel=0.5)

    def test_rejects_invalid_queries(self):
        with pytest.raises(ValueError):
            AttackQuery(MiningPowerSplit(0.3), -1)
        with pytest.raises(ValueError):
            AttackQuery(MiningPowerSplit(0.3), 3, Variant.BUDGETED, 0)
        with pytest.raises(ValueError):
            MiningPowerSplit(1.5)

    @pytest.mark.parametrize("raw", [-2e-9, 1.0 + 2e-9], ids=["below", "above"])
    def test_results_past_the_guard_band_raise(self, raw):
        with pytest.raises(ProbabilityRangeError) as excinfo:
            model_module._as_probability(raw)
        assert str(excinfo.value) == f"probability out of guard band: {raw!r}"

    def test_results_inside_the_guard_band_are_clipped(self):
        assert model_module._as_probability(-model_module.GUARD_BAND) == 0.0
        assert model_module._as_probability(1.0 + model_module.GUARD_BAND) == 1.0

    @settings(max_examples=60)
    @given(
        q=st.floats(min_value=0.01, max_value=0.99),
        z=st.integers(min_value=0, max_value=120),
        variant=st.sampled_from(list(Variant)),
    )
    def test_result_is_always_a_probability(self, q, z, variant):
        assert 0.0 <= success(q, z, variant) <= 1.0


class TestMinConfirmations:
    def test_majority_attacker_has_no_finite_answer(self):
        assert min_confirmations(MiningPowerSplit(0.55), 0.01) is None
        assert min_confirmations(MiningPowerSplit(0.5), 0.1) is None

    def test_weak_attacker_needs_no_confirmations_for_loose_target(self):
        assert min_confirmations(MiningPowerSplit(0.01), 0.5) == 0

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("target", [0.001, 0.01, 0.1])
    def test_consistency_with_naive_re_evaluation(self, q, target):
        z = min_confirmations(MiningPowerSplit(q), target)
        assert z is not None
        assert attack_success_naive(q, z, "corrected") <= target
        if z > 0:
            assert attack_success_naive(q, z - 1, "corrected") > target

    def test_search_cap_returns_none(self, monkeypatch):
        monkeypatch.setattr(model_module, "DEFAULT_SEARCH_CAP", 3)
        assert min_confirmations(MiningPowerSplit(0.45), 1e-6) is None

    def test_rejects_bad_targets(self):
        for target in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                min_confirmations(MiningPowerSplit(0.3), target)

    # (0.6, 0.1) is answered by the 1/2 floor, (0.502, 0.5) by the 1 - 1/e
    # floor and (0.3, 0.5) by the scan; a zero surplus is rejected before each.
    @pytest.mark.parametrize(("q", "target"), [(0.6, 0.1), (0.502, 0.5), (0.3, 0.5)])
    def test_rejects_a_budgeted_zero_surplus_before_any_rule_answers(self, q, target):
        with pytest.raises(ValueError) as excinfo:
            min_confirmations(MiningPowerSplit(q), target, Variant.BUDGETED, 0)
        assert str(excinfo.value) == "budget_surplus must be >= 1"

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.floats(min_value=0.5, max_value=0.99),
        z=st.integers(min_value=0, max_value=150),
        surplus=st.integers(min_value=1, max_value=2_000),
    )
    def test_budgeted_majority_bounds_that_stop_the_search(self, q, z, surplus):
        # The 1/2 floor for q >= p, 1 - 1/e past z = 0, and the Chernoff bound for q > p.
        p = success(q, z, Variant.BUDGETED, surplus)
        assert p >= (1.0 - 1.0 / math.e if z else 0.5) - 1e-12
        if q > 0.5:
            assert p >= 1.0 - math.exp(-z * chernoff_rate(q)) - 1e-12

    def test_the_half_floor_is_reached(self):
        # P = 1/2 exactly at (q=0.5, surplus 1, z=0), so a target of 1/2 scans.
        assert success(0.5, 0, Variant.BUDGETED, 1) == 0.5
        assert min_confirmations(MiningPowerSplit(0.5), 0.5, Variant.BUDGETED, 1) == 0
        # The 1 - 1/e stop comes only after z = 0 is evaluated.
        power = MiningPowerSplit(0.5000000001)
        assert min_confirmations(power, 0.5, Variant.BUDGETED, 1) == 0

    def test_near_fair_floor_holds_at_every_searched_depth(self):
        # With q >= p, P(z) >= 1/2 + P(Poisson(z) > z)/2 at z >= 1 (k > z wins
        # outright, the rest win at least half the time, and the rate zq/p is at
        # least z).  Its least value over the search, 1 - 1/e at z = 1, is the
        # floor that ends a near-fair search after z = 0.
        z = np.arange(1, model_module.DEFAULT_SEARCH_CAP + 1)
        floor = 0.5 + stats.poisson.sf(z, z) / 2
        assert floor[0] == pytest.approx(1.0 - 1.0 / math.e, abs=1e-15)
        assert np.all(np.diff(floor) >= 0.0)  # so z = 1 gives the least value

    @pytest.mark.parametrize("q", [0.6, 0.7, 0.9])
    @pytest.mark.parametrize("surplus", [1, 35, 1000])
    def test_stopped_search_equals_a_longer_scan(self, monkeypatch, q, surplus):
        c = chernoff_rate(q)
        depths = []

        def logged(query):
            depths.append(query.z)
            return attack_success(query)

        monkeypatch.setattr(model_module, "attack_success", logged)
        for target in (0.1, 0.5, 0.9, 0.999):
            stop = next(
                z for z in itertools.count()
                if 1.0 - math.exp(-z * c) > target + model_module.GUARD_BAND
            )
            scan = next(
                (z for z in range(3 * stop + 3)
                 if success(q, z, Variant.BUDGETED, surplus) <= target),
                None,
            )
            depths.clear()
            power = MiningPowerSplit(q)
            assert min_confirmations(power, target, Variant.BUDGETED, surplus) == scan
            # Below 1/2 nothing is evaluated and below 1 - 1/e only z = 0;
            # otherwise z = 0.. up to the answer or, when there is none, the stop.
            last = (
                -1 if target < 0.5
                else 0 if target < 1.0 - 1.0 / math.e
                else stop - 1 if scan is None else scan
            )
            assert depths == list(range(last + 1))
