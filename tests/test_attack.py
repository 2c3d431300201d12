import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

import doublespend.model as model_module
from doublespend import (
    AttackQuery,
    MiningPowerSplit,
    ProbabilityRangeError,
    RuinGameSpec,
    Variant,
    attack_success,
    attack_summands,
    catch_up_limited,
    catch_up_unlimited,
    min_confirmations,
    poisson_rate,
    ruin_win_probability,
)
from oracles import (
    attack_success_closed_form, attack_success_images, attack_success_mp, attack_success_naive,
    budgeted_race_law, exact_race_closed_form,
)

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


def success_from_rows(query):
    """attack_success as a sum over attack_summands' rows, term by term.

    The two-series rule in full: the missed sum first, 1 - missed below 1/2,
    else the success terms plus the Poisson tail.
    """
    rows = attack_summands(query)
    missed = math.fsum(row.pmf * (1.0 - row.catch_up) for row in rows)
    if missed < 0.5:
        return model_module._as_probability(1.0 - missed)
    rate = poisson_rate(query.z, query.power)
    k_top = rows[-1].k
    anchor = rows[-1].pmf * rate / (k_top + 1)
    tail = model_module._poisson_upper_tail(rate, k_top + 1, anchor)
    return model_module._as_probability(math.fsum(row.product for row in rows) + tail)


# q and z that reach every branch of the sum: a rate past the pmf's log-space
# switch (z = 1000 at q >= 0.45), exponents past _POW_DIRECT_MAX, P below and
# above 1/2, |p - q| either side of _ruin's near-fair switch at 1e-3 (down to
# 8e-13, far inside it), and q > p.
PLAIN_FLOAT_QS = [0.1, 0.3, 0.45, 0.5 - 4e-13, 0.5 - 6e-13, 0.55]
PLAIN_FLOAT_ZS = [0, 1, 10, 70, 1000]


class TestPlainFloatTerms:
    def test_grid_reaches_every_branch(self):
        rates = [poisson_rate(z, MiningPowerSplit(q)) for q in PLAIN_FLOAT_QS
                 for z in PLAIN_FLOAT_ZS]
        assert max(rates) > model_module._PMF_LOGSPACE_RATE
        assert max(PLAIN_FLOAT_ZS) > model_module._POW_DIRECT_MAX
        gaps = {abs((1.0 - q) - q) for q in PLAIN_FLOAT_QS}
        assert any(0 < gap <= 1e-12 for gap in gaps)
        assert {gap < 1e-3 for gap in gaps} == {True, False}
        values = [success(q, z, Variant.CORRECTED) for q in PLAIN_FLOAT_QS
                  for z in PLAIN_FLOAT_ZS]
        assert min(values) < 0.5 <= max(values)

    @pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
    @pytest.mark.parametrize("surplus", [1, 35])
    @pytest.mark.parametrize("q", PLAIN_FLOAT_QS)
    def test_success_is_the_row_sum_bit_for_bit(self, q, surplus, variant):
        power = MiningPowerSplit(q)
        for z in PLAIN_FLOAT_ZS:
            query = AttackQuery(power, z, variant, surplus)
            assert attack_success(query) == success_from_rows(query), z
            # Each row's catch-up is the public catch-up function's, which for
            # the budgeted variant is the Gambler's Ruin game it names.
            rows = attack_summands(query)
            assert [row.pmf for row in rows] == model_module._poisson_terms(
                poisson_rate(z, power), rows[-1].k
            )
            for row in rows[:-1]:
                deficit = rows[-1].k - row.k
                if variant is Variant.BUDGETED:
                    budget = z + surplus - row.k
                    assert row.catch_up == catch_up_limited(deficit, budget, power)
                else:
                    assert row.catch_up == catch_up_unlimited(deficit, power)
            assert rows[-1].catch_up == 1.0

    # attack_success hands each list to fsum largest term first, while
    # success_from_rows sums the rows from k = 0 up.  fsum is correctly
    # rounded, so its result does not depend on the order of its terms; equal
    # bits here pin that, over all of (0, 1) and every variant.
    @settings(max_examples=100, deadline=None)
    @given(
        q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        z=st.integers(min_value=0, max_value=2000),
        variant=st.sampled_from(list(Variant)),
        surplus=st.sampled_from([1, 2, 35, 1000]),
    )
    def test_sum_order_keeps_the_bits(self, q, z, variant, surplus):
        query = AttackQuery(MiningPowerSplit(q), z, variant, surplus)
        assert attack_success(query) == success_from_rows(query)

    @pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
    def test_sum_order_keeps_the_bits_at_depth_100000(self, variant):
        # Rate 42,857 takes the log-space pmf, and the Poisson mode lies far
        # below K, so neither k = 0 upward nor downward puts the largest
        # terms first.
        query = AttackQuery(MiningPowerSplit(0.3), 100_000, variant)
        assert poisson_rate(query.z, query.power) > model_module._PMF_LOGSPACE_RATE
        assert attack_success(query) == success_from_rows(query)

    @pytest.mark.parametrize("q", PLAIN_FLOAT_QS)
    def test_catch_up_limited_is_the_ruin_game(self, q):
        power = MiningPowerSplit(q)
        for deficit in (0, 1, 2, 10, 70, 1000):
            for budget in (1, 2, 35, 70, 1000):
                game = RuinGameSpec(budget, budget + deficit, q)
                assert catch_up_limited(deficit, budget, power) == ruin_win_probability(
                    game
                ), (deficit, budget)


# (q, variant, surplus, z): P crosses 1/2 between z - 1 and z, found by a
# scan and checked in the test.  Across the grid the crossing depths' rates
# lie on both sides of the pmf's log-space switch at 700; at surplus 1 P
# first rises past 1/2 and then falls back below it.
HALF_CROSSINGS = [
    (0.45, Variant.ORIGINAL, 35, 24),
    (0.45, Variant.CORRECTED, 35, 18),
    (0.45, Variant.BUDGETED, 2, 10),
    (0.45, Variant.BUDGETED, 35, 18),
    (0.49, Variant.BUDGETED, 1, 1),
    (0.49, Variant.BUDGETED, 1, 262),
    (0.491, Variant.ORIGINAL, 35, 677),
    (0.491, Variant.CORRECTED, 35, 647),
    (0.491, Variant.BUDGETED, 35, 594),
    (0.4915, Variant.CORRECTED, 35, 727),
    (0.492, Variant.ORIGINAL, 35, 856),
    (0.492, Variant.BUDGETED, 35, 744),
    (0.4935, Variant.BUDGETED, 2, 689),
    (0.494, Variant.BUDGETED, 2, 808),
]
EVERY_SPLIT = [(Variant.ORIGINAL, 35), (Variant.CORRECTED, 35)] + [
    (Variant.BUDGETED, surplus) for surplus in (1, 2, 35)
]


def last_recurrence_depth(power):
    """The largest z whose rate z q / p the pmf's recurrence still takes."""
    z = int(model_module._PMF_LOGSPACE_RATE * power.p / power.q)
    while poisson_rate(z + 1, power) <= model_module._PMF_LOGSPACE_RATE:
        z += 1
    while poisson_rate(z, power) > model_module._PMF_LOGSPACE_RATE:
        z -= 1
    return z


class TestOneSeriesWhereTheBoundSettlesIt:
    """attack_success returns the positive form at once where it lies below
    1/2 - GUARD_BAND on the recurrence pmf; success_from_rows applies the
    two-series rule.  Equal bits show the early return picks the same float."""

    def test_grid_reaches_both_sides_of_the_rate_switch(self):
        rates = [poisson_rate(z, MiningPowerSplit(q)) for q, _, _, z in HALF_CROSSINGS]
        assert min(rates) < 20 and max(rates) > model_module._PMF_LOGSPACE_RATE
        assert any(
            model_module._PMF_LOGSPACE_RATE - 30 < rate <= model_module._PMF_LOGSPACE_RATE
            for rate in rates
        )

    @pytest.mark.parametrize(("q", "variant", "surplus", "z"), HALF_CROSSINGS)
    def test_bits_at_the_depths_where_success_crosses_one_half(self, q, variant, surplus, z):
        before, at = success(q, z - 1, variant, surplus), success(q, z, variant, surplus)
        assert (before < 0.5) != (at < 0.5)
        for depth in (z - 1, z, z + 1):
            query = AttackQuery(MiningPowerSplit(q), depth, variant, surplus)
            assert attack_success(query) == success_from_rows(query), depth

    # q > 1/2 never takes the early return (P >= 1/2), and at q = 0.9,
    # z >= 128 the log-space pmf(K) underflows: a positive form taken there
    # would read 0 where P is 1.
    @pytest.mark.parametrize("q", [0.3, 0.45, 0.4915, 0.55, 0.9])
    def test_bits_either_side_of_the_log_space_switch(self, q):
        power = MiningPowerSplit(q)
        z = last_recurrence_depth(power)
        depths = [z, z + 1] + ([128, 200] if q == 0.9 else [])
        for variant, surplus in EVERY_SPLIT:
            for depth in depths:
                query = AttackQuery(power, depth, variant, surplus)
                assert attack_success(query) == success_from_rows(query), (variant, depth)
        if q == 0.9:
            assert success(q, 128, Variant.CORRECTED) == 1.0

    # q from 0.1 up keeps the switch at z <= 6,300.
    @settings(max_examples=100, deadline=None)
    @given(
        q=st.floats(min_value=0.1, max_value=1.0, exclude_max=True),
        shift=st.integers(min_value=-2, max_value=2),
        split=st.sampled_from(EVERY_SPLIT),
    )
    def test_bits_at_the_log_space_switch(self, q, shift, split):
        power = MiningPowerSplit(q)
        query = AttackQuery(power, max(0, last_recurrence_depth(power) + shift), *split)
        assert attack_success(query) == success_from_rows(query)


# Every branch of the model: rate 700 either side (z = 1000 at q >= 0.45),
# powers past _POW_DIRECT_MAX (z = 70), P below and above 1/2, q > p, and
# |p - q| either side of _ruin's near-fair switch at 1e-3 (9.8e-4, 1.02e-3)
# and far inside it (1.2e-12, 8e-13, 9.8e-14), where i/n would be hundreds
# to thousands of units off the budgeted value at z = 0.
ORACLE_QS = [0.1, 0.3, 0.45] + [
    0.5 + sign * half_gap
    for half_gap in (5.1e-4, 4.9e-4, 6e-13, 4e-13, 4.9e-14)
    for sign in (-1, 1)
] + [0.55, 0.7]
ORACLE_SPLITS = [(Variant.ORIGINAL, 35), (Variant.CORRECTED, 35),
                 (Variant.BUDGETED, 1), (Variant.BUDGETED, 35)]


def oracle_depths(q):
    return [0, 1, 10, 70] + ([1000] if q >= 0.45 else [])


class TestFloatErrorBound:
    """attack_success within 512 (z + 1) units of 2**-53, relative, of a
    60-digit evaluation of the true law, fair only at p == q.  The largest
    seen in wider random sweeps, about 205 units at z = 0, lie just past
    |p - q| = 1e-3, where _ruin's powers still cancel; past z = 0 the worst
    seen is under 10 (z + 1)."""

    def test_grid_reaches_every_branch(self):
        rates = [poisson_rate(z, MiningPowerSplit(q)) for q in ORACLE_QS
                 for z in oracle_depths(q)]
        assert min(rates) == 0.0 and max(rates) > model_module._PMF_LOGSPACE_RATE
        gaps = {abs((1.0 - q) - q) for q in ORACLE_QS}
        assert any(0 < gap <= 1e-12 for gap in gaps)
        assert {gap < 1e-3 for gap in gaps} == {True, False}
        values = [success(q, z, Variant.CORRECTED) for q in ORACLE_QS
                  for z in oracle_depths(q)]
        assert min(values) < 0.5 <= max(values)

    @pytest.mark.parametrize("q", ORACLE_QS)
    def test_relative_error_within_the_bound(self, q):
        for z in oracle_depths(q):
            for variant, surplus in ORACLE_SPLITS:
                exact = attack_success_mp(q, z, variant.value, surplus)
                got = success(q, z, variant, surplus)
                assert abs(got - exact) <= 512 * (z + 1) * 2.0**-53 * exact, (
                    z, variant, surplus
                )


# Rates past _PMF_LOGSPACE_RATE, catch-up powers either side of
# _POW_DIRECT_MAX, and cells whose value underflows.
CLOSED_FORM_QS = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45,
                  0.48, 0.49, 0.499]
CLOSED_FORM_DEPTHS = [0, 1, 5, 24, 64, 65, 100, 1000, 3000]
CLOSED_FORM_VARIANTS = [Variant.CORRECTED, Variant.ORIGINAL]


class TestClosedForm:
    """The corrected and original attack_success within TestFloatErrorBound's
    512 (z + 1) units of 2**-53, relative, of two Poisson CDFs, which share
    none of its summation.  The worst cell seen, (1e-4, 65, original), used
    about 2% of that."""

    def test_grid_reaches_every_branch(self):
        cells = list(itertools.product(CLOSED_FORM_QS, CLOSED_FORM_DEPTHS))
        rates = [poisson_rate(z, MiningPowerSplit(q)) for q, z in cells]
        assert max(rates) > model_module._PMF_LOGSPACE_RATE
        assert min(CLOSED_FORM_DEPTHS) <= model_module._POW_DIRECT_MAX < max(CLOSED_FORM_DEPTHS)
        values = [success(q, z, variant) for q, z in cells for variant in CLOSED_FORM_VARIANTS]
        assert min(values) == 0.0 and max(values) >= 0.5

    @pytest.mark.parametrize("q", CLOSED_FORM_QS)
    def test_relative_error_within_the_bound(self, q):
        for z in CLOSED_FORM_DEPTHS:
            for variant in CLOSED_FORM_VARIANTS:
                exact = attack_success_closed_form(q, z, variant.value)
                got = success(q, z, variant)
                assert (got == 0.0) == (exact == 0.0), (z, variant)  # both underflow
                assert abs(got - exact) <= 512 * (z + 1) * 2.0**-53 * exact + 1e-300, (
                    z, variant
                )


# Rates past _PMF_LOGSPACE_RATE at z = 1000, ruin powers either side of
# _POW_DIRECT_MAX, and up to about 570 images near q = 1/2 at surplus 1.
IMAGE_QS = [0.1, 0.3, 0.4, 0.45, 0.49]
IMAGE_SURPLUSES = [1, 2, 35]


def image_depths(q):
    return [0, 1, 5, 24, 64, 65, 100] + ([1000] if q >= 0.45 else [])


class TestImageSeries:
    """The budgeted attack_success within TestFloatErrorBound's 512 (z + 1)
    units of 2**-53, relative, plus the stated truncation bound, of its image
    series of incomplete gamma functions, which shares none of its summation.
    The worst cell seen, (0.49, 1000, surplus 1), used about 1.5% of that."""

    def test_grid_reaches_every_branch(self):
        cells = [(q, z) for q in IMAGE_QS for z in image_depths(q)]
        rates = [poisson_rate(z, MiningPowerSplit(q)) for q, z in cells]
        assert min(rates) == 0.0 and max(rates) > model_module._PMF_LOGSPACE_RATE
        n = [2 * (z + 1) + surplus - 1 for _, z in cells for surplus in IMAGE_SURPLUSES]
        assert min(n) <= model_module._POW_DIRECT_MAX < max(n)  # the ruin game's largest target
        values = [success(q, z, Variant.BUDGETED, surplus) for q, z in cells
                  for surplus in IMAGE_SURPLUSES]
        assert min(values) < 1e-50 and max(values) >= 0.5

    @pytest.mark.parametrize("q", IMAGE_QS)
    def test_relative_error_within_the_bounds(self, q):
        for z in image_depths(q):
            for surplus in IMAGE_SURPLUSES:
                exact, truncation = attack_success_images(q, z, surplus)
                got = success(q, z, Variant.BUDGETED, surplus)
                assert abs(got - exact) <= 512 * (z + 1) * 2.0**-53 * exact + truncation, (
                    z, surplus
                )


# (q, z) from (0.2, 1) to (0.45, 50).  The ties-win law is Grunspan and
# Perez-Marco's I_{4pq}(z, 1/2) ("Double spend races", arXiv:1702.02867).
EXACT_RACE_CELLS = [(0.4, 24), (0.1, 6), (0.3, 10), (0.45, 50), (0.2, 1)]


class TestExactRaceClosedForm:
    """The simulated race's law with no loss budget as two incomplete beta
    functions, pinned three independent ways before the model uses it."""

    @pytest.mark.parametrize("surplus", [1, 5, 35])
    @pytest.mark.parametrize(("q", "z"), EXACT_RACE_CELLS)
    def test_bounds_the_budgeted_race_law(self, q, z, surplus):
        # From deficit d >= 1 the budget z + surplus - k lowers the catch-up
        # term by s**(2d + surplus - 1) at most, s = q/p, so the two laws
        # differ by at most s**(surplus + 1).  1e-14 covers float error.
        gap = exact_race_closed_form(q, z, True) - budgeted_race_law(q, z, surplus)
        assert -1e-14 <= gap <= (q / (1.0 - q)) ** (surplus + 1) + 1e-14

    @pytest.mark.parametrize(("q", "z"), EXACT_RACE_CELLS)
    def test_ties_win_form_is_the_incomplete_beta_at_4pq(self, q, z):
        expected = special.betainc(z, 0.5, 4.0 * q * (1.0 - q))
        assert exact_race_closed_form(q, z, False) == pytest.approx(expected, rel=0, abs=1e-14)

    @pytest.mark.parametrize("must_lead", [True, False])
    def test_does_not_rise_in_depth(self, must_lead):
        for q in [0.05 * i for i in range(1, 10)] + [0.49]:
            values = [exact_race_closed_form(q, z, must_lead) for z in range(1, 300)]
            assert all(b <= a * (1 + 1e-15) for a, b in zip(values, values[1:])), q


# q over (0, 1/2), denser near 1/2, where a budgeted rise in z lasts longest.
RISE_QS = [0.01] + [0.05 * i for i in range(1, 10)] + [0.48, 0.49, 0.495, 0.499]


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

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(min_value=0.001, max_value=0.499),
        z=st.integers(min_value=0, max_value=399),
        variant=st.sampled_from([Variant.ORIGINAL, Variant.CORRECTED]),
    )
    def test_unbudgeted_success_does_not_increase_in_depth(self, q, z, variant):
        # What a faster search than the ascending scan may rely on for p > q.
        assert success(q, z + 1, variant) <= success(q, z, variant)

    def test_budgeted_success_can_rise_in_depth_at_a_small_surplus(self):
        # Not so for the budgeted variant: at surplus 1 the loss budget grows
        # with z, so one more confirmation can help the attacker.  A search
        # that assumes P falls in z must state the surplus it holds for.
        assert success(0.4, 0, Variant.BUDGETED, 1) == pytest.approx(0.4, abs=1e-15)
        assert success(0.4, 1, Variant.BUDGETED, 1) == pytest.approx(0.43919, abs=1e-5)
        values = [success(0.499, z, Variant.BUDGETED, 1) for z in range(110)]
        rises = [z for z in range(1, 110) if values[z] > values[z - 1]]
        assert rises == list(range(1, 108))
        values = [success(0.499, z, Variant.BUDGETED, 35) for z in range(60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("surplus", [5, 10])
    def test_budgeted_success_rises_only_at_the_first_depth_at_surplus_5_and_10(
        self, surplus
    ):
        rises = set()
        for q in RISE_QS:
            values = [success(q, z, Variant.BUDGETED, surplus) for z in range(200)]
            rises |= {z for z in range(1, 200) if values[z] > values[z - 1]}
        assert rises == {1}

    @pytest.mark.parametrize("surplus", [35, 100])
    def test_budgeted_success_does_not_rise_in_depth_at_surplus_35_and_100(self, surplus):
        # What a faster budgeted search may rely on for p > q at these surpluses.
        for q in RISE_QS:
            values = [success(q, z, Variant.BUDGETED, surplus) for z in range(200)]
            assert all(a >= b for a, b in zip(values, values[1:])), q

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
        for variant in Variant:  # every variant, though only the budgeted one reads it
            with pytest.raises(ValueError):
                AttackQuery(MiningPowerSplit(0.3), 3, variant, 0)
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
        # -0.0 comes back as +0.0; the ends and their neighbours pass as they are.
        clipped = model_module._as_probability(-0.0)
        assert clipped == 0.0 and math.copysign(1.0, clipped) == 1.0
        for raw in [0.0, 1.0, 5e-324, 1.0 - 2.0**-53]:
            assert model_module._as_probability(raw) == raw
        with pytest.raises(ProbabilityRangeError) as excinfo:
            model_module._as_probability(math.nan)
        assert str(excinfo.value) == "probability out of guard band: nan"

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

    # Unsorted targets with a repeat.  q < 1/2 answers every one; at q = 0.55
    # the 1/2 floor leaves some None (all but budgeted ones), and the budgeted
    # 0.6, below the 1 - 1/e floor, is answered at z = 0 or not at all.
    @pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
    @pytest.mark.parametrize("surplus", [1, 35])
    @pytest.mark.parametrize("q", [0.05, 0.2, 0.35, 0.45, 0.55])
    def test_one_scan_answers_each_target_as_its_own_search(self, q, surplus, variant):
        power = MiningPowerSplit(q)
        targets = [0.3, 0.01, 0.9, 0.3, 0.6, 0.05]
        assert model_module._min_depths(power, targets, variant, surplus) == [
            min_confirmations(power, target, variant, surplus) for target in targets
        ]

    def test_one_scan_mixes_answers_with_the_search_cap(self, monkeypatch):
        monkeypatch.setattr(model_module, "DEFAULT_SEARCH_CAP", 3)
        power = MiningPowerSplit(0.45)
        targets = [1e-6, 0.9, 0.5, 1e-6]
        depths = model_module._min_depths(power, targets, Variant.CORRECTED, 35)
        assert depths == [min_confirmations(power, target) for target in targets]
        assert depths[0] is None and depths[1] is not None

    @pytest.mark.parametrize("q", [0.4, 0.45])
    def test_budgeted_search_answers_the_first_depth_where_success_rises(self, q):
        # At surplus 1, P(z) first rises, then falls: the answer is the first
        # z at or below the target, even where a later z lies above it.
        power = MiningPowerSplit(q)
        values = [success(q, z, Variant.BUDGETED, 1) for z in range(200)]
        assert values[1] > values[0]
        targets = [values[0], (values[0] + values[1]) / 2, values[0] * 0.9]
        answers = model_module._min_depths(power, targets, Variant.BUDGETED, 1)
        assert answers[:2] == [0, 0]
        assert answers == [
            next(z for z, value in enumerate(values) if value <= target)
            for target in targets
        ]

    def test_one_scan_checks_every_target_before_any_answer(self):
        with pytest.raises(ValueError, match="target must be in"):
            model_module._min_depths(
                MiningPowerSplit(0.6), [0.1, 1.5], Variant.CORRECTED, 35
            )

    def test_rejects_bad_targets(self):
        for target in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                min_confirmations(MiningPowerSplit(0.3), target)

    # (0.6, 0.1) is answered by the 1/2 floor (at once when not budgeted),
    # (0.502, 0.5) by the 1 - 1/e floor and (0.3, 0.5) by the scan; a zero
    # surplus is rejected before each, under every variant.
    @pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
    @pytest.mark.parametrize(("q", "target"), [(0.6, 0.1), (0.502, 0.5), (0.3, 0.5)])
    def test_rejects_a_budgeted_zero_surplus_before_any_rule_answers(
        self, q, target, variant
    ):
        with pytest.raises(ValueError) as excinfo:
            min_confirmations(MiningPowerSplit(q), target, variant, 0)
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
        # The 1 - 1/e stop comes only after z = 0 is evaluated.  There P is
        # the one game ruin(1, 2) = q, just above 1/2, so a target of q is
        # answered at z = 0 and a target of 1/2 at no depth.
        power = MiningPowerSplit(0.5000000001)
        assert success(power.q, 0, Variant.BUDGETED, 1) == power.q
        assert min_confirmations(power, power.q, Variant.BUDGETED, 1) == 0
        assert min_confirmations(power, 0.5, Variant.BUDGETED, 1) is None

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
        answers, lasts = {}, {}
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
            answers[target], lasts[target] = scan, last
        # One shared scan answers every target and evaluates each z once, up
        # to the largest answer or the last stop.
        depths.clear()
        targets = [0.999, 0.1, 0.5, 0.9, 0.1]
        shared = model_module._min_depths(
            MiningPowerSplit(q), targets, Variant.BUDGETED, surplus
        )
        assert shared == [answers[target] for target in targets]
        assert depths == list(range(max(lasts.values()) + 1))
