import pytest
from hypothesis import given, settings, strategies as st

from doublespend import (
    MiningPowerSplit,
    RuinGameSpec,
    catch_up_limited,
    catch_up_unlimited,
    ruin_win_probability,
)
from oracles import ruin_by_linear_solve, ruin_mp


def ruin(i, n, q):
    return ruin_win_probability(RuinGameSpec(i, n, q))


class TestRuinWinProbability:
    def test_bankrupt_start_loses(self):
        assert ruin(0, 10, 0.3) == 0.0

    def test_start_at_target_wins(self):
        assert ruin(10, 10, 0.3) == 1.0

    def test_fair_game_is_fortune_over_target(self):
        assert ruin(3, 10, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_against_linear_solve_single_point(self):
        assert ruin(2, 4, 0.6) == pytest.approx(
            ruin_by_linear_solve(2, 4, 0.6), abs=1e-10
        )

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_against_linear_solve_grid(self, q):
        for n in range(2, 31):
            for i in range(1, n):
                assert ruin(i, n, q) == pytest.approx(
                    ruin_by_linear_solve(i, n, q), abs=1e-10
                )

    @given(
        n=st.integers(min_value=2, max_value=60),
        q=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_non_decreasing_in_fortune(self, n, q):
        values = [ruin(i, n, q) for i in range(n + 1)]
        assert values[0] == 0.0 and values[-1] == 1.0
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("half_gap", [2.0**-53, 1e-15, 4e-13, 1e-12])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_near_fair_games_within_a_few_ulps(self, half_gap, sign):
        # Only q == 1/2 is a fair game; a hair off it, i/n would be up to
        # 1.8e8 units off at (1, 20035), and the near-fair form keeps a few.
        q = 0.5 + sign * half_gap
        assert q != 0.5
        for i, n in [(1, 2), (1, 1000), (35, 70), (999, 1000), (1, 20035), (20034, 20035)]:
            exact = ruin_mp(i, n, q)
            assert abs(ruin(i, n, q) - exact) <= 4 * 2.0**-53 * exact, (i, n)

    def test_rejects_zero_target(self):
        with pytest.raises(ValueError):
            RuinGameSpec(0, 0, 0.4)

    def test_rejects_fortune_above_target(self):
        with pytest.raises(ValueError):
            RuinGameSpec(5, 4, 0.4)

    def test_rejects_a_certain_win(self):
        with pytest.raises(ValueError) as excinfo:
            RuinGameSpec(1, 2, 1.0)
        assert str(excinfo.value) == "win_prob must be in (0, 1), got 1.0"

    def test_large_games_stay_finite(self):
        assert 0.0 <= ruin(500, 10_000, 0.01) <= 1.0
        assert 0.0 <= ruin(9_999, 10_000, 0.99) <= 1.0


class TestCatchUpUnlimited:
    def test_majority_attacker_always_catches_up(self):
        assert catch_up_unlimited(5, MiningPowerSplit(0.6)) == 1.0

    def test_balanced_power_always_catches_up(self):
        assert catch_up_unlimited(7, MiningPowerSplit(0.5)) == 1.0

    def test_zero_deficit_is_certain(self):
        assert catch_up_unlimited(0, MiningPowerSplit(0.2)) == 1.0

    def test_single_block_deficit(self):
        assert catch_up_unlimited(1, MiningPowerSplit(0.25)) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_huge_deficit_underflows_cleanly(self):
        value = catch_up_unlimited(100_000, MiningPowerSplit(0.3))
        assert 0.0 <= value < 1e-300

    def test_rejects_negative_deficit(self):
        with pytest.raises(ValueError):
            catch_up_unlimited(-1, MiningPowerSplit(0.3))


class TestCatchUpLimited:
    def test_zero_deficit_already_won(self):
        assert catch_up_limited(0, 7, MiningPowerSplit(0.3)) == 1.0

    def test_fair_game_with_budget_equal_deficit(self):
        assert catch_up_limited(3, 3, MiningPowerSplit(0.5)) == 0.5

    def test_big_budget_approximates_unlimited(self):
        power = MiningPowerSplit(0.4)
        limited = catch_up_limited(2, 50, power)
        assert limited == pytest.approx(catch_up_unlimited(2, power), abs=1e-6)
        assert catch_up_unlimited(2, power) == pytest.approx((2 / 3) ** 2, abs=1e-15)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            catch_up_limited(3, 0, MiningPowerSplit(0.3))

    def test_rejects_a_negative_deficit(self):
        with pytest.raises(ValueError) as excinfo:
            catch_up_limited(-1, 5, MiningPowerSplit(0.3))
        assert str(excinfo.value) == "deficit z must be >= 0"

    @given(
        deficit=st.integers(min_value=0, max_value=40),
        budget=st.integers(min_value=1, max_value=200),
        q=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_equals_ruin_game(self, deficit, budget, q):
        expected = ruin(budget, budget + deficit, q)
        assert catch_up_limited(deficit, budget, MiningPowerSplit(q)) == expected

    @pytest.mark.parametrize("q", [0.05, 0.15, 0.25, 0.35, 0.45])
    @pytest.mark.parametrize("z", [1, 4, 10])
    def test_converges_monotonically_to_unlimited(self, q, z):
        power = MiningPowerSplit(q)
        target = catch_up_unlimited(z, power)
        budgets = [1, 2, 5, 10, 25, 50, 100, 200]
        values = [catch_up_limited(z, y, power) for y in budgets]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= target for v in values)
        assert abs(values[-1] - target) <= 1e-6

    def test_overflow_free_for_long_odds(self):
        value = catch_up_limited(50, 10_000, MiningPowerSplit(0.05))
        assert 0.0 <= value <= 1.0
