import concurrent.futures
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import doublespend.simulate as simulate_module
from doublespend import (
    AttackQuery,
    MiningPowerSplit,
    SimulationResult,
    TrialConfig,
    Variant,
    attack_success,
    catch_up_limited,
    empirical_catch_up,
    empirical_k_distribution,
    run_trials,
)
from doublespend.rng import bernoulli_threshold
from oracles import TrialRecord, TrialStream, budgeted_race_law, simulate_trial

SRC = pathlib.Path(__file__).parent.parent / "src"


def budgeted_model(q, z, surplus=35):
    return attack_success(AttackQuery(MiningPowerSplit(q), z, Variant.BUDGETED, surplus))


def three_sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def play(seed, t, config):
    """Trial t of seed replayed by the oracle, at the flip cap run_trials reads."""
    return simulate_trial(TrialStream(seed, t), config, simulate_module.DEFAULT_MAX_BLOCKS)


def replay(config, trials, seed):
    """simulate_trial over trials 0..trials-1: (wins, k histogram, records)."""
    records = [play(seed, t, config) for t in range(trials)]
    histogram: dict[int, int] = {}
    for rec in records:
        histogram[rec.k_during_wait] = histogram.get(rec.k_during_wait, 0) + 1
    return sum(rec.attacker_won for rec in records), histogram, records


def assert_matches_replay(config, trials, seed):
    """run_trials equals the scalar replay; returns the replay's records."""
    wins, histogram, records = replay(config, trials, seed)
    agg = run_trials(config, trials, seed)
    assert agg.wins == wins
    assert agg.k_histogram == histogram
    assert agg.capped_count == sum(rec.capped for rec in records)
    return records


def cap_kinds(records, z, max_blocks):
    """How the replayed trials met the block cap."""
    seen = set()
    for rec in records:
        if rec.capped and rec.blocks_elapsed - rec.k_during_wait < z:
            seen.add("wait")  # fewer than z honest blocks at the cap
            if rec.k_during_wait > z:
                seen.add("wait_past_z")  # capped, not an instant win
        elif rec.capped:
            seen.add("chase")
        elif rec.blocks_elapsed == max_blocks:
            seen.add("last")  # finished on the last allowed draw
    return seen


def set_cpus(monkeypatch, cpus):
    """Make the simulator see cpus usable CPUs, so a call of enough walks runs in that many."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def set_width(monkeypatch, width):
    """Walk tiles of width walks, in this process and in the workers forked from now on."""
    monkeypatch.setattr(simulate_module, "_BATCH_WALKS", width)
    simulate_module._close_pool()


def counting_joins(monkeypatch):
    """Patch _join to log how many walks each tile join carries; returns the log.

    A forked shard's joins would not reach the log, so calls run in one shard.
    """
    set_cpus(monkeypatch, 1)
    carried = []
    join = simulate_module._join

    def counting_join(rest, fresh):
        carried.append(rest[0].size)
        return join(rest, fresh)

    monkeypatch.setattr(simulate_module, "_join", counting_join)
    return carried


# (q, z, surplus, max_blocks, what the scalar replay must show)
BLOCK_CAP_CASES = [
    (0.5, 50, 5, 10, {"wait"}),
    (0.8, 3, 2, 4, {"wait", "wait_past_z", "chase"}),
    (0.6, 5, 5, 7, {"wait", "wait_past_z", "chase"}),
    (0.45, 2, 35, 6, {"wait", "wait_past_z", "chase", "last"}),
    (0.4, 3, 5, 4, {"wait", "wait_past_z", "chase"}),
    (0.5, 2, 1, 5, {"wait", "wait_past_z", "chase", "last"}),
    (0.5, 0, 5, 3, {"chase", "last"}),
    (0.3, 0, 1, 1, {"last"}),
    (0.45, 6, 35, 20, {"wait", "wait_past_z", "chase", "last"}),
]
# (q, z, surplus, max_blocks), replayed with 128-walk tiles
CARRY_CASES = [(0.5, 2, 40, 400), (0.45, 0, 20, 60), (0.5, 3, 5, 1_000_000)]
CATCH_UP_CELLS = [(2, 50, 23), (0, 4, 24), (1, 1, 25), (3, 10, 26), (5, 35, 27), (4, 2, 28)]
# (q, z, max_blocks)
WAIT_CASES = [(0.3, 4, 1_000_000), (0.25, 1, 1_000_000), (0.5, 10, 7), (0.4, 24, 30)]


def scalar_catch_up(q, deficit, budget, trials, seed, max_blocks):
    """Win fraction of chase walks replayed one draw at a time."""
    threshold = bernoulli_threshold(q)
    wins = 0
    for t in range(trials):
        stream, d = TrialStream(seed, t), deficit
        while 0 < d < deficit + budget and stream.draws < max_blocks:
            d += -1 if stream.next_bernoulli(threshold) else 1
        wins += d == 0
    return wins / trials


def set_flip_cap(monkeypatch, max_blocks):
    """Cap every simulated walk (run_trials and the empirical helpers) at max_blocks."""
    monkeypatch.setattr(simulate_module, "DEFAULT_MAX_BLOCKS", max_blocks)


def assert_catch_up_matches_replay(monkeypatch, cells, max_blocks):
    set_flip_cap(monkeypatch, max_blocks)
    observed = empirical_catch_up(MiningPowerSplit(0.45), cells, 400)
    assert observed == [
        scalar_catch_up(0.45, d, b, 400, seed, max_blocks) for d, b, seed in cells
    ]


def scalar_k_distribution(q, z, trials, seed, max_blocks):
    """Normalized k histogram of waits replayed one draw at a time."""
    threshold = bernoulli_threshold(q)
    histogram: dict[int, int] = {}
    for t in range(trials):
        stream, k = TrialStream(seed, t), 0
        while stream.draws - k < z and stream.draws < max_blocks:
            k += stream.next_bernoulli(threshold)
        histogram[k] = histogram.get(k, 0) + 1
    return {k: n / trials for k, n in sorted(histogram.items())}


def assert_waits_match_replay(monkeypatch, q, z, max_blocks):
    set_flip_cap(monkeypatch, max_blocks)
    observed = empirical_k_distribution(MiningPowerSplit(q), z, 400, 29)
    assert observed == scalar_k_distribution(q, z, 400, 29, max_blocks)


class TestSingleTrial:
    def test_record_fields_are_consistent(self):
        config = TrialConfig(MiningPowerSplit(0.3), 3)
        for t in range(200):
            rec = play(5, t, config)
            assert rec.k_during_wait >= 0
            assert rec.blocks_elapsed >= config.z
            assert not (rec.attacker_won and rec.capped)

    def test_replay_is_identical(self):
        config = TrialConfig(MiningPowerSplit(0.25), 4)
        first = [play(11, t, config) for t in range(100)]
        second = [play(11, t, config) for t in range(100)]
        assert first == second

    def test_zero_depth_skips_the_wait(self):
        config = TrialConfig(MiningPowerSplit(0.4), 0, budget_surplus=3)
        rec = play(3, 0, config)
        assert rec.k_during_wait == 0
        assert rec.blocks_elapsed >= 1

    def test_tiny_cap_records_capped_trials(self, monkeypatch):
        set_flip_cap(monkeypatch, 10)
        rec = play(1, 0, TrialConfig(MiningPowerSplit(0.5), 50))
        assert rec.capped and not rec.attacker_won
        assert rec.blocks_elapsed == 10

    def test_record_rejects_capped_win(self):
        with pytest.raises(ValueError):
            TrialRecord(0, True, 5, True)


CONFIG = TrialConfig(MiningPowerSplit(0.3), 2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TrialConfig(CONFIG.power, -1), "confirmation depth z must be >= 0"),
        (lambda: TrialConfig(CONFIG.power, 2, 0), "budget_surplus must be >= 1"),
        (lambda: SimulationResult(CONFIG, 10, 11, {0: 10}), "wins must be in [0, trials]"),
        (lambda: SimulationResult(CONFIG, 10, 5, {0: 4, 1: 5}),
         "k_histogram must account for every trial"),
    ],
    ids=["negative-z", "zero-surplus", "wins-past-trials", "short-histogram"],
)
def test_records_reject_inconsistent_fields(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


class TestRunTrials:
    def test_bit_identical_reruns(self):
        config = TrialConfig(MiningPowerSplit(0.3), 5)
        assert run_trials(config, 50_000, 42) == run_trials(config, 50_000, 42)

    def test_matches_scalar_engine_exactly(self):
        config = TrialConfig(MiningPowerSplit(0.3), 2, budget_surplus=5)
        records = assert_matches_replay(config, 3_000, 99)
        assert not any(rec.capped for rec in records)

    @pytest.mark.parametrize(("q", "z", "surplus", "max_blocks", "kinds"), BLOCK_CAP_CASES)
    def test_matches_scalar_engine_at_block_cap(
        self, monkeypatch, q, z, surplus, max_blocks, kinds
    ):
        set_flip_cap(monkeypatch, max_blocks)
        config = TrialConfig(MiningPowerSplit(q), z, surplus)
        records = assert_matches_replay(config, 2_000, 41)
        assert kinds <= cap_kinds(records, z, max_blocks)

    @pytest.mark.parametrize(("q", "z", "surplus", "max_blocks"), CARRY_CASES)
    def test_matches_scalar_engine_with_walks_carried_across_tiles(
        self, monkeypatch, q, z, surplus, max_blocks
    ):
        carried = counting_joins(monkeypatch)
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", 128)
        set_flip_cap(monkeypatch, max_blocks)
        assert_matches_replay(TrialConfig(MiningPowerSplit(q), z, surplus), 2_000, 43)
        assert max(carried) > 0  # some walks rode on into a later tile

    @pytest.mark.parametrize(
        ("z", "surplus", "max_blocks", "same_as"),
        [
            (4, 2**70, 1_000, (4, 10**6)),
            (2**64, 35, 12, (10**6, 35)),
        ],
    )
    def test_values_beyond_int64_act_as_unreachable(
        self, monkeypatch, z, surplus, max_blocks, same_as
    ):
        power = MiningPowerSplit(0.45)
        set_flip_cap(monkeypatch, max_blocks)
        huge = run_trials(TrialConfig(power, z, surplus), 5_000, 8)
        plain = run_trials(TrialConfig(power, *same_as), 5_000, 8)
        assert (huge.wins, huge.k_histogram, huge.capped_count) == (
            plain.wins,
            plain.k_histogram,
            plain.capped_count,
        )

    def test_independent_of_batch_width(self, monkeypatch):
        config = TrialConfig(MiningPowerSplit(0.35), 3)
        whole = run_trials(config, 10_000, 7)
        set_width(monkeypatch, 613)
        chunked = run_trials(config, 10_000, 7)
        assert whole == chunked

    # 10,000 walks make two shards at 3 CPUs on any host.
    @pytest.mark.parametrize(
        ("width", "cpus"),
        [(128, 3), (1 << 14, 3), (128, 1), (1 << 14, 1)],
        ids=["128", "16384", "128-1cpu", "16384-1cpu"],
    )
    def test_histogram_keys_ascend(self, monkeypatch, width, cpus):
        set_cpus(monkeypatch, cpus)
        config = TrialConfig(MiningPowerSplit(0.35), 3)
        whole = run_trials(config, 10_000, 7)
        set_width(monkeypatch, width)
        histogram = run_trials(config, 10_000, 7).k_histogram
        assert list(histogram) == sorted(histogram) and histogram == whole.k_histogram

    def test_histogram_accounts_for_every_trial(self):
        result = run_trials(TrialConfig(MiningPowerSplit(0.2), 4), 25_000, 3)
        assert sum(result.k_histogram.values()) == result.trials
        assert result.capped_count == 0

    def test_hopeless_attacker_rarely_wins(self):
        result = run_trials(TrialConfig(MiningPowerSplit(0.001), 3), 10_000, 17)
        assert result.success_rate < 0.01

    def test_seed_changes_the_sample(self):
        config = TrialConfig(MiningPowerSplit(0.3), 3)
        assert run_trials(config, 20_000, 1) != run_trials(config, 20_000, 2)

    def test_win_rate_matches_race_law_q30_z5(self):
        # At (q=0.3, z=5, surplus=35) the budgeted *model* is 2.3 percentage
        # points below the race's true Bernoulli parameter (the Poisson
        # density is the culprit), so agreement is asserted against the exact
        # law, and the deviation from the model must carry the sign the
        # negative binomial predicts.
        config = TrialConfig(MiningPowerSplit(0.3), 5)
        result = run_trials(config, 100_000, 42)
        law = budgeted_race_law(0.3, 5)
        model = budgeted_model(0.3, 5)
        assert abs(result.success_rate - law) <= three_sigma(law, result.trials)
        assert abs(model - law) > three_sigma(law, result.trials)  # model bias is real
        assert (result.success_rate - model) * (law - model) > 0

    def test_win_rate_matches_budgeted_model_with_big_budget(self):
        # The model's Poisson bias at q=0.5, z=1 decays like 1/budget: 3.7e-3
        # at surplus 35 but 3.6e-4 (under one sigma at 2e4 trials) at 400, so
        # a direct 3-sigma check against the model is honest there.
        config = TrialConfig(MiningPowerSplit(0.5), 1, budget_surplus=400)
        result = run_trials(config, 20_000, 12)
        model = budgeted_model(0.5, 1, 400)
        assert result.capped_count == 0
        assert abs(result.success_rate - model) <= three_sigma(model, result.trials)

    def test_fair_race_small_sample_within_noise_of_model(self):
        config = TrialConfig(MiningPowerSplit(0.5), 1)
        result = run_trials(config, 3_000, 8)
        model = budgeted_model(0.5, 1)
        assert abs(result.success_rate - model) <= three_sigma(model, result.trials)

    @pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("z", [1, 3, 6])
    def test_grid_agreement_with_model_or_signed_exception(self, q, z):
        # Either the empirical rate sits within 3 sigma of the budgeted model,
        # or the Poisson approximation error dominates; then the deviation
        # must match the direction the exact negative-binomial law predicts.
        result = run_trials(TrialConfig(MiningPowerSplit(q), z), 100_000, 1234)
        model = budgeted_model(q, z)
        law = budgeted_race_law(q, z)
        band = three_sigma(max(model, 1e-12), result.trials)
        if abs(result.success_rate - model) > band:
            assert (result.success_rate - model) * (law - model) > 0
            assert abs(result.success_rate - law) <= three_sigma(law, result.trials)

    def test_mean_progress_matches_rate(self):
        result = run_trials(TrialConfig(MiningPowerSplit(0.25), 3), 100_000, 5)
        sq = sum(k * k * n for k, n in result.k_histogram.items()) / result.trials
        se = math.sqrt((sq - result.mean_k**2) / result.trials)
        assert abs(result.mean_k - 1.0) <= 3.0 * se

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(TrialConfig(MiningPowerSplit(0.3), 1), 0, 1)


class TestEmpiricalCatchUp:
    def test_single_block_deficit_matches_one_third(self):
        rate = empirical_catch_up(MiningPowerSplit(0.25), [(1, 200, 21)], 100_000)[0]
        assert abs(rate - 1.0 / 3.0) <= three_sigma(1.0 / 3.0, 100_000)

    def test_zero_deficit_is_immediate_win(self):
        assert empirical_catch_up(MiningPowerSplit(0.25), [(0, 50, 0)], 10) == [1.0]

    def test_matches_limited_catch_up_formula(self):
        power = MiningPowerSplit(0.4)
        expected = catch_up_limited(2, 50, power)
        rate = empirical_catch_up(power, [(2, 50, 33)], 100_000)[0]
        assert abs(rate - expected) <= three_sigma(expected, 100_000)

    @pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("deficit", [1, 2, 3])
    def test_twelve_point_grid_within_three_sigma(self, q, deficit):
        power = MiningPowerSplit(q)
        expected = catch_up_limited(deficit, 35, power)
        rate = empirical_catch_up(power, [(deficit, 35, 1009)], 50_000)[0]
        assert abs(rate - expected) <= three_sigma(expected, 50_000)

    @pytest.mark.parametrize(
        ("q", "deficit", "budget", "max_blocks"),
        [
            (0.4, 2, 50, 1_000_000),
            (0.3, 1, 1, 1_000_000),
            (0.5, 3, 10, 5),
            (0.45, 5, 35, 12),
        ],
    )
    def test_matches_scalar_walks_exactly(
        self, monkeypatch, q, deficit, budget, max_blocks
    ):
        set_flip_cap(monkeypatch, max_blocks)
        [observed] = empirical_catch_up(MiningPowerSplit(q), [(deficit, budget, 23)], 400)
        assert observed == scalar_catch_up(q, deficit, budget, 400, 23, max_blocks)

    @pytest.mark.parametrize("width", [1 << 14, 64])
    @pytest.mark.parametrize("max_blocks", [5, 12, 1_000_000])
    def test_many_cells_match_scalar_walks_exactly(
        self, monkeypatch, max_blocks, width
    ):
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", width)
        assert_catch_up_matches_replay(monkeypatch, CATCH_UP_CELLS, max_blocks)

    @pytest.mark.parametrize("width", [7, 613])
    def test_independent_of_tile_width(self, monkeypatch, width):
        cells = [(k + 1, 12 - k, 40 + k) for k in range(7)] + [(0, 3, 9)]
        whole = empirical_catch_up(MiningPowerSplit(0.4), cells, 300)
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", width)
        assert empirical_catch_up(MiningPowerSplit(0.4), cells, 300) == whole

    def test_rejects_bad_arguments(self, monkeypatch):
        power = MiningPowerSplit(0.3)
        monkeypatch.setattr(simulate_module, "_sharded", must_not_run)  # checks come first
        # A cell that breaks catch_up_limited's rule gets that rule's message.
        for cells in ([(-1, 10, 0)], [(1, 0, 0)], [(0, 0, 0)], [(1, 5, 0), (2, 0, 1)]):
            bad = next((d, b) for d, b, _ in cells if d < 0 or b < 1)
            with pytest.raises(ValueError) as model:
                catch_up_limited(*bad, power)
            with pytest.raises(ValueError) as simulated:
                empirical_catch_up(power, cells, 100_000)
            assert str(simulated.value) == str(model.value)
        with pytest.raises(ValueError):
            empirical_catch_up(power, [(1, 5, 0)], 0)


class TestEmpiricalKDistribution:
    def test_mean_tracks_the_rate(self):
        dist = empirical_k_distribution(MiningPowerSplit(0.25), 3, 1_000_000, 77)
        mean = sum(k * w for k, w in dist.items())
        assert abs(mean - 1.0) < 0.01

    def test_mass_at_zero_is_negative_binomial_not_poisson(self):
        dist = empirical_k_distribution(MiningPowerSplit(0.25), 3, 1_000_000, 78)
        expected = 0.75**3  # 0.421875
        assert abs(dist[0] - expected) <= three_sigma(expected, 1_000_000)
        assert abs(dist[0] - math.exp(-1.0)) > 10.0 * math.sqrt(
            expected * (1 - expected) / 1_000_000
        )

    def test_weights_normalize(self):
        dist = empirical_k_distribution(MiningPowerSplit(0.3), 4, 50_000, 5)
        assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_attacker_concentrates_at_zero(self):
        dist = empirical_k_distribution(MiningPowerSplit(1e-4), 3, 20_000, 6)
        assert dist[0] > 0.999

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.4])
    def test_overdispersed_relative_to_poisson(self, q):
        power = MiningPowerSplit(q)
        dist = empirical_k_distribution(power, 6, 100_000, 91)
        mean = sum(k * w for k, w in dist.items())
        var = sum(k * k * w for k, w in dist.items()) - mean * mean
        rate = 6 * q / (1 - q)
        assert var > rate

    @pytest.mark.parametrize(("q", "z", "max_blocks"), WAIT_CASES)
    def test_matches_scalar_waits_exactly(self, monkeypatch, q, z, max_blocks):
        assert_waits_match_replay(monkeypatch, q, z, max_blocks)

    @pytest.mark.parametrize("width", [7, 613])
    def test_independent_of_tile_width(self, monkeypatch, width):
        whole = empirical_k_distribution(MiningPowerSplit(0.35), 6, 3_000, 31)
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", width)
        assert empirical_k_distribution(MiningPowerSplit(0.35), 6, 3_000, 31) == whole

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            empirical_k_distribution(MiningPowerSplit(0.3), 0, 100, 0)


class TestParkedWalks:
    """Finished walks stay parked in the kernels' arrays until they compact.

    At a live fraction of 0.0 the arrays compact only before a tile join or
    a chase tail block; at 1.0 they compact on every step that finishes or
    caps a walk.  The replays above run at the default in between.
    """

    @pytest.fixture(
        autouse=True, params=[0.0, 1.0], ids=["compact-when-forced", "compact-each-finish"]
    )
    def live_fraction(self, request, monkeypatch):
        monkeypatch.setattr(simulate_module, "_LIVE_FRACTION", request.param)

    @pytest.mark.parametrize(("q", "z", "surplus", "max_blocks", "kinds"), BLOCK_CAP_CASES)
    def test_run_trials_at_block_cap(self, monkeypatch, q, z, surplus, max_blocks, kinds):
        set_flip_cap(monkeypatch, max_blocks)
        config = TrialConfig(MiningPowerSplit(q), z, surplus)
        records = assert_matches_replay(config, 2_000, 41)
        assert kinds <= cap_kinds(records, z, max_blocks)

    @pytest.mark.parametrize(("q", "z", "surplus", "max_blocks"), CARRY_CASES)
    def test_run_trials_with_walks_carried(self, monkeypatch, q, z, surplus, max_blocks):
        carried = counting_joins(monkeypatch)
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", 128)
        set_flip_cap(monkeypatch, max_blocks)
        assert_matches_replay(TrialConfig(MiningPowerSplit(q), z, surplus), 2_000, 43)
        assert max(carried) > 0

    @pytest.mark.parametrize("width", [1 << 14, 64])
    @pytest.mark.parametrize("max_blocks", [5, 12, 1_000_000])
    def test_catch_up_cells(self, monkeypatch, max_blocks, width):
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", width)
        assert_catch_up_matches_replay(monkeypatch, CATCH_UP_CELLS, max_blocks)

    @pytest.mark.parametrize(("q", "z", "max_blocks"), WAIT_CASES)
    def test_k_distribution(self, monkeypatch, q, z, max_blocks):
        assert_waits_match_replay(monkeypatch, q, z, max_blocks)


# (q, z, surplus, max_blocks): every one caps walks in the wait and in the chase
# and finishes some on their last allowed flip
TAIL_CAP_CASES = [(0.5, 2, 1, 5), (0.5, 5, 3, 12), (0.5, 10, 35, 40)]


class TestBlockedTail:
    """Once few walks are left, the kernels draw a block of flips per walk at once.

    Each test runs with the block width forced to 1 and 3 flips, and at its
    default, and logs every block as (flips, walks).
    """

    @pytest.fixture(
        autouse=True, params=[1, 3, None], ids=["width-1", "width-3", "width-default"]
    )
    def blocks(self, request, monkeypatch):
        set_cpus(monkeypatch, 1)  # a forked shard's blocks would not reach the log
        if request.param:
            monkeypatch.setattr(simulate_module, "_block_rows", lambda walks: request.param)
        log = []
        counts = simulate_module._attacker_counts

        def logged_counts(keys, threshold, rows):
            log.append((rows, keys.size))
            return counts(keys, threshold, rows)

        monkeypatch.setattr(simulate_module, "_attacker_counts", logged_counts)
        return log

    @staticmethod
    def clipped(blocks):
        """Blocks cut short by a flip cap."""
        return [(rows, n) for rows, n in blocks if rows < simulate_module._block_rows(n)]

    @pytest.mark.parametrize(("q", "z", "surplus", "max_blocks"), TAIL_CAP_CASES)
    def test_run_trials_at_flip_cap(self, monkeypatch, blocks, q, z, surplus, max_blocks):
        set_flip_cap(monkeypatch, max_blocks)
        records = assert_matches_replay(TrialConfig(MiningPowerSplit(q), z, surplus), 2_000, 41)
        assert {"wait", "wait_past_z", "chase", "last"} <= cap_kinds(records, z, max_blocks)
        assert blocks
        if simulate_module._block_rows(1) > 1:
            assert self.clipped(blocks)  # some block straddled the cap

    @pytest.mark.parametrize(("surplus", "max_blocks"), [(3, 40), (20, 1_000_000)])
    def test_run_trials_without_a_wait(self, monkeypatch, blocks, surplus, max_blocks):
        set_flip_cap(monkeypatch, max_blocks)
        assert_matches_replay(TrialConfig(MiningPowerSplit(0.45), 0, surplus), 2_000, 42)
        assert blocks

    @pytest.mark.parametrize(
        ("q", "z", "surplus", "max_blocks"), [*CARRY_CASES[::2], (0.45, 0, 20, 400)]
    )
    def test_run_trials_with_walks_carried(
        self, monkeypatch, blocks, q, z, surplus, max_blocks
    ):
        carried = counting_joins(monkeypatch)
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", 128)
        set_flip_cap(monkeypatch, max_blocks)
        assert_matches_replay(TrialConfig(MiningPowerSplit(q), z, surplus), 2_000, 43)
        assert max(carried) > 0 and blocks

    @pytest.mark.parametrize("max_blocks", [12, 40, 1_000_000])
    def test_catch_up_cells(self, monkeypatch, blocks, max_blocks):
        assert_catch_up_matches_replay(monkeypatch, CATCH_UP_CELLS, max_blocks)
        assert blocks
        if max_blocks < 100 and simulate_module._block_rows(1) == simulate_module._BATCH_WALKS:
            assert self.clipped(blocks)  # at the default width a chase block met the cap

    @pytest.mark.parametrize(("q", "z", "max_blocks"), WAIT_CASES)
    def test_k_distribution(self, monkeypatch, blocks, q, z, max_blocks):
        assert_waits_match_replay(monkeypatch, q, z, max_blocks)
        assert blocks


def must_not_run(*args, **kwargs):
    raise AssertionError("called where no call may be made")


def no_keys(*args, **kwargs):
    raise AssertionError("drew trial keys before checking the trial count")


class TestTrialBound:
    """Trial t's stream key is built from t + 1, so 2**64 trials cannot run."""

    ENTRY_POINTS = {
        "run_trials": lambda n: run_trials(TrialConfig(MiningPowerSplit(0.3), 2), n, 1),
        "empirical_catch_up": lambda n: empirical_catch_up(
            MiningPowerSplit(0.3), [(1, 5, 0)], n
        ),
        "empirical_k_distribution": lambda n: empirical_k_distribution(
            MiningPowerSplit(0.3), 2, n, 0
        ),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        ("trials", "message"),
        [(0, "trials must be >= 1"), (2**64, r"trials must be < 2\*\*64")],
    )
    def test_rejects_trial_counts_out_of_range_at_once(
        self, monkeypatch, entry, trials, message
    ):
        monkeypatch.setattr(simulate_module, "trial_keys", no_keys)
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](trials)


def assert_no_child_left():
    """Once the pool of kept workers is closed, this process has no child."""
    simulate_module._close_pool()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pool_pids():
    return [pid for pid, _, _ in simulate_module._pool]


def counting_forks(monkeypatch):
    """Patch os.fork to log each fork; returns the log."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def shard_every_call(monkeypatch, cpus):
    """Let a call of any size take a shard per CPU, up to one per trial."""
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(simulate_module, "_SHARD_WALKS", 1)


def one_process(fn):
    """fn(), with every call it makes counted in this process alone."""
    with pytest.MonkeyPatch.context() as mp:
        set_cpus(mp, 1)
        return fn()


def logging_ranges(monkeypatch):
    """Patch _counts to log the trial range of each count this process makes."""
    ranges, counts = [], simulate_module._counts
    monkeypatch.setattr(
        simulate_module, "_counts", lambda *args: ranges.append(args[-2:]) or counts(*args)
    )
    return ranges


def broken_counts(broken_shard):
    """_counts, raising in the shard whose range starts at trial broken_shard."""
    counts = simulate_module._counts

    def counts_or_raise(*args):
        if args[-2] == broken_shard:
            raise KeyError(f"shard at {broken_shard} broke")
        return counts(*args)

    return counts_or_raise


CONFIG = TrialConfig(MiningPowerSplit(0.3), 2)


class TestShards:
    """A call of enough walks splits its trials across the usable CPUs.

    The calling process counts the first range and a kept worker each other
    one; their counts add up to the one-process result.  The pool forks a
    worker the first time a call needs it and keeps it until exit.
    """

    @staticmethod
    def mixed_calls():
        """_simulate outputs of a wait with races and cells, and of a z=0 race."""
        power = MiningPowerSplit(0.45)
        cells = [(0, 3, 31), (2, 5, 32), (4, 1, 33)]
        return [
            simulate_module._simulate(TrialConfig(power, 3, 4), 2_000, [11, 12], [13], cells),
            simulate_module._simulate(TrialConfig(power, 0, 6), 2_000, [14], (), cells),
        ]

    def test_results_equal_at_any_shard_count(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_BATCH_WALKS", 128)
        set_flip_cap(monkeypatch, 10)
        outputs = []
        for cpus in (1, 2, 3):
            shard_every_call(monkeypatch, cpus)
            outputs.append(self.mixed_calls())
            assert len(pool_pids()) == cpus - 1
        assert_no_child_left()
        assert outputs[0] == outputs[1] == outputs[2]
        (races, _, _), (z0_races, _, _) = outputs[0]
        assert all(r.capped_count for r in [*races, *z0_races])

    def test_a_shard_gets_at_least_shard_walks(self, monkeypatch):
        ranges = logging_ranges(monkeypatch)
        set_cpus(monkeypatch, 3)
        shard, power = simulate_module._SHARD_WALKS, MiningPowerSplit(0.3)
        cells = [(1, 5, seed) for seed in range(4)]  # four walks per trial
        run_trials(CONFIG, 2 * shard - 1, 5)
        run_trials(CONFIG, 2 * shard, 5)
        empirical_catch_up(power, cells, shard // 2)
        empirical_catch_up(power, [*cells, (0, 5, 9)], shard // 2 - 1)  # deficit 0: no walk
        simulate_module._simulate(CONFIG, shard, [1, 2], [3])  # three walks per trial
        assert ranges == [
            (0, 2 * shard - 1), (0, shard), (0, shard // 4), (0, shard // 2 - 1), (0, shard // 3)
        ]
        assert_no_child_left()

    def test_forks_once_per_worker(self, monkeypatch):
        forks = counting_forks(monkeypatch)
        shard_every_call(monkeypatch, 3)
        run_trials(CONFIG, 2, 5)  # two trials make two shards
        assert len(forks) == 1
        sizes = (3, 50, 1_000, 3, 7)
        results = [run_trials(CONFIG, trials, 5) for trials in sizes]
        assert len(forks) == 2
        assert results == [one_process(lambda: run_trials(CONFIG, n, 5)) for n in sizes]
        assert_no_child_left()

    def test_a_task_larger_than_a_pipe_buffer(self, monkeypatch):
        shard_every_call(monkeypatch, 2)
        cells = [(1, 2, seed) for seed in range(20_000)]  # pickled, over 64 KiB
        power = MiningPowerSplit(0.3)
        rates = empirical_catch_up(power, cells, 2)
        assert rates == one_process(lambda: empirical_catch_up(power, cells, 2))
        assert len(pool_pids()) == 1
        assert_no_child_left()

    def test_one_process_without_an_affinity_mask(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        sharded = run_trials(CONFIG, 40_000, 5)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", must_not_run)
        assert run_trials(CONFIG, 40_000, 5) == sharded

    def test_the_flip_cap_travels_with_each_task(self, monkeypatch):
        forks = counting_forks(monkeypatch)
        shard_every_call(monkeypatch, 2)
        config = TrialConfig(MiningPowerSplit(0.45), 3, 4)
        run_trials(config, 1_000, 5)  # the worker is forked at the default cap
        set_flip_cap(monkeypatch, 10)
        capped = run_trials(config, 1_000, 5)
        assert capped == one_process(lambda: run_trials(config, 1_000, 5))
        assert capped.capped_count and len(forks) == 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_workers_exception_reaches_the_caller(self, monkeypatch, cpus):
        monkeypatch.setattr(simulate_module, "_counts", broken_counts(1_000 // cpus))
        shard_every_call(monkeypatch, cpus)
        with pytest.raises(KeyError, match="shard at") as excinfo:
            run_trials(CONFIG, 1_000, 5)
        assert "counts_or_raise" in str(excinfo.value.__cause__)  # the worker's traceback
        workers = pool_pids()
        assert len(workers) == cpus - 1
        # 998 trials put no range at the broken start; the same workers count them.
        assert run_trials(CONFIG, 998, 5) == one_process(lambda: run_trials(CONFIG, 998, 5))
        assert pool_pids() == workers
        assert_no_child_left()

    def test_the_callers_exception_ends_the_calls_workers(self, monkeypatch):
        original = simulate_module._counts

        def counts(config, streams, *rest):
            if streams == [5]:
                if rest[-2] == 0:
                    raise KeyError("shard at 0 broke")
                time.sleep(60)  # a worker left running would hold a call up this long
            return original(config, streams, *rest)

        monkeypatch.setattr(simulate_module, "_counts", counts)
        shard_every_call(monkeypatch, 3)
        start = time.monotonic()
        with pytest.raises(KeyError, match="shard at 0"):
            run_trials(CONFIG, 1_000, 5)
        assert not pool_pids()
        assert_no_child_left()  # killed and reaped
        # The next call forks new workers and reads no reply meant for the last.
        assert run_trials(CONFIG, 1_000, 6) == one_process(lambda: run_trials(CONFIG, 1_000, 6))
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_a_worker_that_dies_fails_the_call(self, monkeypatch):
        original = simulate_module._counts

        def counts(config, streams, *rest):
            if streams == [5] and rest[-2]:
                os._exit(3)  # a worker's range: it dies without writing its counts
            return original(config, streams, *rest)

        monkeypatch.setattr(simulate_module, "_counts", counts)
        forks = counting_forks(monkeypatch)
        shard_every_call(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"shard worker \d+ ended with wait status 768$"):
            run_trials(CONFIG, 1_000, 5)
        assert not pool_pids()
        assert_no_child_left()  # reaped
        assert run_trials(CONFIG, 1_000, 6) == one_process(lambda: run_trials(CONFIG, 1_000, 6))
        assert len(forks) == 2  # the next call forked a replacement
        assert_no_child_left()

    def test_a_worker_killed_while_idle_fails_the_next_call(self, monkeypatch):
        shard_every_call(monkeypatch, 2)
        expected = run_trials(CONFIG, 1_000, 5)
        [pid] = pool_pids()
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match=rf"shard worker {pid} ended with wait status 9$"):
            run_trials(CONFIG, 1_000, 5)
        assert run_trials(CONFIG, 1_000, 5) == expected
        assert len(pool_pids()) == 1 and pool_pids() != [pid]
        assert_no_child_left()

    def test_a_failed_fork_leaks_no_descriptor(self, monkeypatch):
        forked, fork = [], os.fork

        def fork_once():
            if forked:
                raise OSError("no more processes")
            forked.append(fork())
            return forked[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        shard_every_call(monkeypatch, 4)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="no more processes"):
            run_trials(CONFIG, 1_000, 5)
        assert pool_pids() == forked  # the second fork failed, so no third was tried
        assert len(os.listdir("/proc/self/fd")) == fds + 2  # the live worker's two pipe ends
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_a_call_that_finds_the_pool_busy_runs_in_one_process(self, monkeypatch):
        shard_every_call(monkeypatch, 2)
        expected = run_trials(CONFIG, 1_000, 5)
        ranges = logging_ranges(monkeypatch)
        monkeypatch.setattr(os, "fork", must_not_run)
        with simulate_module._pool_lock:
            assert run_trials(CONFIG, 1_000, 5) == expected
        assert ranges == [(0, 1_000)]
        assert_no_child_left()

    def test_threads_get_the_sequential_results(self, monkeypatch):
        forks = counting_forks(monkeypatch)
        set_cpus(monkeypatch, 2)
        configs = [TrialConfig(MiningPowerSplit(q), 3) for q in (0.2, 0.3, 0.4)] * 3
        expected = [one_process(lambda: run_trials(c, 20_000, 7)) for c in configs]
        barrier = threading.Barrier(4)

        def calls(_):
            barrier.wait(timeout=60)
            return [run_trials(c, 20_000, 7) for c in configs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the interpreter often
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as threads:
                results = list(threads.map(calls, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4
        assert len(forks) == 1  # one pool, one worker
        assert_no_child_left()

    def test_a_forked_child_builds_its_own_pool(self, monkeypatch):
        shard_every_call(monkeypatch, 2)
        expected = run_trials(CONFIG, 1_000, 5)
        workers = pool_pids()
        pid = os.fork()
        if not pid:
            status = 1
            try:
                inherited = pool_pids()
                same = run_trials(CONFIG, 1_000, 5) == expected
                status = 0 if not inherited and same and pool_pids() != workers else 2
                simulate_module._close_pool()
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        assert run_trials(CONFIG, 1_000, 5) == expected and pool_pids() == workers
        assert_no_child_left()


# Shards a call over {cpus} CPUs and prints the kept workers' pids, then
# checks that a pipe the owner closes reads EOF although each worker was
# forked with its write end open.
POOL_SCRIPT = """\
import os, time
import doublespend.simulate as sim
from doublespend import MiningPowerSplit, TrialConfig

os.sched_getaffinity = lambda pid: set(range({cpus}))
sim._SHARD_WALKS = 1
read, write = os.pipe()
sim.run_trials(TrialConfig(MiningPowerSplit(0.3), 2), 100, 5)
print(*[pid for pid, _, _ in sim._pool], flush=True)
os.close(write)
assert os.read(read, 1) == b""
{then}
"""


def running(pid):
    """Whether pid names a process that has not exited (a zombie has)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_exit_is_prompt_and_reaps_every_worker(cpus):
    proc = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT.format(cpus=cpus, then="")],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == cpus - 1
    assert not any(map(running, pids))


def test_workers_end_with_their_owner():
    with subprocess.Popen(
        [sys.executable, "-c", POOL_SCRIPT.format(cpus=3, then="time.sleep(60)")],
        stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    ) as owner:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        owner.kill()
    deadline = time.monotonic() + 5
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert len(pids) == 2 and not any(map(running, pids))


# POOL_SCRIPT's tail: after the call, the owner forks a child that sleeps, then
# prints the child's pid and sleeps itself.
FORKED_CHILD = """\
child = os.fork()
if not child:
    time.sleep(60)
    os._exit(0)
print(child, flush=True)
time.sleep(60)
"""


def test_workers_end_with_their_owner_while_its_child_lives():
    """A child forked by the owner holds none of the pool's pipes open."""
    pids = []
    try:
        with subprocess.Popen(
            [sys.executable, "-c", POOL_SCRIPT.format(cpus=3, then=FORKED_CHILD)],
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        ) as owner:
            try:
                pids += [int(pid) for pid in owner.stdout.readline().split()]
                pids.append(int(owner.stdout.readline()))  # the owner's child
            finally:
                owner.kill()
        *workers, child = pids
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(workers) == 2 and not any(map(running, workers)) and running(child)
    finally:
        for pid in filter(running, pids):
            os.kill(pid, signal.SIGKILL)


# Runs one kernel with _keep patched to drop one live walk from every
# compaction, so the kept arrays hold one walk fewer than the live count.
SLIPPED_COUNT = """\
import numpy as np
import doublespend.simulate as sim
from doublespend import MiningPowerSplit, TrialConfig

keep = sim._keep

def drop_one_live_walk(mask, live, *state):
    mask = mask.copy()
    mask[np.flatnonzero(mask)[:1]] = False
    return keep(mask, live, *state)

sim._keep = drop_one_live_walk
sim._LIVE_FRACTION = {fraction}
sim._BATCH_WALKS = {batch}
sim.DEFAULT_MAX_BLOCKS = {cap}
power = MiningPowerSplit(0.45)
sim.{call}
"""


@pytest.mark.parametrize(
    ("call", "fraction", "batch", "cap", "site"),
    [
        ("empirical_k_distribution(power, 4, 2_000, 1)", 0.75, 1 << 14, 10**6,
         "_keep(d > 0"),
        ("empirical_catch_up(power, [(2, 10, 3)], 2_000)", 0.75, 1 << 14, 10**6,
         "_keep(d > 0"),
        # Capped walks stay parked until a 128-walk tile joins and compacts them.
        ("run_trials(TrialConfig(power, 3, 35), 2_000, 1)", 0.0, 128, 40, "_keep(d > 0"),
    ],
    ids=["wait", "chase", "chase-capped"],
)
def test_slipped_live_count_fails_instead_of_hanging(call, fraction, batch, cap, site):
    script = SLIPPED_COUNT.format(call=call, fraction=fraction, batch=batch, cap=cap)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 1
    assert "RuntimeError: " in proc.stderr and site in proc.stderr, proc.stderr


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The tile of walks, not the trial count, sets the kernels' working set.

    tracemalloc sees this process only, so each call runs in one shard.
    """

    @pytest.fixture(autouse=True)
    def one_shard(self, monkeypatch):
        set_cpus(monkeypatch, 1)

    def test_race_peak_stays_small(self):
        config = TrialConfig(MiningPowerSplit(0.4), 24)
        assert traced_peak_mib(lambda: run_trials(config, 200_000, 3)) < 4.0

    def test_catch_up_peak_stays_small(self):
        cells = [(25 - k, 59 - k, 100 + k) for k in range(25)]
        power = MiningPowerSplit(0.2)
        assert traced_peak_mib(lambda: empirical_catch_up(power, cells, 20_000)) < 4.0

    def test_tail_blocks_stay_small(self):
        # The 12 of 100 walks that do not win drift to the million-flip cap,
        # so tail blocks of up to a tile's worth of draws do nearly all the work.
        power = MiningPowerSplit(0.49)
        assert traced_peak_mib(lambda: empirical_catch_up(power, [(2, 100001, 5)], 100)) < 4.0
