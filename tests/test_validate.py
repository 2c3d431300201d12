import math

import pytest

from doublespend import (
    AttackQuery,
    ComparisonRow,
    MiningPowerSplit,
    SweepGrid,
    Variant,
    attack_success,
    catch_up_limited,
    component_attribution,
    empirical_catch_up,
    empirical_k_distribution,
    run_attribution,
    run_trials,
    run_validation,
)
import doublespend.simulate as simulate_module
import doublespend.validate as validate_module
from doublespend.rng import derive_seed
from doublespend.simulate import TrialConfig


class TestSweepGrid:
    def test_rejects_unsorted_axes(self):
        with pytest.raises(ValueError):
            SweepGrid((0.3, 0.1), (1,), master_seed=0)
        with pytest.raises(ValueError):
            SweepGrid((0.1,), (3, 3), master_seed=0)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            SweepGrid((0.0, 0.5), (1,), master_seed=0)
        with pytest.raises(ValueError):
            SweepGrid((0.1,), (-1, 2), master_seed=0)
        with pytest.raises(ValueError):
            SweepGrid((), (1,), master_seed=0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError) as excinfo:
            SweepGrid((0.1,), (1,), trials=0)
        assert str(excinfo.value) == "trials must be >= 1"


def test_z_score_at_zero_standard_error():
    assert ComparisonRow("c", "l", 0.5, 0.5, 0.0).z_score == 0.0
    assert ComparisonRow("c", "l", 0.6, 0.5, 0.0).z_score == math.inf
    assert ComparisonRow("c", "l", 0.4, 0.5, 0.05).z_score == pytest.approx(-2.0)


class TestRunValidation:
    def test_model_column_is_pure_composition(self):
        grid = SweepGrid((0.2, 0.3), (1, 3), trials=5_000, master_seed=4)
        rows = run_validation(grid)
        assert [(r.q, r.z) for r in rows] == [(0.2, 1), (0.2, 3), (0.3, 1), (0.3, 3)]
        for row in rows:
            expected = attack_success(
                AttackQuery(MiningPowerSplit(row.q), row.z, Variant.BUDGETED)
            )
            assert row.model_prob == expected
            assert row.abs_error == abs(row.model_prob - row.sim_prob)
            if row.sim_prob > 0:
                assert row.rel_error == pytest.approx(row.abs_error / row.sim_prob)

    def test_deterministic_rows(self):
        grid = SweepGrid((0.25,), (2, 4), trials=20_000, master_seed=9)
        assert run_validation(grid) == run_validation(grid)

    def test_extending_axes_never_perturbs_existing_cells(self):
        small = SweepGrid((0.2, 0.3), (1, 3), trials=10_000, master_seed=6)
        large = SweepGrid((0.2, 0.3), (1, 3, 6), trials=10_000, master_seed=6)
        small_rows = {(r.q, r.z): r for r in run_validation(small)}
        large_rows = {(r.q, r.z): r for r in run_validation(large)}
        for key, row in small_rows.items():
            assert large_rows[key] == row

    def test_pinned_cell_has_small_absolute_error(self):
        grid = SweepGrid((0.25,), (3,), trials=100_000, master_seed=2)
        (row,) = run_validation(grid)
        assert row.abs_error < 0.04

    def test_rare_event_cells_report_relative_error_honestly(self):
        # At q=0.05, z=3 the model is off by an O(1) relative factor; at z=8
        # wins are so rare the estimate is zero and rel_error must be absent.
        grid = SweepGrid((0.05,), (3, 8), trials=1_000_000, master_seed=11)
        by_z = {row.z: row for row in run_validation(grid)}
        assert by_z[3].sim_prob > 0
        assert by_z[3].rel_error is not None and by_z[3].rel_error > 0.3
        assert by_z[8].sim_prob == 0.0
        assert by_z[8].rel_error is None


@pytest.fixture(scope="module")
def report():
    return component_attribution(MiningPowerSplit(0.25), 3, 35, 200_000, 314)


class TestComponentAttribution:
    def test_catch_up_component_is_clean(self, report):
        assert len(report.catch_up) == 4
        for row in report.catch_up:
            assert abs(row.z_score) <= 3.0, row

    def test_rate_component_is_clean(self, report):
        assert abs(report.mean_k.z_score) <= 3.0

    def test_poisson_density_is_the_outlier(self, report):
        assert report.total_variation.z_score > 5.0

    def test_hybrid_model_agrees_with_simulation(self, report):
        assert abs(report.hybrid.z_score) <= 3.0

    def test_report_rows_cover_all_components(self, report):
        components = {row.component for row in report.rows()}
        assert components == {"catch_up", "mean_k", "k_pmf", "hybrid"}

    def test_catch_up_cells_equal_single_cell_runs(self):
        power, z, surplus, trials, seed = MiningPowerSplit(0.35), 6, 20, 500, 81
        report = component_attribution(power, z, surplus, trials, seed)
        assert [row.observed for row in report.catch_up] == [
            empirical_catch_up(
                power, [(z + 1 - k, z + surplus - k, derive_seed(seed, 1, k))], trials
            )[0]
            for k in range(z + 1)
        ]

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            component_attribution(MiningPowerSplit(0.25), 0, 35, 100, 0)

    def test_grid_runs_each_cell_with_its_derived_seed_and_skips_zero_depth(self):
        grid = SweepGrid(
            (0.2, 0.35), (0, 2, 3), budget_surplus=20, trials=300, master_seed=17
        )
        reports = run_attribution(grid)
        assert [(r.q, r.z) for r in reports] == [(0.2, 2), (0.2, 3), (0.35, 2), (0.35, 3)]
        assert reports == [
            component_attribution(
                MiningPowerSplit(q), z, 20, 300, derive_seed(17, qi, zi, 1)
            )
            for qi, q in enumerate(grid.q_values)
            for zi, z in enumerate(grid.z_values)
            if z
        ]

    def test_hybrid_reduces_error_wherever_model_is_biased(self):
        # The quantitative form of "the Poisson density is the error source":
        # re-weighting by the empirical k law must shrink the error on at
        # least 90% of cells where the model misses by more than 2 sigma.
        improved = biased = 0
        for qi, q in enumerate((0.1, 0.2, 0.3, 0.4)):
            power = MiningPowerSplit(q)
            for zi, z in enumerate((1, 3, 6)):
                trials = 100_000
                race = run_trials(
                    TrialConfig(power, z), trials, derive_seed(500, qi, zi)
                )
                model = attack_success(AttackQuery(power, z, Variant.BUDGETED))
                if abs(race.success_rate - model) <= 2.0 * race.std_err:
                    continue
                k_dist = empirical_k_distribution(
                    power, z, trials, derive_seed(501, qi, zi)
                )
                hybrid = sum(
                    w
                    * (
                        1.0
                        if k >= z + 1
                        else catch_up_limited(z + 1 - k, z + 35 - k, power)
                    )
                    for k, w in k_dist.items()
                )
                biased += 1
                improved += abs(hybrid - race.success_rate) < abs(
                    model - race.success_rate
                )
        assert biased >= 6  # the bias is the rule, not the exception
        assert improved >= math.ceil(0.9 * biased)


class TestOneEngineCallPerCell:
    """A cell's row race, attribution race, k-distribution wait and catch-up
    cells share one wait pass and one chase pass, yet each equals its own
    separate run."""

    # z = 0 and z >= 1 cells, q on both sides of 1/2.
    GRID = SweepGrid((0.3, 0.6), (0, 1, 4), budget_surplus=12, trials=400, master_seed=23)

    def test_rows_and_reports_equal_separate_runs(self):
        grid = self.GRID
        rows, reports = run_validation(grid), iter(run_attribution(grid))
        cells = [(qi, q, zi, z) for qi, q in enumerate(grid.q_values)
                 for zi, z in enumerate(grid.z_values)]
        for row, (qi, q, zi, z) in zip(rows, cells, strict=True):
            power = MiningPowerSplit(q)
            config = TrialConfig(power, z, 12)
            race = run_trials(config, 400, derive_seed(23, qi, zi))
            assert (row.q, row.z, row.sim_prob, row.sim_std_err) == (
                q, z, race.success_rate, race.std_err
            )
            if z == 0:
                continue
            report = next(reports)
            seed = derive_seed(23, qi, zi, 1)
            assert report == component_attribution(power, z, 12, 400, seed)
            race = run_trials(config, 400, derive_seed(seed, 3))
            assert (report.sim_prob, report.sim_std_err, report.hybrid.expected) == (
                race.success_rate, race.std_err, race.success_rate
            )
            k_dist = empirical_k_distribution(power, z, 400, derive_seed(seed, 2))
            assert [(row.label, row.observed) for row in report.k_pmf] == [
                (f"k={k}", w) for k, w in k_dist.items()
            ]
            catch_cells = [
                (z + 1 - k, z + 12 - k, derive_seed(seed, 1, k)) for k in range(z + 1)
            ]
            assert [row.observed for row in report.catch_up] == empirical_catch_up(
                power, catch_cells, 400
            )
        assert next(reports, None) is None

    @pytest.mark.parametrize("max_blocks", [4, 40])
    def test_fused_races_equal_separate_runs_under_the_flip_cap(self, monkeypatch, max_blocks):
        # A cap of 4 flips caps waits; one of 40 caps chases that drift away.
        monkeypatch.setattr(simulate_module, "DEFAULT_MAX_BLOCKS", max_blocks)
        calls = []

        def engine(*args):
            calls.append((args, simulate_module._simulate(*args)))
            return calls[-1][1]

        monkeypatch.setattr(validate_module, "_simulate", engine)
        grid = SweepGrid((0.45,), (3,), budget_surplus=200, trials=600, master_seed=5)
        validate_module._sweep(grid, rows=True, reports=True)
        ((config, trials, races, waits, cells), (results, k_dists, rates)), = calls
        report_seed = derive_seed(5, 0, 0, 1)
        assert races == [derive_seed(5, 0, 0), derive_seed(report_seed, 3)]
        assert results == [run_trials(config, trials, seed) for seed in races]
        assert all(result.capped_count for result in results)
        assert k_dists == [
            empirical_k_distribution(config.power, config.z, trials, seed) for seed in waits
        ]
        assert rates == empirical_catch_up(config.power, cells, trials)
