"""Model-vs-simulation validation: error surfaces and error attribution.

run_validation sweeps a (q, z) grid, computing the closed-form attack success
and the Monte Carlo estimate side by side with absolute and relative errors.

component_attribution breaks the budgeted model into its three components and
tests each one against the simulator separately (run_attribution does so at
every cell of a grid):

  (a) the catch-up probabilities, at exactly the deficit/budget pairs the
      budgeted sum uses;
  (b) the progress rate lambda = z*q/p, against the empirical mean of k;
  (c) the Poisson pmf, against the empirical distribution of k (including a
      total-variation distance).

It also evaluates a hybrid model: the budgeted sum re-weighted by the
empirical k distribution instead of the Poisson pmf.  The hybrid agreeing
with the simulation while (c) fails is what pins the model's error on the
Poisson density rather than on the catch-up term or the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    AttackQuery,
    MiningPowerSplit,
    Variant,
    attack_success,
    attack_summands,
    poisson_pmf,
    poisson_rate,
    DEFAULT_BUDGET_SURPLUS,
)
from .rng import derive_seed
from .simulate import TrialConfig, _binomial_se, _check_trials, _simulate

__all__ = [
    "AttributionReport",
    "ComparisonRow",
    "SweepGrid",
    "ValidationRow",
    "component_attribution",
    "run_attribution",
    "run_validation",
]


@dataclass(frozen=True)
class SweepGrid:
    """Axes and settings of a validation sweep; every cell's TrialConfig and
    the trial count pass their checks on construction, before any cell runs."""

    q_values: tuple[float, ...]
    z_values: tuple[int, ...]
    variant: Variant = Variant.BUDGETED
    budget_surplus: int = DEFAULT_BUDGET_SURPLUS
    trials: int = 100_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "q_values", tuple(self.q_values))
        object.__setattr__(self, "z_values", tuple(self.z_values))
        least_z = min(self.z_values, default=0)
        for q in self.q_values:  # the owners' checks first: a nan q sorts anywhere
            TrialConfig(MiningPowerSplit(q), least_z, self.budget_surplus)
        _check_trials(self.trials)
        for name, values in ("q_values", self.q_values), ("z_values", self.z_values):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if list(values) != sorted(set(values)):
                raise ValueError(f"{name} must be ascending and duplicate-free")


@dataclass(frozen=True)
class ValidationRow:
    """One grid cell: model vs simulation with error metrics.

    rel_error is None when the simulation estimate is zero (undefined, not 0).
    """

    q: float
    z: int
    model_prob: float
    sim_prob: float
    sim_std_err: float
    abs_error: float
    rel_error: float | None
    trials: int


def run_validation(grid: SweepGrid) -> list[ValidationRow]:
    """Evaluate every (q, z) cell; deterministic for a fixed grid.

    Each cell's simulation seed is derived from (master_seed, q index,
    z index), so appending values to either axis never perturbs existing
    cells.
    """
    return _sweep(grid, rows=True, reports=False)[0]


@dataclass(frozen=True)
class ComparisonRow:
    """One empirical-vs-model comparison with its standard error."""

    component: str
    label: str
    observed: float
    expected: float
    std_err: float

    @property
    def z_score(self) -> float:
        if self.std_err > 0.0:
            return (self.observed - self.expected) / self.std_err
        return 0.0 if self.observed == self.expected else math.inf


@dataclass(frozen=True)
class AttributionReport:
    """Component-wise error attribution at one (q, z) point."""

    q: float
    z: int
    budget_surplus: int
    trials: int
    master_seed: int
    model_prob: float
    sim_prob: float
    sim_std_err: float
    catch_up: tuple[ComparisonRow, ...]
    mean_k: ComparisonRow
    k_pmf: tuple[ComparisonRow, ...]
    total_variation: ComparisonRow
    hybrid: ComparisonRow

    def rows(self) -> list[ComparisonRow]:
        return [
            *self.catch_up,
            self.mean_k,
            *self.k_pmf,
            self.total_variation,
            self.hybrid,
        ]


def component_attribution(
    power: MiningPowerSplit,
    z: int,
    budget_surplus: int,
    trials: int,
    master_seed: int,
) -> AttributionReport:
    """Compare each model component against its empirical counterpart.

    The catch-up runs, the k-distribution run, and the success-rate run use
    distinct seeds derived from master_seed, so the comparisons are
    statistically independent, though all their walks share one chase pass
    and, tile by tile, its wait walks.  z must be >= 1.
    """
    return _cell(TrialConfig(power, z, budget_surplus), trials, [], master_seed)[1]


def _cell(config: TrialConfig, trials: int, races: list[int], report_seed: int):
    """(a SimulationResult per race seed, component_attribution's report from
    report_seed), from one engine call."""
    power, z, budget_surplus = config.power, config.z, config.budget_surplus
    # (a) catch-up at the deficit/budget pairs the budgeted sum uses
    cells = [
        (z + 1 - k, z + budget_surplus - k, derive_seed(report_seed, 1, k))
        for k in range(z + 1)
    ]
    # (b) and (c): one wait-phase run feeds the mean and the distribution
    races, waits = [*races, derive_seed(report_seed, 3)], [derive_seed(report_seed, 2)]
    (*races, race), (k_dist,), rates = _simulate(config, trials, races, waits, cells)
    rate = poisson_rate(z, power)
    query = AttackQuery(power, z, Variant.BUDGETED, budget_surplus)
    # The budgeted sum's catch-up at k = 0..z+1; at k = z+1 it is 1.0.
    catch = [row.catch_up for row in attack_summands(query)]
    catch_rows = [
        ComparisonRow(
            component="catch_up",
            label=f"deficit={deficit},budget={budget}",
            observed=observed,
            expected=expected,
            std_err=_binomial_se(expected, trials),
        )
        for (deficit, budget, _), observed, expected in zip(cells, rates, catch)
    ]

    mean_k = sum(k * w for k, w in k_dist.items())
    var_k = sum(k * k * w for k, w in k_dist.items()) - mean_k * mean_k
    mean_row = ComparisonRow(
        component="mean_k",
        label="mean_k",
        observed=mean_k,
        expected=rate,
        std_err=math.sqrt(max(var_k, 0.0) / trials),
    )

    pmf_rows = []
    tvd_twice = 0.0
    sign_mass = 0.0
    for k, w in k_dist.items():
        expected = poisson_pmf(k, rate)
        pmf_rows.append(
            ComparisonRow(
                component="k_pmf",
                label=f"k={k}",
                observed=w,
                expected=expected,
                std_err=_binomial_se(expected, trials),
            )
        )
        tvd_twice += abs(w - expected)
        sign_mass += w if w > expected else -w
    poisson_tail = 1.0 - sum(row.expected for row in pmf_rows)
    tvd_twice += max(poisson_tail, 0.0)  # mass at k values never observed
    # Delta-method SE of the plug-in total-variation estimator.
    tvd_se = math.sqrt(max(1.0 - sign_mass * sign_mass, 0.0) / (4.0 * trials))
    tvd_row = ComparisonRow(
        component="k_pmf",
        label="total_variation",
        observed=0.5 * tvd_twice,
        expected=0.0,
        std_err=tvd_se,
    )

    # Hybrid model: the budgeted sum re-weighted by the empirical k law.
    hybrid = sum(w * catch[min(k, z + 1)] for k, w in k_dist.items())
    hybrid_sq = sum(w * catch[min(k, z + 1)] ** 2 for k, w in k_dist.items())
    hybrid_se = math.sqrt(max(hybrid_sq - hybrid * hybrid, 0.0) / trials)

    hybrid_row = ComparisonRow(
        component="hybrid",
        label="success_rate",
        observed=hybrid,
        expected=race.success_rate,
        std_err=math.sqrt(hybrid_se**2 + race.std_err**2),
    )

    return races, AttributionReport(
        q=power.q,
        z=z,
        budget_surplus=budget_surplus,
        trials=trials,
        master_seed=report_seed,
        model_prob=attack_success(query),
        sim_prob=race.success_rate,
        sim_std_err=race.std_err,
        catch_up=tuple(catch_rows),
        mean_k=mean_row,
        k_pmf=tuple(pmf_rows),
        total_variation=tvd_row,
        hybrid=hybrid_row,
    )


def run_attribution(grid: SweepGrid) -> list[AttributionReport]:
    """component_attribution of the budgeted model at every cell with z >= 1.

    Cell (q index, z index) seeds from (master_seed, q index, z index, 1).
    """
    return _sweep(grid, rows=False, reports=True)[1]


def _sweep(
    grid: SweepGrid, rows: bool, reports: bool
) -> tuple[list[ValidationRow], list[AttributionReport]]:
    """run_validation's rows and run_attribution's reports, either or both,
    from at most one engine call per cell: none for a cell with neither."""
    out_rows, out_reports, seed, surplus = [], [], grid.master_seed, grid.budget_surplus
    for qi, q in enumerate(grid.q_values):
        power = MiningPowerSplit(q)
        for zi, z in enumerate(grid.z_values):
            config = TrialConfig(power, z, surplus)
            races = [derive_seed(seed, qi, zi)] if rows else []
            if reports and z >= 1:  # attribution needs a non-empty waiting phase
                report_seed = derive_seed(seed, qi, zi, 1)
                races, report = _cell(config, grid.trials, races, report_seed)
                out_reports.append(report)
            elif races:
                races = _simulate(config, grid.trials, races)[0]
            for sim in races:
                model = attack_success(AttackQuery(power, z, grid.variant, surplus))
                rate, error = sim.success_rate, abs(model - sim.success_rate)
                relative = error / rate if rate > 0 else None
                out_rows.append(ValidationRow(
                    q, z, model, rate, sim.std_err, error, relative, grid.trials
                ))
    return out_rows, out_reports
