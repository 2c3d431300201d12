"""Monte Carlo simulation of the two-phase double-spend race.

A trial flips one coin per block: the attacker finds it with probability q,
the honest miners with p = 1 - q.  Phase 1 (the wait) runs until the honest
miners have found z blocks; the attacker's tally during that time is k.
Phase 2 (the chase) starts from a deficit of z + 1 - k, since the attacker
must end strictly ahead; if the deficit is already <= 0 the trial is an
immediate win.  The chase ends as a win when the deficit reaches 0, and as a
loss when it reaches its starting value plus the remaining loss budget
z + budget_surplus - k.  No formula from the closed-form model decides any
trial; everything is coin flips.

Each phase is one vectorized kernel.  _wait_phase returns every trial's k;
_chase_phase walks deficits to absorption.  run_trials runs the wait, then
chases the trials that need it, continuing trial t's stream at draw z + k.
empirical_k_distribution is the wait alone and empirical_catch_up the chase
alone.  Trial t draws its coins from a counter-based substream keyed by
(master_seed, t), so results are bit-identical for a given

    (config, trials, master_seed)

regardless of batch size, execution order, or parallelism.  Aggregation is
counts only, hence order-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import MiningPowerSplit, DEFAULT_BUDGET_SURPLUS
from .rng import (
    TrialStream,
    advance_keys,
    bernoulli_threshold,
    mix64_array,
    step_offset,
    trial_keys,
)

__all__ = [
    "SimulationResult",
    "TrialConfig",
    "TrialRecord",
    "empirical_catch_up",
    "empirical_k_distribution",
    "run_trials",
    "simulate_trial",
]

DEFAULT_MAX_BLOCKS = 1_000_000

# Vector width per batch; outcomes are independent of this value.
_BATCH_TRIALS = 1 << 20
_FLIP_LIMIT = 2**60  # more coin flips than any run makes


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one simulated race.

    max_blocks is a per-trial safety cap on total coin flips; with any sane
    budget the race absorbs long before it.  Capped trials are counted and
    reported, never dropped.
    """

    power: MiningPowerSplit
    z: int
    budget_surplus: int = DEFAULT_BUDGET_SURPLUS
    max_blocks: int = DEFAULT_MAX_BLOCKS

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError("confirmation depth z must be >= 0")
        if self.budget_surplus < 1:
            raise ValueError("budget_surplus must be >= 1")
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    """Observables of a single trial."""

    k_during_wait: int
    attacker_won: bool
    blocks_elapsed: int
    capped: bool

    def __post_init__(self) -> None:
        if self.attacker_won and self.capped:
            raise ValueError("a capped trial cannot be a win")


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over independent trials of one TrialConfig."""

    config: TrialConfig
    trials: int
    wins: int
    k_histogram: dict[int, int] = field(compare=True)
    master_seed: int = 0
    capped_count: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.wins <= self.trials:
            raise ValueError("wins must be in [0, trials]")
        if sum(self.k_histogram.values()) != self.trials:
            raise ValueError("k_histogram must account for every trial")

    @property
    def success_rate(self) -> float:
        return self.wins / self.trials

    @property
    def std_err(self) -> float:
        r = self.success_rate
        return math.sqrt(r * (1.0 - r) / self.trials)

    @property
    def mean_k(self) -> float:
        return sum(k * n for k, n in self.k_histogram.items()) / self.trials

    @property
    def k_variance(self) -> float:
        m = self.mean_k
        sq = sum(k * k * n for k, n in self.k_histogram.items()) / self.trials
        return sq - m * m


def simulate_trial(rng_stream: TrialStream, config: TrialConfig) -> TrialRecord:
    """Run one race on the given substream; bit-exact replay of the batch engine."""
    z, surplus = config.z, config.budget_surplus
    threshold = bernoulli_threshold(config.power.q)
    h = k = draws = 0
    while h < z:
        if draws == config.max_blocks:
            return TrialRecord(k, False, draws, True)
        if rng_stream.next_bernoulli(threshold):
            k += 1
        else:
            h += 1
        draws += 1
    deficit = z + 1 - k
    if deficit <= 0:
        return TrialRecord(k, True, draws, False)
    loss_at = deficit + (z + surplus - k)
    d = deficit
    while True:
        if d == 0:
            return TrialRecord(k, True, draws, False)
        if d == loss_at:
            return TrialRecord(k, False, draws, False)
        if draws == config.max_blocks:
            return TrialRecord(k, False, draws, True)
        d += -1 if rng_stream.next_bernoulli(threshold) else 1
        draws += 1


def _batches(trials: int):
    for start in range(0, trials, _BATCH_TRIALS):
        yield start, min(_BATCH_TRIALS, trials - start)


def _fold_histogram(histogram: dict[int, int], k: np.ndarray) -> None:
    for kk, n in enumerate(np.bincount(k)):
        if n:
            histogram[kk] = histogram.get(kk, 0) + int(n)


def _keep(keep: np.ndarray, *state):
    """Each per-stream array in state compacted to keep; scalars pass through."""
    return [x[keep] if isinstance(x, np.ndarray) else x for x in state]


def _wait_phase(
    keys: np.ndarray, threshold: np.uint64, z: int, max_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flip each stream's coins until its z-th honest block; returns (k, capped).

    k[i] counts attacker blocks before stream i's z-th honest block, so the
    wait used z + k[i] draws.  A stream still short of z honest blocks after
    max_blocks flips is capped and keeps the k it reached; that is exactly
    where z + k[i] > max_blocks.
    """
    k_out = np.zeros(keys.size, dtype=np.int64)
    pos = np.arange(keys.size)
    k = np.zeros(keys.size, dtype=np.int64)
    step = 0
    while z > 0 and keys.size and step < max_blocks:  # z = 0 needs no flip
        k += mix64_array(keys + np.uint64(step_offset(step))) < threshold
        step += 1
        if step >= z:
            done = k == step - z  # step - k honest blocks so far
            if np.count_nonzero(done):
                k_out[pos[done]] = k[done]
                keys, pos, k = _keep(~done, keys, pos, k)
    k_out[pos] = k
    return k_out, k_out > max_blocks - z


def _chase_phase(keys, threshold: np.uint64, d, loss_at, cap) -> tuple[int, int]:
    """Walk each deficit d until it wins at 0, loses at loss_at or makes cap flips.

    An attacker block lowers the deficit by one and an honest block raises
    it.  d, loss_at and cap are each a scalar shared by every walk or an
    array with one entry per walk; shared barriers stay scalars, and cap is
    compared only once the step count reaches the smallest one.  Returns
    (wins, capped).
    """
    d = np.broadcast_to(d, keys.shape).astype(np.int64)
    wins = capped = step = 0
    cap_floor = np.min(cap, initial=_FLIP_LIMIT)
    while keys.size:
        if step >= cap_floor:
            spent = np.broadcast_to(cap <= step, keys.shape)
            capped += int(np.count_nonzero(spent))
            keys, d, loss_at, cap = _keep(~spent, keys, d, loss_at, cap)
            cap_floor = np.min(cap, initial=_FLIP_LIMIT)
            continue
        attacker = mix64_array(keys + np.uint64(step_offset(step))) < threshold
        d -= attacker  # in place, as -2 * attacker + 1 would allocate twice
        d -= attacker
        d += 1
        step += 1
        caught = d == 0
        finished = caught | (d == loss_at)
        if np.count_nonzero(finished):
            wins += int(np.count_nonzero(caught))
            keys, d, loss_at, cap = _keep(~finished, keys, d, loss_at, cap)
    return wins, capped


def run_trials(config: TrialConfig, trials: int, master_seed: int) -> SimulationResult:
    """Aggregate independent trials; deterministic in (config, trials, master_seed)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # No run makes _FLIP_LIMIT flips, so larger values act alike; clamped, the
    # chase's barriers and caps fit int64.
    limits = (config.z, config.budget_surplus, config.max_blocks)
    z, surplus, max_blocks = (min(v, _FLIP_LIMIT) for v in limits)
    threshold = np.uint64(bernoulli_threshold(config.power.q))
    wins = capped = 0
    histogram: dict[int, int] = {}
    for start, count in _batches(trials):
        keys = trial_keys(master_seed, count, start=start)
        k, wait_capped = _wait_phase(keys, threshold, z, max_blocks)
        # A trial capped in the wait may already have k > z; it is capped, not won.
        chase = ~wait_capped & (k <= z)
        kc = k[chase]
        chase_wins, chase_capped = _chase_phase(
            advance_keys(keys[chase], z + kc),
            threshold,
            z + 1 - kc,
            2 * (z - kc) + 1 + surplus,
            max_blocks - z - kc,
        )
        n_wait_capped = int(np.count_nonzero(wait_capped))
        wins += chase_wins + count - kc.size - n_wait_capped
        capped += chase_capped + n_wait_capped
        _fold_histogram(histogram, k)
    return SimulationResult(config, trials, wins, histogram, master_seed, capped)


def empirical_catch_up(
    power: MiningPowerSplit,
    deficit: int,
    budget: int,
    trials: int,
    master_seed: int,
    max_blocks: int = DEFAULT_MAX_BLOCKS,
) -> float:
    """Win fraction of pure chase-phase walks: win at 0, lose at deficit + budget.

    Validates the catch-up component of the model independently of the
    Poisson component.  A deficit of 0 is an immediate win.  Trials that hit
    the block cap (essentially impossible with a finite budget) count as
    losses.
    """
    if deficit < 0:
        raise ValueError("deficit must be >= 0")
    if deficit == 0:
        return 1.0
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threshold = np.uint64(bernoulli_threshold(power.q))
    wins = 0
    for start, count in _batches(trials):
        keys = trial_keys(master_seed, count, start=start)
        wins += _chase_phase(keys, threshold, deficit, deficit + budget, max_blocks)[0]
    return wins / trials


def empirical_k_distribution(
    power: MiningPowerSplit,
    z: int,
    trials: int,
    master_seed: int,
    max_blocks: int = DEFAULT_MAX_BLOCKS,
) -> dict[int, float]:
    """Normalized histogram of attacker blocks mined while honest miners reach z.

    Wait-phase-only simulation.  Under the per-block coin-flip model the true
    law of k is negative binomial, not Poisson; this instrument is what makes
    that gap observable.  Capped trials count at the k they reached, so the
    weights still sum to one.
    """
    if z < 1:
        raise ValueError("z must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    threshold = np.uint64(bernoulli_threshold(power.q))
    histogram: dict[int, int] = {}
    for start, count in _batches(trials):
        keys = trial_keys(master_seed, count, start=start)
        _fold_histogram(histogram, _wait_phase(keys, threshold, z, max_blocks)[0])
    return {kk: n / trials for kk, n in sorted(histogram.items())}
