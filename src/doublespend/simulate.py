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

One vectorized kernel, _walk, runs both phases: it moves an int32 d from
above 0 until it reaches 0, its loss barrier or its flip cap.  A wait counts
down the z honest blocks due from d = z, so its k is flips - z + d; a chase
walks the deficit.  No walk moves past its flip cap, so depths, deficits and
budgets are clamped to the cap + 1, where larger values act alike, and the
state fits int32.  One engine, _simulate, runs races (the wait, then a chase
that continues trial t's stream at draw z + k), waits alone and catch-up
cells (chases alone): over a range of trials, _counts walks each tile of
every wait, and one chase pass over the races' chases and then the cells'
walks, and returns integer counts only.  run_trials is one race,
empirical_k_distribution one wait and empirical_catch_up a list of cells;
validate feeds a grid cell's races, wait and cells to one call.  The kernel
takes walks in tiles of at most _BATCH_WALKS, so its per-walk arrays stay
cache-resident and the working set does not grow with the trial count.
Walks are capped after DEFAULT_MAX_BLOCKS flips, read once per call, which
must lie in [0, _CAP_LIMIT).  A finished or capped walk is recorded, then
parked: it stays in the arrays, drawn for but never matched again, until a
quarter of them are parked or a tile joins, and only then do they compact.
Once few walks are left, the kernel draws a block of flips per walk in one
call and finds each walk's end in their cumulative sums; later draws are
wasted.

A call of at least two shards' worth of walks (_SHARD_WALKS each, counting
every trial of every race, wait and catch-up cell) splits its trials into
contiguous ranges, one per CPU in os.sched_getaffinity(0) at most, and the
engine sums their counts.  The calling process counts the first range and a
kept worker each other one.  A worker is an os.fork child, forked the first
time a call needs it and kept until exit, so the pool holds at most one
fewer than the usable CPUs; it reads each task, _counts's arguments with
the call's flip cap among them, pickled from a pipe, holds its own tiles in
memory and sends back integer counts only.  Only the process that forked
the pool uses it (a forked child drops it), and one thread at a time: a
call that finds the pool busy counts every range itself.  Exit kills and
reaps the workers; an owner killed without exit handlers ends them too, by
EOF on their task pipes.  `taskset -c 0` pins a run to one CPU, and so to
one process; where os.sched_getaffinity is missing, every call runs in one.
numpy's import already starts a second thread, so Python 3.12+ warns on
os.fork, once per worker; the workers run only numpy ufuncs and pickle, and
leave with os._exit.

Trial t draws its coins from a counter-based substream keyed by (master_seed,
t), and a walk's key advances along it flip by flip, so results are
bit-identical for a given

    (config, trials, master_seed)

at any tile size, execution order, or CPU count.  Aggregation is counts
only, hence order-insensitive, and histogram keys ascend.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import math
import os
import pickle
import threading
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .model import AttackQuery, MiningPowerSplit, DEFAULT_BUDGET_SURPLUS, _check_catch_up
from .rng import _check_seed, advance_keys, bernoulli_threshold, mix64_array, trial_keys

__all__ = [
    "SimulationResult",
    "TrialConfig",
    "empirical_catch_up",
    "empirical_k_distribution",
    "run_trials",
]

DEFAULT_MAX_BLOCKS = 1_000_000

# Walks per tile; outcomes are independent of this value.  At about 70 B
# per walk (a uint64 key, int32 deficit, barrier, cap and label, their
# compacted copies and the mix64 temporaries) a tile, plus the eighth of one
# the kernel carries over, stays inside a 2 MiB L2.
_BATCH_WALKS = 1 << 14
# A finished or capped walk's d is set to _PARKED and left in the arrays: a
# cap's worth of steps cannot bring it back to 0, so no barrier matches it
# again.  The arrays compact once _LIVE_FRACTION or less of them is live.
_PARKED = -(2**30)
_LIVE_FRACTION = 0.75
# Caps stay below this, so barriers (up to 2 * (cap + 1)) and parked d fit int32.
_CAP_LIMIT = 2**30 - 1
# Walks a shard gets at least.  On a 2-vCPU Xeon a task sent to a kept
# worker costs about 1.5 ms (a 64-trial race: 1.7 ms here, 3.2 ms sharded);
# split in two, grid-cell calls of 2,000-4,000 walks saved 3-24%, within the
# host's swings, and calls of 8,000 saved 15-29% (BENCH_23.json).
_SHARD_WALKS = 4096
# Kept workers, (pid, write end of the task pipe, reply reader), forked on
# demand, and the lock a call holds while it uses them.
_pool: list[tuple] = []
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one simulated budgeted race; AttackQuery runs its checks.

    run_trials caps each trial at DEFAULT_MAX_BLOCKS coin flips, read once per
    call, which a race with any sane budget absorbs long before.  Capped
    trials are counted and reported, never dropped.
    """

    power: MiningPowerSplit
    z: int
    budget_surplus: int = DEFAULT_BUDGET_SURPLUS

    def __post_init__(self) -> None:
        AttackQuery(self.power, self.z, budget_surplus=self.budget_surplus)


def _binomial_se(prob: float, trials: int) -> float:
    """Standard error of a success fraction prob over trials draws."""
    return math.sqrt(prob * (1.0 - prob) / trials)


@dataclass(frozen=True)
class SimulationResult:
    """Aggregates over independent trials of one TrialConfig; run_trials
    builds k_histogram with its keys in ascending order."""

    config: TrialConfig
    trials: int
    wins: int
    k_histogram: dict[int, int]
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
        return _binomial_se(self.success_rate, self.trials)

    @property
    def mean_k(self) -> float:
        return sum(k * n for k, n in self.k_histogram.items()) / self.trials


def _check_trials(trials: int) -> None:
    if not 1 <= trials < 2**64:  # trial t's stream key is built from t + 1 < 2**64
        raise ValueError("trials must be >= 1" if trials < 1 else "trials must be < 2**64")


def _tiles(seeds: list[int], start: int, stop: int):
    """(count, keys) per tile: the stream keys of one trial range of every seed.

    The ranges split trials start..stop - 1; each holds at most _BATCH_WALKS
    walks across the seeds, but at least one trial, and they differ in size by
    at most one, so no small leftover tile pays a full tile's steps.  No seeds
    or no trials, no tiles.
    """
    trials = stop - start
    tiles = -(-trials // max(1, _BATCH_WALKS // len(seeds))) if seeds else 0
    for i in range(tiles):
        first = start + i * trials // tiles
        count = start + (i + 1) * trials // tiles - first
        yield count, np.concatenate([trial_keys(s, count, start=first) for s in seeds])


def _block_rows(walks: int) -> int:
    """Flips per walk in a tail block, which holds no more draws than a tile."""
    return _BATCH_WALKS // walks


def _attacker_counts(keys: np.ndarray, threshold: np.uint64, rows: int):
    """(rows, walks) attacker-block counts; row j counts each key's next j + 1 draws."""
    draws = advance_keys(keys, np.arange(1, rows + 1)[:, None])
    return np.cumsum(mix64_array(draws) < threshold, axis=0)


def _keep(keep: np.ndarray, live: int, *state):
    """Per-walk arrays compacted to keep; a slipped live count fails, not spins."""
    keep = np.flatnonzero(keep)  # one scan of the mask, then a take per array
    state = [x.take(keep) for x in state]
    if state[0].size != live:
        raise RuntimeError(f"{live} walks are live but {state[0].size} were kept")
    return state


def _join(rest, fresh):
    """Carried walks followed by a fresh tile's."""
    return tuple(map(np.concatenate, zip(rest, fresh)))


def _chase(keys, used, deficit, budget, label, cap):
    """Chase walks, one per stream of keys, from its draw used on: d starts at
    deficit, wins at 0, loses at deficit + budget, and the stream's whole run
    is capped at cap flips, the call's flip cap; no walk spends a budget of
    cap + 1, so larger ones are clamped to it."""
    loss_at = deficit + np.minimum(budget, cap + 1)
    return advance_keys(keys, used), deficit, loss_at, cap - used, label


def _walk(threshold: np.uint64, tiles, honest: int, attacker: int):
    """Walk each d from above 0 until it reaches 0, its loss barrier or its flip cap.

    tiles yields walks tuples (keys, d, loss_at, cap, label), each field an
    array with one entry per walk: uint64 stream keys, then int32 d (updated
    in place), loss barriers, flip caps and labels.  A key holds its stream's
    position: a walk's next flip is the draw after it, the key advances with
    each flip, and a join carries it as it is.  Each flip adds honest to d, or attacker
    on an attacker block: (+1, -1) walks a chase's deficit, (-1, 0) counts
    down the honest blocks a wait still needs.  cap is compared only once the
    step count reaches the smallest live one.
    The next tile joins once _BATCH_WALKS // 8 or fewer walks are left, so
    the few long walks of a near-fair race share a loop of numpy calls with
    the next tile instead of holding one to themselves.  A walk that ends or
    spends its cap has d parked at _PARKED, below any barrier; the arrays
    compact lazily, once _LIVE_FRACTION or less of them is live, or before a
    join, so a join carries live walks only.  With no tile left and
    _BATCH_WALKS // 16 or fewer live, the arrays compact and each loop walks a
    block of flips that ends by the next cap.

    Yields (capped, label, flips, d) for the walks that reach 0 (capped False,
    d = 0) or spend their cap (capped True, d > 0); label is an array, flips
    and d are arrays or scalars.  flips count from the walk's join, so they
    are its own unless it was carried into a later tile.  Walks that lose at
    their barrier are not reported.
    """
    move = np.add if attacker > honest else np.subtract
    tiles = iter(tiles)
    keys = np.empty(0, dtype=np.uint64)
    d = loss_at = cap = label = np.empty(0, dtype=np.int32)
    one_draw = advance_keys(np.uint64(0), 1)
    step = live = 0
    cap_floor = _CAP_LIMIT
    more = True
    while live or more:
        joining = more and live <= _BATCH_WALKS // 8
        blocking = not more and live <= _BATCH_WALKS // 16
        if live < keys.size and (joining or blocking or live <= _LIVE_FRACTION * keys.size):
            keys, d, loss_at, cap, label = _keep(d > 0, live, keys, d, loss_at, cap, label)
        if joining:
            fresh = next(tiles, None)
            more = fresh is not None
            if more:
                if live:
                    fresh = _join((keys, d, loss_at, cap - step, label), fresh)
                keys, d, loss_at, cap, label = fresh
                fresh = None  # the walk arrays alone hold the tile, so compaction frees it
                live, step = keys.size, 0
                cap_floor = np.min(cap, initial=_CAP_LIMIT)
            continue
        if step >= cap_floor:
            running = d > 0
            spent = running & (cap <= step)
            yield True, label[spent], step, d[spent]
            live -= int(np.count_nonzero(spent))
            d[spent] = _PARKED
            cap_floor = np.min(cap, where=running & ~spent, initial=_CAP_LIMIT)
            continue
        if blocking:
            rows = min(_block_rows(live), cap_floor - step)
            walk = d + honest * np.arange(1, rows + 1)[:, None]
            walk += (attacker - honest) * _attacker_counts(keys, threshold, rows)
            keys = advance_keys(keys, rows)
            ends = (walk == 0) | (walk == loss_at)
            ends[-1] = True  # a walk not absorbed in the block stops at its end
            last = ends.argmax(axis=0)
            d = walk[last, np.arange(live)].astype(np.int32)
            flips = step + 1 + last
            step += rows
        else:
            keys = keys + one_draw
            hits = mix64_array(keys) < threshold
            for _ in range(abs(attacker - honest)):  # in place: a product would allocate
                move(d, hits, out=d)
            d += honest
            step = flips = step + 1
        reached = d == 0
        ended = reached | (d == loss_at)
        n_ended = np.count_nonzero(ended)
        if n_ended:
            yield False, label[reached], flips[reached] if blocking else flips, 0
            d[ended] = _PARKED
            live -= n_ended


def _counts(config: TrialConfig, streams, race_count: int, cells, cap: int, start: int, stop: int):
    """Integer counts from trials start..stop - 1 of the streams and cells.

    streams are master seeds, the first race_count of them races and the rest
    waits; cells are (deficit, budget, master_seed) with deficit >= 1; cap is
    the flip cap.  A tile of wait walks holds the same trial range of every
    stream, and is walked as the chase pass reaches it; each chase walk is
    labelled with its race or cell.  Returns (a bincount of the wait's k per
    stream, and an array of wins and of capped trials per race and cell).
    """
    # No walk makes far flips, so values past far act alike; clamped, every
    # barrier fits int32.
    far = cap + 1
    z, surplus = (min(v, far) for v in (config.z, config.budget_surplus))
    threshold = np.uint64(bernoulli_threshold(config.power.q))
    k_counts = [np.zeros(0, dtype=np.int64) for _ in streams]
    last_k = cap - z  # a wait that reaches a larger k is capped

    def race_tiles():
        for count, keys in _tiles(streams, start, stop):
            n = keys.size
            k = np.zeros(n, dtype=np.int32)
            # d counts down the z honest blocks due; no barrier above z is reachable.
            due = (np.full(n, v, dtype=np.int32) for v in (z, z + far, cap))
            wait = (keys, *due, np.arange(n, dtype=np.int32))
            for _, pos, flips, d in _walk(threshold, [wait] if z else [], -1, 0):
                k[pos] = flips - z + d  # z - d of the flips were honest blocks
            for i, stream_k in enumerate(k.reshape(-1, count)):
                k_counts[i] = _sum_counts([k_counts[i], np.bincount(stream_k)])
            label = np.repeat(np.arange(race_count, dtype=np.int32), count)  # races first
            # A trial capped in the wait may already have k > z; it is capped, not won.
            chase = k[: label.size] <= min(z, last_k)
            kc, keys = k[: label.size][chase], keys[: label.size][chase]
            # Past its wait's z + k draws, deficit z + 1 - k with budget z + surplus - k.
            yield _chase(keys, z + kc, z + 1 - kc, z + surplus - kc, label[chase], cap)

    # (deficit, budget, label) rows, clamped as the races are: past far no
    # barrier is reachable.
    per_cell = np.array(
        [(min(d, far), min(b, far), race_count + i) for i, (d, b, _) in enumerate(cells)],
        dtype=np.int32,
    ).reshape(-1, 3).T
    cell_tiles = (
        _chase(keys, np.zeros(keys.size, np.int32), *np.repeat(per_cell, count, axis=1), cap)
        for count, keys in _tiles([s for _, _, s in cells], start, stop)
    )
    ends = np.zeros((2, race_count + len(cells)), dtype=np.int64)  # wins, capped
    tiles = itertools.chain(race_tiles(), cell_tiles)
    for capped, label, _, _ in _walk(threshold, tiles, 1, -1):
        ends[int(capped)] += np.bincount(label, minlength=ends.shape[1])
    # A race's trials with no chase are won (z < k <= last_k) or capped in the wait.
    settled = max(last_k + 1, 0)
    for i, k in enumerate(k_counts[:race_count]):
        ends[:, i] += k[z + 1 : settled].sum(), k[settled:].sum()
    return k_counts, ends


def _sum_counts(counts) -> np.ndarray:
    """Element-wise sum of a sequence of int64 count arrays of any lengths."""
    total = np.zeros(max((c.size for c in counts), default=0), dtype=np.int64)
    for c in counts:
        total[: c.size] += c
    return total


def _spawn() -> tuple:
    """Fork a kept worker: (pid, write end of its task pipe, its reply reader)."""
    task_read, tasks = os.pipe()
    replies, reply_write = os.pipe()
    try:
        pid = os.fork()
        if not pid:
            _serve(task_read, reply_write)
    except BaseException:  # no worker to talk to
        os.close(tasks)
        os.close(replies)
        raise
    finally:
        os.close(task_read)
        os.close(reply_write)
    return pid, tasks, open(replies, "rb")


def _serve(tasks: int, replies: int) -> NoReturn:
    """A worker's loop: for each task read from fd tasks, pickle (None, counts)
    or (traceback, exception) into fd replies.

    A task is _counts's argument tuple, the call's flip cap among them, and the
    worker runs _counts(*task), the call its owner makes for its own range.  It
    first closes every descriptor it inherited but 0-2 and its two pipe ends,
    so it holds open nothing its owner closes, and ignores SIGINT, so an
    interrupt reaches the owner alone, which ends the call's workers itself.
    It leaves with os._exit, so none of the owner's clean-up runs twice:
    status 0 at EOF, 1 if a task cannot be read or a reply written.
    """
    status = 1
    try:
        import signal  # a 1 ms import that only a new worker needs

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for low, high in itertools.pairwise([2, *sorted((tasks, replies)), 2**31 - 1]):
            os.closerange(low + 1, high)  # an empty range closes nothing
        with open(tasks, "rb") as reader, open(replies, "wb") as writer:
            while reader.peek(1):
                task = pickle.load(reader)
                try:
                    message = None, _counts(*task)
                except BaseException as exc:
                    import traceback  # only a failing task needs it

                    message = traceback.format_exc(), exc
                pickle.dump(message, writer)
                writer.flush()
        status = 0
    finally:
        os._exit(status)


def _end(workers) -> dict[int, int]:
    """Kill, reap and drop workers from the pool; returns their wait statuses by pid.

    A worker that has already ended keeps the status it ended with.
    """
    import signal  # a 1 ms import that only a failing call needs

    statuses = {}
    for worker in workers:
        pid, tasks, replies = worker
        _pool.remove(worker)
        os.close(tasks)
        replies.close()
        os.kill(pid, signal.SIGKILL)
        statuses[pid] = os.waitpid(pid, 0)[1]
    return statuses


def _sharded(args: tuple, bounds: list[int]) -> list:
    """_counts(*args, start, stop) for each pair of neighbouring bounds, in order.

    This process counts the first range and a kept worker each other one;
    the pool forks the workers it lacks.  A call that finds the pool in use
    by another thread counts all the ranges in this process.  A worker's
    exception is raised here, chained to its traceback, and the worker stays
    in the pool.  A worker that dies fails the call and is reaped; the next
    call forks its replacement.  If this process's own range raises, the
    call's workers are killed and reaped, so no later call reads their
    replies.
    """
    if len(bounds) < 3 or not _pool_lock.acquire(blocking=False):
        return [_counts(*args, bounds[0], bounds[-1])]
    try:
        while len(_pool) < len(bounds) - 2:
            _pool.append(_spawn())
        workers = _pool[: len(bounds) - 2]
        replies = [None] * len(workers)
        try:
            for (_, tasks, _), start, stop in zip(workers, bounds[1:-1], bounds[2:]):
                task = memoryview(pickle.dumps((*args, start, stop)))
                with contextlib.suppress(BrokenPipeError):  # a dead worker fails below
                    while task:  # a write may take part of a large task
                        task = task[os.write(tasks, task) :]
            parts = [_counts(*args, bounds[0], bounds[1])]
            for i, (_, _, reader) in enumerate(workers):
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    replies[i] = pickle.load(reader)
        finally:
            ended = _end([w for w, reply in zip(workers, replies) if reply is None])
    finally:
        _pool_lock.release()
    for (pid, _, _), reply in zip(workers, replies):
        if reply is None:
            raise RuntimeError(f"shard worker {pid} ended with wait status {ended[pid]}")
        trace, value = reply
        if trace:
            raise value from RuntimeError(f"in shard worker {pid}:\n{trace}")
        parts.append(value)
    return parts


@atexit.register
def _close_pool() -> None:
    """Kill and reap the workers at exit; a killed owner ends them by EOF on its task pipes."""
    with _pool_lock:
        _end(list(_pool))


def _forget_pool() -> None:
    """In a forked child: close the parent's pool's pipes and empty it, reaping nothing."""
    global _pool_lock
    _pool_lock = threading.Lock()  # another thread may have held the parent's
    for _, tasks, replies in _pool:
        os.close(tasks)
        replies.close()
    _pool.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _simulate(config: TrialConfig, trials: int, races=(), waits=(), cells=()):
    """Races and waits at config, and catch-up cells, in one pass of chase walks.

    races and waits are master seeds; cells are (deficit, budget, master_seed),
    whose walks win at 0 and lose at deficit + budget.  _counts walks them.
    A call splits its trials into contiguous ranges, one per usable CPU but
    none of fewer than _SHARD_WALKS walks, which _sharded counts with the
    kept workers; each trial draws from its own stream, so the summed counts
    are the same at any split.  Returns (a SimulationResult per race, a
    normalized k histogram per wait, a win fraction per cell).
    """
    cells = list(cells)
    _check_trials(trials)
    if waits and config.z < 1:
        raise ValueError("z must be >= 1")  # a wait with no honest block due has no k
    for deficit, budget, _ in cells:
        _check_catch_up(deficit, budget)
    streams, live = [*races, *waits], [cell for cell in cells if cell[0]]
    for seed in streams + [cell[2] for cell in cells]:
        _check_seed(seed)
    cap = DEFAULT_MAX_BLOCKS
    if not 0 <= cap < _CAP_LIMIT:
        raise ValueError(f"DEFAULT_MAX_BLOCKS must be in [0, {_CAP_LIMIT}), got {cap}")
    walks = trials * (len(streams) + len(live))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    shards = max(1, min(cpus, trials, walks // _SHARD_WALKS))
    args = config, streams, len(races), live, cap
    parts = _sharded(args, [i * trials // shards for i in range(shards + 1)])
    k_counts = [_sum_counts(c) for c in zip(*(k for k, _ in parts))]
    wins, capped = sum(ends for _, ends in parts)
    # Keys ascend, so the histograms do not depend on the tiles or the split.
    histograms = [{int(k): int(c[k]) for k in np.flatnonzero(c)} for c in k_counts]
    results = [
        SimulationResult(config, trials, int(w), h, seed, int(c))
        for seed, w, c, h in zip(races, wins, capped, histograms)
    ]
    k_dists = [{kk: n / trials for kk, n in h.items()} for h in histograms[len(races):]]
    cell_rates = iter(int(w) / trials for w in wins[len(races):])
    return results, k_dists, [next(cell_rates) if d else 1.0 for d, _, _ in cells]


def run_trials(config: TrialConfig, trials: int, master_seed: int) -> SimulationResult:
    """Aggregate independent trials; deterministic in (config, trials, master_seed)."""
    return _simulate(config, trials, races=[master_seed])[0][0]


def empirical_catch_up(power: MiningPowerSplit, cells, trials: int) -> list[float]:
    """Win fraction of chase-phase walks per (deficit, budget, master_seed) cell.

    A cell's walks win at 0 and lose at deficit + budget; walk t draws from
    substream (master_seed, t), so a cell's fraction is the same alone or
    among others.  All cells' walks share one chase pass.  Validates the
    catch-up component of the model independently of the Poisson component.
    A cell obeys catch_up_limited's rule (deficit >= 0, budget >= 1), checked
    by the same code; a deficit of 0 is an immediate win.  Walks still
    running after DEFAULT_MAX_BLOCKS flips count as losses; near-fair walks
    with a large budget do reach it (q=0.49 with a budget past 1e5, for one).
    """
    return _simulate(TrialConfig(power, 0), trials, cells=cells)[2]


def empirical_k_distribution(
    power: MiningPowerSplit, z: int, trials: int, master_seed: int
) -> dict[int, float]:
    """Normalized histogram of attacker blocks mined while honest miners reach z.

    Wait-phase-only simulation.  Under the per-block coin-flip model the true
    law of k is negative binomial, not Poisson; this instrument is what makes
    that gap observable.  Trials capped at DEFAULT_MAX_BLOCKS flips count at
    the k they reached, so the weights still sum to one.  z must be >= 1.
    """
    return _simulate(TrialConfig(power, z), trials, waits=[master_seed])[1][0]
