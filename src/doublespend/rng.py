"""Counter-based random streams for reproducible Monte Carlo runs.

Every uniform draw is a pure function of (master_seed, trial_index, draw_index),
so a simulation's outcome never depends on execution order, batching, or degree
of parallelism.  The construction is a two-level SplitMix64:

    key(t)     = mix64(mix64(seed) + (t + 1) * GOLDEN)
    raw(t, j)  = mix64(key(t) + (j + 1) * GOLDEN)

mix64 is the SplitMix64 finalizer, a bijection on 64-bit integers, and GOLDEN
is odd, so distinct trial indices always map to distinct stream keys for a
fixed master seed.  A Bernoulli(q) coin is `raw < floor(q * 2**64)`, which
makes the per-draw success probability exactly the float value of q.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer; avalanches a 64-bit integer, bijectively."""
    x = operator.index(x) & _MASK64  # a Python int: numpy integers would overflow
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_A)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_B)
    return x ^ (x >> np.uint64(31))


def _check_seed(seed: int, name: str = "master_seed") -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed!r}")


def derive_seed(master_seed: int, *indices: int) -> int:
    """Deterministic 64-bit subseed for (master_seed, indices).

    Chained SplitMix64 steps: collision-free across indices at each level for
    a fixed parent seed.  Used both for per-trial stream keys and for giving
    every cell of a parameter sweep its own independent seed.  A master_seed
    or index outside [0, 2**64) raises ValueError; none wraps modulo 2**64.
    """
    _check_seed(master_seed)
    s = mix64(master_seed)
    for ix in map(operator.index, indices):
        _check_seed(ix, "index")
        s = mix64(s + (ix + 1) * _GOLDEN)
    return s


def trial_keys(master_seed: int, count: int, start: int = 0) -> np.ndarray:
    """Stream keys for trials start..start+count-1; equals derive_seed(seed, t)."""
    base = np.uint64(mix64(master_seed))
    t = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64_array(t * np.uint64(_GOLDEN) + base)


def advance_keys(keys: np.ndarray, draws) -> np.ndarray:
    """Keys whose draw j is draw j + draws[i] of stream keys[i] (wrapping).

    draws broadcasts against keys: per key, for all keys, or a column of counts.
    A scalar key wraps like an array key, with no overflow warning.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    return keys + np.asarray(draws, dtype=np.uint64) * np.uint64(_GOLDEN)


def bernoulli_threshold(q: float) -> int:
    """64-bit threshold T with P(raw < T) exactly equal to the float q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability out of range: {q!r}")
    return min(int(q * 2.0**64), _MASK64)

