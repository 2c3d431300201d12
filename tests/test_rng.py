import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import doublespend.simulate as simulate_module
from doublespend import (
    MiningPowerSplit,
    SweepGrid,
    TrialConfig,
    component_attribution,
    empirical_catch_up,
    empirical_k_distribution,
    run_trials,
)
from doublespend.rng import (
    advance_keys,
    bernoulli_threshold,
    derive_seed,
    mix64,
    mix64_array,
    trial_keys,
)
from oracles import TrialStream


def test_mix64_matches_vectorized():
    values = [0, 1, 42, 2**63, 2**64 - 1, 0xDEADBEEF]
    scalar = [mix64(v) for v in values]
    vector = mix64_array(np.array(values, dtype=np.uint64))
    assert scalar == [int(v) for v in vector]


def test_mix64_avalanches_neighbours():
    outs = {mix64(i) for i in range(10_000)}
    assert len(outs) == 10_000  # bijective on distinct inputs
    # flipping one input bit should flip roughly half the output bits
    flips = bin(mix64(12345) ^ mix64(12345 ^ 1)).count("1")
    assert 10 <= flips <= 54


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(x):
    assert 0 <= mix64(x) < 2**64


def test_trial_keys_match_derive_seed():
    keys = trial_keys(master_seed=77, count=50)
    assert [int(k) for k in keys] == [derive_seed(77, t) for t in range(50)]


def test_trial_keys_reach_the_last_trial_index():
    # The largest trial count the simulator accepts is 2**64 - 1, whose last
    # trial has index 2**64 - 2.
    last = 2**64 - 2
    assert [int(k) for k in trial_keys(3, 1, start=last)] == [derive_seed(3, last)]


def test_trial_keys_start_offset():
    full = trial_keys(5, 100)
    tail = trial_keys(5, 40, start=60)
    assert list(full[60:]) == list(tail)


def test_derive_seed_varies_with_each_index():
    seen = {derive_seed(9, a, b) for a in range(20) for b in range(20)}
    assert len(seen) == 400
    assert derive_seed(9, 1) != derive_seed(10, 1)
    assert derive_seed(9, 1, 2) != derive_seed(9, 2, 1)


@pytest.mark.parametrize("index", [-1, 2**64, 2**64 + 5])
def test_derive_seed_rejects_an_index_outside_64_bits(index):
    with pytest.raises(ValueError, match=r"index must be in \[0, 2\*\*64\)"):
        derive_seed(9, 1, index)
    assert derive_seed(9, 2**64 - 1) != derive_seed(9, 0)  # the top index still maps


def test_numpy_seeds_match_plain_ints_without_warnings():
    config = TrialConfig(MiningPowerSplit(0.3), 3, 35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert derive_seed(np.uint64(5)) == derive_seed(5)
        assert derive_seed(np.uint64(5), np.uint64(2**64 - 1)) == derive_seed(5, 2**64 - 1)
        assert run_trials(config, 50, np.uint64(5)) == run_trials(config, 50, 5)


POWER = MiningPowerSplit(0.3)
# Every public entry point that takes a master seed, called with seed s.
SEED_ENTRIES = {
    "derive_seed": lambda s: derive_seed(s, 1),
    "run_trials": lambda s: run_trials(TrialConfig(POWER, 3), 10, s),
    "empirical_k_distribution": lambda s: empirical_k_distribution(POWER, 3, 10, s),
    "empirical_catch_up": lambda s: empirical_catch_up(POWER, [(1, 2, 7), (2, 3, s)], 10),
    "component_attribution": lambda s: component_attribution(POWER, 3, 35, 10, s),
    "SweepGrid": lambda s: SweepGrid((0.3,), (3,), trials=10, master_seed=s),
}


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
@pytest.mark.parametrize("entry", SEED_ENTRIES)
def test_every_seed_entry_rejects_a_seed_outside_64_bits(monkeypatch, entry, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("a bad seed reached the simulator")

    monkeypatch.setattr(simulate_module, "_sharded", refuse)
    with pytest.raises(ValueError, match=r"master_seed must be in \[0, 2\*\*64\)"):
        SEED_ENTRIES[entry](seed)


def test_trial_stream_replays_the_same_draws():
    a = TrialStream(123, 4)
    b = TrialStream(123, 4)
    assert [a.next_raw() for _ in range(32)] == [b.next_raw() for _ in range(32)]


def test_trial_stream_matches_counter_formula():
    stream = TrialStream(2024, 11)
    key = derive_seed(2024, 11)
    keys = advance_keys(np.full(16, key, dtype=np.uint64), np.arange(1, 17))
    expected = [mix64(int(k)) for k in keys]  # draw j is key + (j + 1) * GOLDEN, mixed
    assert [stream.next_raw() for _ in range(16)] == expected


@pytest.mark.parametrize("key", [2**63 + 2**62, 2**64 - 1, 5])
@pytest.mark.parametrize("draws", [1, 2**40])
def test_scalar_keys_wrap_like_array_keys(key, draws):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = advance_keys(np.uint64(key), draws)
        array = advance_keys(np.array([key], dtype=np.uint64), draws)
    assert int(scalar) == int(array[0]) == (key + draws * 0x9E3779B97F4A7C15) % 2**64


def test_bernoulli_threshold_is_exact_for_dyadic_probabilities():
    assert bernoulli_threshold(0.25) == 2**62
    assert bernoulli_threshold(0.5) == 2**63
    assert bernoulli_threshold(0.0) == 0
    with pytest.raises(ValueError):
        bernoulli_threshold(1.5)


def test_threshold_fraction_close_to_probability():
    threshold = np.uint64(bernoulli_threshold(0.3))
    raws = mix64_array(trial_keys(31337, 200_000))
    frac = float((raws < threshold).mean())
    assert abs(frac - 0.3) < 0.004  # ~4 sigma at n = 2e5
