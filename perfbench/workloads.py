"""Workload definitions: the CLI argv lists each workload runs.

A workload is a sequence of rounds; round j is a list of argv lists that
depends only on (workload, seed, j), so any two runs with the same seed run
the same commands in the same order and their output digests can be
compared command by command.  This module imports nothing from the package
under test, so the set-up probe can time the import separately.
"""

from __future__ import annotations

import random

GOLDEN = (5 ** 0.5 - 1) / 2

RACE_Q, RACE_Z = "0.4", "24"
# 1e5 lockstep trials keep about 5.7 MB of per-trial state live through the
# first hundred steps, more than the L2 (2 MiB per core) of the reference
# machine.
RACE_TRIALS = 100_000

MINDEPTH_Q_MAX = 0.46
MINDEPTH_STRATA = 23
MINDEPTH_TARGETS = (0.001, 0.01, 0.1, 0.5)
MINDEPTH_VARIANTS = ("corrected", "budgeted")

ATTRIBUTION_Q = ("0.1", "0.2", "0.3", "0.4")
ATTRIBUTION_Z = ("1", "3", "6", "12", "24")
# Small enough that every lockstep array stays cache-resident.
ATTRIBUTION_TRIALS = 2000


def _rng(workload: str, seed: int, *index: int) -> random.Random:
    return random.Random("/".join(map(str, (workload, seed, *index))))


def _seed(workload: str, seed: int, *index: int) -> str:
    return str(_rng(workload, seed, *index).getrandbits(63))


def race_round(seed: int, j: int) -> list[list[str]]:
    return [
        [
            "simulate", "--q", RACE_Q, "--z", RACE_Z, "--histogram",
            "--trials", str(RACE_TRIALS), "--seed", _seed("race", seed, j),
        ]
    ]


def mindepth_round(seed: int, j: int) -> list[list[str]]:
    # Two q per stratum of (0, Q_MAX], mirrored about the stratum's centre
    # within its middle fifth, with one offset shared by all strata that
    # advances by the golden ratio each round.  The cost of min-z grows like
    # (0.5 - q)**-5, so q spread over whole strata would make a round's cost,
    # and so a run's median command time, depend on the seed; near-central
    # mirrored pairs keep every round about as costly as any other.
    offset = 0.4 + 0.2 * ((_rng("mindepth", seed).random() + j * GOLDEN) % 1.0)
    width = MINDEPTH_Q_MAX / MINDEPTH_STRATA
    q_values = [
        width * (i + u) for i in range(MINDEPTH_STRATA) for u in (offset, 1.0 - offset)
    ]
    targets = ",".join(map(str, MINDEPTH_TARGETS))
    return [
        ["min-z", "--q", repr(q), "--target", targets, "--variant", variant]
        for variant in MINDEPTH_VARIANTS
        for q in q_values
    ]


def attribution_round(seed: int, j: int) -> list[list[str]]:
    return [
        [
            "validate", "--attribution", "--q-values", q, "--z-values", z,
            "--trials", str(ATTRIBUTION_TRIALS),
            "--seed", _seed("attribution", seed, j, qi, zi), "--format", "json",
        ]
        for qi, q in enumerate(ATTRIBUTION_Q)
        for zi, z in enumerate(ATTRIBUTION_Z)
    ]


def ops_in(argv: list[str]) -> int:
    """Operations one command completes: trials, min-z cells, or grid cells."""
    if argv[0] == "simulate":
        return int(argv[argv.index("--trials") + 1])
    if argv[0] == "min-z":
        return len(argv[argv.index("--target") + 1].split(","))
    return 1


# name -> (round generator, seconds one round takes on the reference machine)
WORKLOADS = {
    "race": (race_round, 0.9),
    "mindepth": (mindepth_round, 3.0),
    "attribution": (attribution_round, 3.2),
}

# name -> the calibrate.py kernel that scales its command times.  The race
# is numpy passes over arrays past the L2, like the race kernel; min-z is
# pure Python; the attribution grid's arrays are small and cache-resident,
# so its time follows the Python kernel.
HOST_KERNEL = {"race": "race", "mindepth": "python", "attribution": "python"}
