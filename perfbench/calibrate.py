"""Fixed reference kernels that track how fast the host runs right now.

The benchmark shares a few cores of a host whose speed swings by tens of
percent over seconds to minutes, so raw command times measure the host as
much as the program.  The kernels below never change and use nothing from
the package under test.  One of them is timed between commands, and each
command's time is scaled by

    REFERENCE_S[kernel] / (mean kernel time around the command)

The host flips between a fast and a slow state many times a second, so a
command's time is its work times the share of slow time; the mean of many
kernel samples, not their median, estimates that share.  The result is the
command's time in seconds on the reference machine at the speed it had
when REFERENCE_S was measured: a change to the program moves it, a slower
or faster host moves it much less.

Pure-Python interpretation and numpy passes over arrays past the L2 slow
down by different amounts when the host is busy (the second shares the L3
and memory with the host's other tenants), so there is one kernel of each
kind, and each workload is scaled by the one like its own work
(workloads.HOST_KERNEL).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Typical kernel times on the reference machine (2 shared vCPUs of an x86-64
# Xeon host, CPython 3.11, numpy 2.4); they only fix the unit of the scaled
# times.
REFERENCE_S = {"python": 0.0055, "race": 0.010}


def python_s() -> float:
    """Wall seconds of a pure-Python float loop like the model's series sums."""
    start = time.perf_counter()
    x = 0.0
    term = 1.0
    for i in range(1, 30_000):
        term *= 0.9999
        x += term * math.exp(-1e-4 * i)
    return time.perf_counter() - start


_WALKS = 1 << 17
_KEYS = np.arange(1, _WALKS + 1, dtype=np.uint64)
# Preallocated, so that a sample makes no allocation or page fault and the
# state the allocator is left in by the commands does not change its time.
# Together 3 MiB, more than the L2.
_X = np.empty(_WALKS, dtype=np.uint64)
_T = np.empty(_WALKS, dtype=np.uint64)
_LEAD = np.empty(_WALKS, dtype=np.int64)
_HEADS = np.empty(_WALKS, dtype=bool)


def race_s() -> float:
    """Wall seconds of lockstep steps of a coin-flip race over 2**17 walks.

    The same shape of work as the package's race, written independently:
    hash a key per walk, flip a coin from it, move the walk's lead, and
    count the walks that finished.
    """
    start = time.perf_counter()
    np.copyto(_X, _KEYS)
    _LEAD.fill(3)
    for _ in range(10):
        np.right_shift(_X, np.uint64(33), out=_T)
        np.bitwise_xor(_X, _T, out=_X)
        np.multiply(_X, np.uint64(0xFF51AFD7ED558CCD), out=_X)
        np.bitwise_and(_X, np.uint64(1023), out=_T)
        np.less(_T, np.uint64(410), out=_HEADS)
        np.add(_LEAD, 1, out=_LEAD)
        np.subtract(_LEAD, _HEADS, out=_LEAD)
        np.subtract(_LEAD, _HEADS, out=_LEAD)
        np.less_equal(_LEAD, 0, out=_HEADS)
        np.count_nonzero(_HEADS)
    return time.perf_counter() - start


KERNELS = {"python": python_s, "race": race_s}

# A sample per 0.1 s of command time costs 5-10% of the run; ten samples on
# each side span about two seconds, shorter than the host's slow swings.
SAMPLE_EVERY_S = 0.1
REACH = 10


class HostClock:
    """Samples of one kernel taken between commands, and the scale they give.

    Call `before_command()` before each timed command and
    `after_command(seconds)` after it; before a command, the kernel runs once
    for every SAMPLE_EVERY_S of command time since the last sample.
    `close()` takes the samples after the last command.  A command is scaled
    by the mean of the REACH samples before it and the REACH after it.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.owed = SAMPLE_EVERY_S  # one sample before the first command
        self.bracket: list[int] = []

    def _sample(self) -> None:
        self.samples.append(KERNELS[self.kernel]())
        self.owed = max(self.owed - SAMPLE_EVERY_S, 0.0)

    def before_command(self) -> None:
        while self.owed >= SAMPLE_EVERY_S:
            self._sample()
        self.bracket.append(len(self.samples) - 1)

    def after_command(self, seconds: float) -> None:
        self.owed += seconds

    def close(self) -> None:
        self.owed = max(self.owed, SAMPLE_EVERY_S)
        while self.owed >= SAMPLE_EVERY_S:
            self._sample()

    def scale(self, index: int) -> float:
        """Factor that turns the index-th command's seconds into reference seconds."""
        last = self.bracket[index]
        window = self.samples[max(last + 1 - REACH, 0) : last + 1 + REACH]
        return REFERENCE_S[self.kernel] / statistics.fmean(window)

