"""Independent reference implementations used as test oracles.

Nothing here imports from the doublespend package: every function evaluates
the underlying mathematics by a different route (linear algebra, scipy
distributions, naive direct summation, one coin flip at a time) so agreement
is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from scipy import special, stats

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class TrialStream:
    """Trial t's coin stream, one Python integer draw at a time.

    Draw j is mix64(key + (j + 1) * GOLDEN) with key = mix64(mix64(seed) +
    (t + 1) * GOLDEN): the documented stream that the simulator's vectorized
    kernels must reproduce bit for bit.
    """

    def __init__(self, master_seed: int, trial_index: int):
        base = _splitmix64(master_seed & _MASK64)
        self.key = _splitmix64((base + (trial_index + 1) * _GOLDEN) & _MASK64)
        self.draws = 0

    def next_raw(self) -> int:
        self.draws += 1
        return _splitmix64((self.key + self.draws * _GOLDEN) & _MASK64)

    def next_bernoulli(self, threshold: int) -> bool:
        return self.next_raw() < threshold


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


def simulate_trial(stream: TrialStream, config, max_blocks: int) -> TrialRecord:
    """Play one race of config (a TrialConfig) on stream, one flip at a time.

    A trial still running after max_blocks flips is capped.
    """
    z, surplus = config.z, config.budget_surplus
    threshold = min(int(config.power.q * 2.0**64), _MASK64)
    h = k = draws = 0
    while h < z:
        if draws == max_blocks:
            return TrialRecord(k, False, draws, True)
        if stream.next_bernoulli(threshold):
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
        if draws == max_blocks:
            return TrialRecord(k, False, draws, True)
        d += -1 if stream.next_bernoulli(threshold) else 1
        draws += 1


def ruin_by_linear_solve(i: int, n: int, q: float) -> float:
    """Gambler's Ruin win probability from the one-step recurrence.

    Solves q_f = q * q_{f+1} + p * q_{f-1} for f = 1..n-1 with boundaries
    q_0 = 0 and q_n = 1 as a dense linear system; no closed form involved.
    """
    if i == 0:
        return 0.0
    if i == n:
        return 1.0
    p = 1.0 - q
    size = n - 1
    matrix = np.zeros((size, size))
    rhs = np.zeros(size)
    for row, fortune in enumerate(range(1, n)):
        matrix[row, row] = 1.0
        if fortune - 1 >= 1:
            matrix[row, row - 1] = -p
        if fortune + 1 <= n - 1:
            matrix[row, row + 1] = -q
        else:
            rhs[row] = q  # q * q_n with q_n = 1
    return float(np.linalg.solve(matrix, rhs)[i - 1])


def limited_catch_up(deficit: int, budget: int, q: float) -> float:
    """Naive finite-budget catch-up probability (direct ratio powers).

    Only p == q, at q = 1/2, is a fair game.  Near it the powers cancel, so
    the result loses digits there.
    """
    if deficit == 0:
        return 1.0
    p = 1.0 - q
    if p == q:
        return budget / (budget + deficit)
    r = p / q
    return (1.0 - r**budget) / (1.0 - r ** (budget + deficit))


def attack_success_naive(q: float, z: int, variant: str, surplus: int = 35) -> float:
    """Second, naively-summed attack-success implementation (scipy pmf)."""
    p = 1.0 - q
    lam = z * q / p
    k_top = z if variant == "original" else z + 1
    total = 0.0
    for k in range(k_top + 1):
        deficit = k_top - k
        if variant == "budgeted":
            catch = limited_catch_up(deficit, z + surplus - k, q)
        elif p <= q or deficit == 0:
            catch = 1.0
        else:
            catch = (q / p) ** deficit
        total += stats.poisson.pmf(k, lam) * (1.0 - catch)
    return 1.0 - total


def attack_success_closed_form(q: float, z: int, variant: str) -> float:
    """The corrected or original attack_success as two Poisson CDFs, for q < 1/2.

    With X ~ Poisson(lam), lam = zq/p, Y ~ Poisson(z), s = q/p and K = z + 1
    (corrected) or z (original), lam/s = z turns the catch-up sum
    sum_{k<K} pmf(k; lam) s**(K-k) into s**K e**(z-lam) P(Y <= K-1), so

        P = P(X >= K) + s**K e**(z-lam) P(Y <= K-1),

    two regularized incomplete gamma functions and no per-k list.  At K = 0
    scipy returns nan, and P is exactly 1.
    """
    p = 1.0 - q
    lam, k_top = z * q / p, z + 1 if variant == "corrected" else z
    if k_top == 0:
        return 1.0
    power = math.exp(k_top * math.log(q / p) + z - lam)
    return float(special.pdtrc(k_top - 1, lam) + power * special.pdtr(k_top - 1, z))


def attack_success_images(q: float, z: int, surplus: int = 35) -> tuple[float, float]:
    """The budgeted attack_success as a series of images, and its truncation
    bound, for q < 1/2.

    With s = q/p, S = surplus - 1 and deficit d = K - k (K = z + 1), the
    catch-up term is c_B(d) = s**d (1 - s**(d+S)) / (1 - s**(2d+S)); expanding
    the denominator as a geometric series gives the images

        c_B(d) = sum_m [s**((2m+1)d + mS) - s**((2m+2)d + (m+1)S)],

    each term nonnegative.  Over X ~ Poisson(lam), lam = zq/p, a term
    s**(ad + b) sums to s**(aK+b) e**(mu-lam) P(Poisson(mu) <= K-1) with
    mu = z s**(1-a), a regularized upper incomplete gamma function, so

        P = P(X >= K) + sum over images of those terms.

    After M images each c_B(d) misses at most s**(M(2d+S)) / (1 - s**(2d+S)),
    so P misses at most s**(M(2+S)) / (1 - s**(2+S)) absolute.  M is the
    first count at which that bound is at most 2**-60 of the partial sum,
    which only grows.  Returns (P, that bound) as floats.  Apart, e**mu and
    the gamma function each lose about log10(mu) digits, so each image term
    is evaluated with that many digits more than 50.
    """
    if not 0.0 < q < 0.5:
        raise ValueError("the images converge for q in (0, 1/2) only")
    with mp.workdps(50):
        q_, p_ = mp.mpf(q), mp.mpf(1.0 - q)
        s, lam, k_top, shift = q_ / p_, z * q_ / p_, z + 1, surplus - 1

        def term(a, b):
            mu = z * s ** (1 - a)
            with mp.workdps(50 + int(mp.log10(mu + 1))):
                upper = mp.gammainc(k_top, mu, regularized=True)
                return +(s ** (a * k_top + b) * mp.exp(mu - lam) * upper)

        total, ratio, m = mp.gammainc(k_top, 0, lam, regularized=True), s ** (2 + shift), 0
        while ratio**m / (1 - ratio) > mp.mpf(2) ** -60 * total:  # the bound after m images
            total += term(2 * m + 1, m * shift) - term(2 * m + 2, (m + 1) * shift)
            m += 1
        return float(total), float(ratio**m / (1 - ratio))


def negative_binomial_pmf(k: int, z: int, p: float) -> float:
    """scipy's law of attacker blocks before the z-th honest block."""
    return float(stats.nbinom.pmf(k, z, p))


def budgeted_race_law(q: float, z: int, surplus: int = 35) -> float:
    """Exact success probability of the simulated race.

    The wait phase makes k negative binomial; the chase phase from deficit
    z+1-k with budget z+surplus-k is a Gambler's Ruin.  Mixing the two gives
    the simulator's true Bernoulli parameter, free of any Poisson
    approximation.
    """
    p = 1.0 - q
    total = 0.0
    k = 0
    while True:
        weight = negative_binomial_pmf(k, z, p)
        deficit = z + 1 - k
        if deficit <= 0:
            catch = 1.0
        else:
            catch = limited_catch_up(deficit, z + surplus - k, q)
        total += weight * catch
        if k > z + 1 and weight < 1e-16:
            break
        k += 1
    return total


def exact_race_closed_form(q: float, z: int, must_lead: bool) -> float:
    """The race's success probability with no loss budget, for q < 1/2 and z >= 1.

    The wait's k, attacker blocks before the z-th honest block, is negative
    binomial, NB(k; z, p) = C(z+k-1, k) p**z q**k, and from deficit K - k the
    attacker catches up with probability s**(K-k), s = q/p, where K = z + 1
    (must lead, the corrected rule) or z (ties win, the original rule).
    NB(k; z, p) s**(K-k) = s**(K-z) NB(k; z, q), so with k' ~ NB(z, q)

        P = P(k >= K) + s**(K-z) P(k' <= K-1)
          = 1 - I_p(z, K) + s**(K-z) I_q(z, K),

    two regularized incomplete beta functions and no per-k sum.
    """
    p = 1.0 - q
    k_top = z + 1 if must_lead else z
    return float(1.0 - special.betainc(z, k_top, p)
                 + (q / p) ** (k_top - z) * special.betainc(z, k_top, q))


def ruin_mp(i: int, n: int, q: float) -> float:
    """Gambler's Ruin win probability at 60 significant digits, rounded to a float.

    (1 - r**i) / (1 - r**n) with r = p/q, and i/n only where p == q; p is the
    float 1.0 - q, the model's input.
    """
    with mp.workdps(60):
        q_, p_ = mp.mpf(q), mp.mpf(1.0 - q)
        if p_ == q_:
            return float(mp.mpf(i) / n)
        r = p_ / q_
        return float((1 - r**i) / (1 - r**n))


def attack_success_mp(q: float, z: int, variant: str, surplus: int = 35) -> float:
    """attack_success at 60 significant digits, rounded to the nearest float.

    The all-positive form, sum over k < K of pmf(k) * catch_up(K - k) plus
    P(X >= K), each summed with mpmath's fsum: the pmf by its recurrence
    from e**-rate, the catch-up terms from their closed forms, and the tail
    term by term until it stops counting (mpmath's nsum mis-sums this
    tail).  p is the float 1.0 - q, the model's input, so the comparison
    measures the model's arithmetic and not its input.  Only p == q is a
    fair game, however close to 1/2 q lies.
    """
    with mp.workdps(60):
        q_, p_ = mp.mpf(q), mp.mpf(1.0 - q)
        fair = p_ == q_
        lam = z * q_ / p_
        k_top = z if variant == "original" else z + 1

        def catch_up(k):
            deficit = k_top - k
            if variant != "budgeted":
                return mp.mpf(1) if p_ <= q_ else (q_ / p_) ** deficit
            budget = z + surplus - k
            if fair:
                return mp.mpf(budget) / (budget + deficit)
            r = p_ / q_
            return (1 - r**budget) / (1 - r ** (budget + deficit))

        hit, pmf, k = [], mp.exp(-lam), 0
        while k < k_top:
            hit.append(pmf * catch_up(k))
            k += 1
            pmf *= lam / k
        hit_sum, tail = mp.fsum(hit), []
        negligible = mp.mpf(10) ** -70 * (hit_sum + pmf)
        while k <= lam or pmf >= negligible:
            tail.append(pmf)
            k += 1
            pmf *= lam / k
        return float(hit_sum + mp.fsum(tail))
