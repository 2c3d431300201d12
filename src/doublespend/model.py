"""Closed-form probability model of the blockchain double-spend race.

The model has three moving parts:

* Gambler's Ruin win probabilities between two absorbing barriers, and the
  catch-up probabilities they induce for an attacker mining a secret chain
  from a deficit (with either an unlimited or a finite loss budget).
* The Poisson law of the attacker's progress while the merchant waits for
  z confirmations, with rate z*q/p.
* The attack-success summation combining the two, in three variants:
  ``original`` (the Bitcoin whitepaper's formula, which asks the attacker to
  draw even), ``corrected`` (the attacker must overtake, i.e. reach a deficit
  of z+1), and ``budgeted`` (the corrected race with a finite loss budget,
  which is the version a finite simulation can realize).

Numerical policy: ratio powers go through log space for large exponents, the
Poisson pmf is built by multiplicative recurrence (log space for large rates),
and the attack summation switches to an all-positive-terms form when the
result is small so tiny probabilities keep full relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "AttackQuery",
    "MiningPowerSplit",
    "ProbabilityRangeError",
    "RuinGameSpec",
    "Summand",
    "Variant",
    "attack_success",
    "attack_summands",
    "catch_up_limited",
    "catch_up_unlimited",
    "min_confirmations",
    "poisson_pmf",
    "poisson_rate",
    "ruin_win_probability",
]

# Raw results deviating from [0, 1] by more than this are bugs, not round-off.
GUARD_BAND = 1e-9
# |p - q| at or below this routes to the p == q formulas (avoids 0/0).
EQUAL_POWER_TOL = 1e-12
# Exponent policy: n above this, or |n * log(ratio)| above 700, uses exp/log.
_POW_DIRECT_MAX = 64
# e**-rate underflows near 745; switch the pmf to log space well before that.
_PMF_LOGSPACE_RATE = 700.0

DEFAULT_BUDGET_SURPLUS = 35
DEFAULT_SEARCH_CAP = 10_000


class ProbabilityRangeError(ArithmeticError):
    """A computed probability fell outside the guard band around [0, 1]."""


def _as_probability(raw: float) -> float:
    if not (-GUARD_BAND <= raw <= 1.0 + GUARD_BAND):
        raise ProbabilityRangeError(f"probability out of guard band: {raw!r}")
    return min(1.0, max(0.0, raw))


class Variant(str, Enum):
    """Which attack-success formula to evaluate."""

    ORIGINAL = "original"
    CORRECTED = "corrected"
    BUDGETED = "budgeted"


@dataclass(frozen=True)
class MiningPowerSplit:
    """Split of total block-finding power: attacker fraction q, honest p = 1 - q.

    Only q is stored; p is always derived, so the two can never disagree.
    """

    q: float

    def __post_init__(self) -> None:
        if not (isinstance(self.q, (int, float)) and 0.0 < self.q < 1.0):
            raise ValueError(f"q must be in (0, 1), got {self.q!r}")

    @property
    def p(self) -> float:
        return 1.0 - self.q


@dataclass(frozen=True)
class RuinGameSpec:
    """A finite Gambler's Ruin game.

    The gambler starts with ``initial_fortune`` dollars, wins $1 per bet with
    probability ``win_prob`` (loses $1 otherwise), and plays until reaching
    ``target`` dollars or going bankrupt at $0.
    """

    initial_fortune: int
    target: int
    win_prob: float

    def __post_init__(self) -> None:
        if self.target < 1:
            raise ValueError("target must be at least $1")
        if not 0 <= self.initial_fortune <= self.target:
            raise ValueError(
                f"initial fortune {self.initial_fortune} not in [0, {self.target}]"
            )
        if not 0.0 < self.win_prob < 1.0:
            raise ValueError(f"win_prob must be in (0, 1), got {self.win_prob!r}")

    @property
    def loss_prob(self) -> float:
        return 1.0 - self.win_prob


@dataclass(frozen=True)
class AttackQuery:
    """One point on an attack-success curve.

    ``budget_surplus`` must be >= 1; only the budgeted variant reads it: the
    attacker abandons the race after losing z + budget_surplus net blocks.
    """

    power: MiningPowerSplit
    z: int
    variant: Variant = Variant.CORRECTED
    budget_surplus: int = DEFAULT_BUDGET_SURPLUS

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError("confirmation depth z must be >= 0")
        if self.budget_surplus < 1:
            raise ValueError("budget_surplus must be >= 1")


@dataclass(frozen=True)
class Summand:
    """One term of the attack-success sum: P(k blocks mined) * P(catch up | k)."""

    k: int
    pmf: float
    catch_up: float

    @property
    def product(self) -> float:
        return self.pmf * self.catch_up


def _pow_ratio(base: float, n: int) -> float:
    """base**n for base in (0, 1] and n >= 0, via log space for large n."""
    if n <= _POW_DIRECT_MAX:
        return base**n
    return math.exp(n * math.log(base))


def ruin_win_probability(game: RuinGameSpec) -> float:
    """Probability the gambler reaches the target before going bankrupt.

    Closed form: (1 - (p/q)**i) / (1 - (p/q)**N) for p != q, i/N at p == q.
    Exactly 0.0 at i == 0 and exactly 1.0 at i == N.  Evaluated with ratios
    below 1 only, so large fortunes never overflow.
    """
    i, n, q = game.initial_fortune, game.target, game.win_prob
    if i == 0:
        return 0.0
    if i == n:
        return 1.0
    p = game.loss_prob
    if abs(p - q) <= EQUAL_POWER_TOL:
        return _as_probability(i / n)
    if q > p:
        t = p / q
        raw = (1.0 - _pow_ratio(t, i)) / (1.0 - _pow_ratio(t, n))
    else:
        # (1 - (p/q)**i) / (1 - (p/q)**N) == s**(N-i) * (1 - s**i) / (1 - s**N)
        # with s = q/p < 1, which never overflows.
        s = q / p
        raw = _pow_ratio(s, n - i) * (1.0 - _pow_ratio(s, i)) / (1.0 - _pow_ratio(s, n))
    return _as_probability(raw)


def catch_up_unlimited(z: int, power: MiningPowerSplit) -> float:
    """Probability an attacker with no loss budget ever erases a z-block deficit.

    1 when p <= q (a majority attacker always succeeds); (q/p)**z otherwise.
    """
    if z < 0:
        raise ValueError("deficit z must be >= 0")
    if power.p <= power.q:
        return 1.0
    return _as_probability(_pow_ratio(power.q / power.p, z))


def catch_up_limited(z: int, budget: int, power: MiningPowerSplit) -> float:
    """Probability of erasing a z-block deficit before losing ``budget`` blocks net.

    This is the Gambler's Ruin game with fortune ``budget`` and target
    ``budget + z``, and is computed exactly as that: a zero budget is rejected
    (the race is already lost before the first coin flip), and z == 0 returns
    exactly 1.0.  Converges to catch_up_unlimited as the budget grows.
    """
    _check_catch_up(z, budget)
    return ruin_win_probability(RuinGameSpec(budget, budget + z, power.q))


def _check_catch_up(z: int, budget: int) -> None:
    """The rule on a catch-up game, modelled here and simulated by empirical_catch_up."""
    if z < 0:
        raise ValueError("deficit z must be >= 0")
    if budget < 1:
        raise ValueError("budget must be >= 1; a bankrupt gambler cannot play")


def poisson_rate(z: int, power: MiningPowerSplit) -> float:
    """Expected attacker blocks while the honest chain grows by z: z * q / p."""
    if z < 0:
        raise ValueError("confirmation depth z must be >= 0")
    return z * power.q / power.p


def poisson_pmf(k: int, rate: float) -> float:
    """P(X = k) for X ~ Poisson(rate).

    Never forms k! or rate**k directly: small rates use the multiplicative
    recurrence term_k = term_{k-1} * rate / k seeded with e**-rate, large
    rates use exp(k log rate - rate - lgamma(k + 1)).  Stable for k and rate
    well beyond 10,000.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if rate < 0.0:
        raise ValueError("rate must be >= 0")
    if rate == 0.0:
        return 1.0 if k == 0 else 0.0
    if rate <= _PMF_LOGSPACE_RATE:
        term = math.exp(-rate)
        for j in range(1, k + 1):
            term *= rate / j
        return term
    return math.exp(k * math.log(rate) - rate - math.lgamma(k + 1.0))


def _poisson_terms(rate: float, k_top: int) -> list[float]:
    """pmf(0..k_top; rate) in one pass; rate 0 and log space are poisson_pmf's.

    The recurrence rounds term * rate / k where poisson_pmf rounds
    term * (rate / k), so most terms differ from poisson_pmf in the last
    bits.  Summands, and so the model and its golden output, use this one.
    """
    if rate == 0.0 or rate > _PMF_LOGSPACE_RATE:
        return [poisson_pmf(k, rate) for k in range(k_top + 1)]
    terms = [math.exp(-rate)]
    for k in range(1, k_top + 1):
        terms.append(terms[-1] * rate / k)
    return terms


def _poisson_upper_tail(rate: float, k_from: int, term_at_k_from: float) -> float:
    """Sum of pmf(k; rate) for k >= k_from, given pmf(k_from) as the anchor.

    Positive-term series; summed until the running term stops contributing.
    """
    total = term = term_at_k_from
    k = k_from
    stop = max(k_from + 10, int(rate + 60.0 * math.sqrt(rate + 1.0)) + 200)
    while k < stop:
        k += 1
        term *= rate / k
        total += term
        if term <= total * 1e-18:
            break
    return total


def _catch_up_factor(query: AttackQuery, deficit: int) -> float:
    if deficit == 0:
        # The attacker is already even with the corrected target (or ahead):
        # an immediate win in every variant, including the budgeted race.
        return 1.0
    if query.variant is Variant.BUDGETED:
        budget = deficit + query.budget_surplus - 1  # z + surplus - k
        return catch_up_limited(deficit, budget, query.power)
    return catch_up_unlimited(deficit, query.power)


def attack_summands(query: AttackQuery) -> list[Summand]:
    """Per-k terms of the attack-success sum, for inspection and testing.

    Row k pairs the Poisson probability of the attacker having mined k blocks
    during the wait with the probability of winning the race from the
    remaining deficit.  The sum runs to k = z for the original variant and
    k = z + 1 for the corrected and budgeted ones.
    """
    k_top = query.z if query.variant is Variant.ORIGINAL else query.z + 1
    terms = _poisson_terms(poisson_rate(query.z, query.power), k_top)
    return [
        Summand(k, terms[k], _catch_up_factor(query, k_top - k))
        for k in range(k_top + 1)
    ]


def attack_success(query: AttackQuery) -> float:
    """Probability the double-spend attack eventually succeeds.

    Evaluates 1 - sum_k pmf(k) * (1 - catch_up(k)) over k = 0..K, the form
    that avoids the infinite tail.  When the result would be below 1/2 the
    complementary subtraction loses relative accuracy, so the sum is instead
    taken over the success terms pmf(k) * catch_up(k) plus the explicit
    Poisson tail P(X > K), which is all-positive and keeps tiny probabilities
    exact to machine precision.  When p <= q every (1 - catch_up) term of the
    original and corrected variants vanishes, so they return exactly 1.0.
    """
    rows = attack_summands(query)
    missed = math.fsum(row.pmf * (1.0 - row.catch_up) for row in rows)
    if missed < 0.5:
        return _as_probability(1.0 - missed)
    rate = poisson_rate(query.z, query.power)
    k_top = rows[-1].k
    anchor = rows[-1].pmf * rate / (k_top + 1)
    tail = _poisson_upper_tail(rate, k_top + 1, anchor)
    return _as_probability(math.fsum(row.product for row in rows) + tail)


def _check_target(target: float) -> None:
    """The rule on a min_confirmations target, which the CLI runs over every target first."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target!r}")


def min_confirmations(
    power: MiningPowerSplit,
    target: float,
    variant: Variant = Variant.CORRECTED,
    budget_surplus: int = DEFAULT_BUDGET_SURPLUS,
) -> int | None:
    """Smallest z with attack_success(z) <= target, by ascending enumeration.

    Returns None when no finite depth works.  With q >= p each catch-up term is
    at least b/(b+d) >= 1/2 (budget b >= deficit d), so P >= 1/2 at every z;
    as k > z wins outright and the rate zq/p is at least z, P(z) >= 1/2 +
    P(Poisson(z) > z)/2 >= 1 - 1/e at every z >= 1, so a lower target needs
    z = 0.  With q > p, P(z) >= 1 - exp(-z c), c = r - 1 - ln r, r = q/p
    (Chernoff), so the scan stops once that bound clears the target, or past
    DEFAULT_SEARCH_CAP.
    """
    _check_target(target)
    AttackQuery(power, 0, variant, budget_surplus)  # its checks come before any answer
    if power.p <= power.q and (variant is not Variant.BUDGETED or target < 0.5):
        return None
    r = power.q / power.p
    c = r - 1.0 - math.log(r) if r > 1.0 else 0.0  # no Chernoff stop for q <= p
    below_floor = power.p <= power.q and target < 1.0 - 1.0 / math.e - GUARD_BAND
    for z in range(1 if below_floor else DEFAULT_SEARCH_CAP + 1):
        if 1.0 - math.exp(-z * c) > target + GUARD_BAND:
            return None  # the bound only grows with z
        query = AttackQuery(power, z, variant, budget_surplus)
        if attack_success(query) <= target:
            return z
    return None
