"""Output checks that recompute every expected value without the package.

Nothing here imports doublespend.  The race law mixes the negative binomial
law of k with Gambler's Ruin; attack-success probabilities are re-summed
directly over all-positive terms; sampled values are tested against those
exact values.  The model-vs-simulation bound of acceptance criterion 05 is
deliberately not asserted: the Poisson model is known to miss it.
"""

from __future__ import annotations

import csv
import io
import json
import math

SIGMAS = 5.0
# One-sided normal tail beyond SIGMAS standard errors.
TAIL = 0.5 * math.erfc(SIGMAS / math.sqrt(2.0))
SURPLUS = 35
REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def limited_catch_up(deficit: int, budget: int, q: float) -> float:
    """Chance a walk from `deficit` reaches 0 before deficit + budget."""
    if deficit <= 0:
        return 1.0
    p = 1.0 - q
    if p == q:
        return budget / (budget + deficit)
    if p > q:
        s = q / p
        return s**deficit * (1.0 - s**budget) / (1.0 - s ** (budget + deficit))
    r = p / q
    return (1.0 - r**budget) / (1.0 - r ** (budget + deficit))


def negative_binomial(k: int, z: int, q: float) -> float:
    """Attacker blocks k before the z-th honest block."""
    return math.exp(
        math.lgamma(k + z) - math.lgamma(k + 1) - math.lgamma(z)
        + z * math.log1p(-q) + k * math.log(q)
    )


def race_law(q: float, z: int, surplus: int = SURPLUS) -> float:
    """Exact success probability of the simulated budgeted race."""
    terms = []
    k = 0
    while True:
        weight = negative_binomial(k, z, q)
        terms.append(weight * limited_catch_up(z + 1 - k, z + surplus - k, q))
        if k > z + 1 and weight < 1e-18:
            return math.fsum(terms)
        k += 1


def attack_success_naive(q: float, z: int, variant: str, surplus: int = SURPLUS) -> float:
    """Model success probability, summed directly over every positive term.

    Poisson weights come from lgamma rather than a recurrence, and the terms
    past k = z + 1 (where the attacker is already ahead) are summed one by
    one instead of taken as a complement.
    """
    p = 1.0 - q
    rate = z * q / p
    if rate == 0.0:
        weights = [1.0]
    else:
        log_rate = math.log(rate)
        top = int(rate + 40.0 * math.sqrt(rate) + 60.0) + z
        weights = [
            math.exp(k * log_rate - rate - math.lgamma(k + 1.0)) for k in range(top)
        ]
    terms = []
    for k, weight in enumerate(weights):
        deficit = z + 1 - k
        if deficit <= 0:
            catch = 1.0
        elif variant == "budgeted":
            catch = limited_catch_up(deficit, z + surplus - k, q)
        else:
            catch = (q / p) ** deficit
        terms.append(weight * catch)
    return math.fsum(terms)


def _binomial_log_pmf(x: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )


def _binomial_tail(x: int, n: int, p: float, upward: bool) -> float:
    """P(X >= x) if upward else P(X <= x), summed outward from x."""
    total = 0.0
    step = 1 if upward else -1
    while 0 <= x <= n:
        term = math.exp(_binomial_log_pmf(x, n, p))
        total += term
        if term <= total * 1e-17:
            break
        x += step
    return total


def binomial_ok(successes: int, n: int, p: float) -> bool:
    """Whether `successes` of n lies within SIGMAS standard errors of n*p.

    The normal approximation is wrong for small expected counts, where a
    single success can sit ten standard errors out, so a count outside the
    band still passes if the exact binomial tail beyond it is no rarer than
    the normal tail beyond SIGMAS.
    """
    mean = n * p
    if abs(successes - mean) <= SIGMAS * math.sqrt(n * p * (1.0 - p)):
        return True
    if p <= 0.0 or p >= 1.0:
        return False
    return _binomial_tail(successes, n, p, upward=successes > mean) >= TAIL


def mean_k_ok(mean_k: float, z: int, q: float, trials: int) -> bool:
    """Sample mean of k within SIGMAS standard errors of z*q/p."""
    p = 1.0 - q
    return abs(mean_k - z * q / p) <= SIGMAS * math.sqrt(z * q / (p * p) / trials)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _csv_blocks(text: str) -> list[list[dict]]:
    return [list(csv.DictReader(io.StringIO(block))) for block in text.split("\n\n")]


class Checker:
    """Checks command outputs; caches exact laws across commands."""

    def __init__(self) -> None:
        self._laws: dict[tuple[float, int], float] = {}
        self.min_z_cells: list[tuple[str, float, float, int]] = []

    def law(self, q: float, z: int) -> float:
        if (q, z) not in self._laws:
            self._laws[(q, z)] = race_law(q, z)
        return self._laws[(q, z)]

    def check(self, argv: list[str], text: str) -> tuple[list[str], dict]:
        """Errors found in one command's output, and counts read from it."""
        command = argv[0]
        if command == "simulate":
            return self._simulate(argv, text)
        if command == "min-z":
            return self._min_z(argv, text), {}
        return self._validate(argv, text), {}

    def _simulate(self, argv, text):
        summary_block, hist_block = _csv_blocks(text)
        (row,) = summary_block
        q, z = float(_flag(argv, "--q")), int(_flag(argv, "--z"))
        trials = int(_flag(argv, "--trials"))
        wins = int(row["wins"])
        histogram = {int(r["k"]): int(r["count"]) for r in hist_block}
        k_sum = sum(k * n for k, n in histogram.items())
        errors = []
        if (float(row["q"]), int(row["z"]), int(row["trials"]), row["seed"]) != (
            q, z, trials, _flag(argv, "--seed")
        ):
            errors.append(f"echoed parameters differ: {row}")
        if int(row["capped"]) != 0:
            errors.append(f"capped trials: {row['capped']}")
        if sum(histogram.values()) != trials:
            errors.append("histogram does not account for every trial")
        if float(row["success_rate"]) != wins / trials:
            errors.append("success_rate != wins / trials")
        if not close(float(row["mean_k"]), k_sum / trials):
            errors.append("mean_k disagrees with the histogram")
        if not binomial_ok(wins, trials, self.law(q, z)):
            errors.append(f"{wins} wins of {trials}, exact law {self.law(q, z)!r}")
        if not mean_k_ok(k_sum / trials, z, q, trials):
            errors.append(f"mean_k {row['mean_k']} far from z*q/p")
        return errors, {"wait_flips": trials * z + k_sum}

    def _min_z(self, argv, text):
        (rows,) = _csv_blocks(text)
        q = float(_flag(argv, "--q"))
        variant = _flag(argv, "--variant")
        targets = [float(t) for t in _flag(argv, "--target").split(",")]
        errors = []
        if [float(r["target"]) for r in rows] != targets:
            return [f"rows do not match targets {targets}"]
        for row in rows:
            target = float(row["target"])
            if float(row["q"]) != q or row["variant"] != variant:
                errors.append(f"echoed parameters differ: {row}")
                continue
            if row["min_z"] == "inf":
                errors.append(f"no finite depth at q={q} target={target}")
                continue
            z = int(row["min_z"])
            at = attack_success_naive(q, z, variant)
            if at > target * (1.0 + REL):
                errors.append(f"P({z})={at!r} > target {target} at q={q}")
            if z > 0:
                before = attack_success_naive(q, z - 1, variant)
                if before <= target * (1.0 - REL):
                    errors.append(f"P({z - 1})={before!r} <= target {target} at q={q}")
            self.min_z_cells.append((variant, target, q, z))
        return errors

    def min_z_monotone_errors(self) -> list[str]:
        """min_z must not fall as q rises, per variant and target."""
        errors = []
        groups: dict[tuple[str, float], list[tuple[float, int]]] = {}
        for variant, target, q, z in self.min_z_cells:
            groups.setdefault((variant, target), []).append((q, z))
        for (variant, target), cells in groups.items():
            cells.sort()
            for (q0, z0), (q1, z1) in zip(cells, cells[1:]):
                if z1 < z0:
                    errors.append(
                        f"{variant} target {target}: min_z {z0} at q={q0} "
                        f"but {z1} at q={q1}"
                    )
        return errors

    def _validate(self, argv, text):
        payload = json.loads(text)
        q = float(_flag(argv, "--q-values"))
        z = int(_flag(argv, "--z-values"))
        trials = int(_flag(argv, "--trials"))
        law = self.law(q, z)
        model = attack_success_naive(q, z, "budgeted")
        errors = []
        if (payload["variant"], payload["budget_surplus"], payload["trials"]) != (
            "budgeted", SURPLUS, trials
        ) or str(payload["seed"]) != _flag(argv, "--seed"):
            errors.append("echoed parameters differ")
        (row,) = payload["rows"]
        (report,) = payload["attribution"]
        for name, block in ("row", row), ("attribution", report):
            if (block["q"], block["z"]) != (q, z):
                errors.append(f"{name} is for ({block['q']}, {block['z']})")
            if not close(block["model_prob"], model):
                errors.append(f"{name} model_prob {block['model_prob']!r} != {model!r}")
            wins = round(block["sim_prob"] * trials)
            if not binomial_ok(wins, trials, law):
                errors.append(f"{name}: {wins} wins of {trials}, exact law {law!r}")
        if abs(row["abs_error"] - abs(row["model_prob"] - row["sim_prob"])) > 1e-15:
            errors.append("abs_error != |model_prob - sim_prob|")

        comparisons = report["comparisons"]
        catch_rows = [c for c in comparisons if c["component"] == "catch_up"]
        labels = [f"deficit={z + 1 - k},budget={z + SURPLUS - k}" for k in range(z + 1)]
        if [c["label"] for c in catch_rows] != labels:
            errors.append("catch_up rows do not cover k = 0..z")
        for c, k in zip(catch_rows, range(z + 1)):
            expected = limited_catch_up(z + 1 - k, z + SURPLUS - k, q)
            if not close(c["expected"], expected):
                errors.append(f"catch_up {c['label']} expected {c['expected']!r}")
            if not binomial_ok(round(c["observed"] * trials), trials, expected):
                errors.append(f"catch_up {c['label']} observed {c['observed']!r}")

        (mean_row,) = [c for c in comparisons if c["component"] == "mean_k"]
        if not close(mean_row["expected"], z * q / (1.0 - q)):
            errors.append(f"mean_k expected {mean_row['expected']!r} != z*q/p")
        if not mean_k_ok(mean_row["observed"], z, q, trials):
            errors.append(f"mean_k observed {mean_row['observed']!r} far from z*q/p")

        # k_pmf rows are expected to be off (the model's Poisson is not the
        # negative binomial law); they are only read to rebuild the hybrid.
        weights = {
            int(c["label"][2:]): c["observed"]
            for c in comparisons
            if c["component"] == "k_pmf" and c["label"].startswith("k=")
        }
        if not close(math.fsum(weights.values()), 1.0):
            errors.append("empirical k distribution does not sum to 1")
        catch = {k: limited_catch_up(z + 1 - k, z + SURPLUS - k, q) for k in weights}
        hybrid = math.fsum(w * catch[k] for k, w in weights.items())
        hybrid_var = max(
            math.fsum(w * catch[k] ** 2 for k, w in weights.items()) - hybrid**2, 0.0
        )
        (hybrid_row,) = [c for c in comparisons if c["component"] == "hybrid"]
        race = report["sim_prob"]
        if not close(hybrid_row["observed"], hybrid):
            errors.append(f"hybrid observed {hybrid_row['observed']!r} != {hybrid!r}")
        if hybrid_row["expected"] != race:
            errors.append("hybrid expected != the race success rate")
        # The race rate's standard error is taken at the hybrid's rate: the
        # race's own is 0 whenever no trial wins, which is the usual outcome
        # in cells where the success probability is far below 1 / trials.
        std_err = math.sqrt((hybrid_var + hybrid * (1.0 - hybrid)) / trials)
        if abs(hybrid - race) > SIGMAS * std_err and not binomial_ok(
            round(race * trials), trials, hybrid
        ):
            errors.append(f"hybrid {hybrid!r} vs race {race!r}, SE {std_err!r}")
        return errors
