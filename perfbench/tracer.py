"""Span tracer that wraps the package's layer functions from outside.

Each traced function is replaced, for the duration of a traced pass, in its
defining module and in every module that imported it by name, so calls from
inside a module (min_confirmations -> attack_success, trial_keys ->
mix64_array) are seen too.  A span records (function, parent span, start,
end, count); spans stay in memory and are written out when the run ends.
Self time is span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from contextlib import contextmanager

MODULES = ("cli", "validate", "simulate", "model", "rng")

# (module, function, also replace inside the defining module)
TRACED = (
    ("cli", "main", True),
    ("validate", "run_validation", True),
    ("validate", "component_attribution", True),
    ("simulate", "run_trials", True),
    ("simulate", "empirical_catch_up", True),
    ("simulate", "empirical_k_distribution", True),
    ("model", "min_confirmations", True),
    ("model", "attack_success", True),
    # Per-summand helpers are traced only where another layer calls them:
    # inside model they run once per term, and a span would cost about as
    # much as the call.  The same holds for mix64, step_offset,
    # bernoulli_threshold, ruin_win_probability, attack_summands and the
    # Poisson helpers, which are not traced at all; their time is the
    # caller's self time.
    ("model", "catch_up_limited", False),
    ("model", "poisson_pmf", False),
    ("model", "poisson_rate", False),
    ("rng", "derive_seed", True),
    ("rng", "trial_keys", True),
    ("rng", "mix64_array", True),
)


def _draws(args, result):
    return int(args[0].size)


def _race_counts(args, result):
    # (trials, wait-phase flips, capped trials); capped trials are reported
    # separately, so the wait count assumes every trial finished its wait.
    z = result.config.z
    k_sum = sum(k * n for k, n in result.k_histogram.items())
    return (result.trials, result.trials * z + k_sum, result.capped_count)


COUNTERS = {"mix64_array": _draws, "run_trials": _race_counts}

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
UNITS = {
    "rng.draws": "count",
    "rng.trial_key_draws": "count",
    "rng.busy_s": "s",
    "rng.ns_per_draw": "ns",
    "simulate.run_trials.calls": "count",
    "simulate.run_trials.busy_s": "s",
    "simulate.self_s": "s",
    "simulate.ns_per_draw": "ns",
    "simulate.empirical_catch_up.calls": "count",
    "simulate.empirical_catch_up.busy_s": "s",
    "simulate.empirical_k_distribution.calls": "count",
    "simulate.empirical_k_distribution.busy_s": "s",
    "simulate.wait_flips": "count",
    "simulate.chase_flips": "count",
    "simulate.capped_frac": "frac",
    "model.attack_success.calls": "count",
    "model.attack_success.us_p50": "us",
    "model.attack_success.us_tail": "us",
    "model.min_confirmations.calls": "count",
    "model.min_confirmations.busy_s": "s",
    "model.evals_per_query": "calls/query",
    "model.self_s": "s",
    "validate.run_validation.busy_s": "s",
    "validate.component_attribution.busy_s": "s",
    "validate.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten values beyond it.

    With ten values or fewer there is no such percentile; the smallest
    value is returned, labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n


class Tracer:
    def __init__(self, package: str) -> None:
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        self.names = [f"{module}.{func}" for module, func, _ in TRACED]
        self.spans: list = []
        self._stack = [-1]

    def _wrap(self, fid: int, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (fid, parent, t0, clock(), None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (fid, parent, t0, t1, count(args, result) if count else None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced name for the duration of the block."""
        restore = []
        for fid, (module, func, inside) in enumerate(TRACED):
            original = getattr(self.modules[module], func)
            wrapper = self._wrap(fid, original, COUNTERS.get(func))
            for name, mod in self.modules.items():
                if (inside or name != module) and getattr(mod, func, None) is original:
                    restore.append((mod, func, original))
                    setattr(mod, func, wrapper)
        try:
            yield self
        finally:
            for mod, func, original in reversed(restore):
                setattr(mod, func, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            json.dump(
                {
                    "fields": ["function", "parent", "start", "end", "count"],
                    "functions": self.names,
                    "spans": self.spans,
                },
                handle,
            )

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics, and self time per layer, from the recorded spans."""
        spans, names = self.spans, self.names
        covered = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0

        self_s = dict.fromkeys(MODULES, 0.0)
        busy = dict.fromkeys(MODULES, 0.0)
        calls = dict.fromkeys(names, 0)
        func_busy = dict.fromkeys(names, 0.0)
        success_us = []
        draws = key_draws = kernel_draws = wait_draws = 0
        trials = wait_flips = capped = evals = 0
        for sid, (f, parent, t0, t1, count) in enumerate(spans):
            span = t1 - t0
            name = names[f]
            caller = names[spans[parent][0]] if parent >= 0 else ""
            layer = name.split(".")[0]
            self_s[layer] += span - covered[sid]
            if not caller.startswith(layer + "."):
                busy[layer] += span
            calls[name] += 1
            func_busy[name] += span
            if name == "rng.mix64_array":
                draws += count
                if caller == "rng.trial_keys":
                    key_draws += count
                elif caller.startswith("simulate."):
                    kernel_draws += count
                    if caller == "simulate.empirical_k_distribution":
                        wait_draws += count
            elif name == "simulate.run_trials" and count is not None:
                trials += count[0]
                wait_flips += count[1]
                capped += count[2]
            elif name == "model.attack_success":
                success_us.append(span * 1e6)
                evals += caller == "model.min_confirmations"

        def per(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        wait = wait_flips + wait_draws
        return {
            "rng.draws": draws,
            "rng.trial_key_draws": key_draws,
            "rng.busy_s": busy["rng"],
            "rng.ns_per_draw": per(busy["rng"], draws, 1e9),
            "simulate.run_trials.calls": calls["simulate.run_trials"],
            "simulate.run_trials.busy_s": func_busy["simulate.run_trials"],
            "simulate.self_s": self_s["simulate"],
            "simulate.ns_per_draw": per(busy["simulate"], kernel_draws, 1e9),
            "simulate.empirical_catch_up.calls": calls["simulate.empirical_catch_up"],
            "simulate.empirical_catch_up.busy_s": func_busy["simulate.empirical_catch_up"],
            "simulate.empirical_k_distribution.calls": calls["simulate.empirical_k_distribution"],
            "simulate.empirical_k_distribution.busy_s": func_busy["simulate.empirical_k_distribution"],
            "simulate.wait_flips": wait,
            "simulate.chase_flips": kernel_draws - wait,
            "simulate.capped_frac": per(capped, trials),
            "model.attack_success.calls": len(success_us),
            "model.attack_success.us_p50": statistics.median(success_us) if success_us else 0.0,
            "model.attack_success.us_tail": tail(success_us)[0] if success_us else 0.0,
            "model.min_confirmations.calls": calls["model.min_confirmations"],
            "model.min_confirmations.busy_s": func_busy["model.min_confirmations"],
            "model.evals_per_query": per(evals, calls["model.min_confirmations"]),
            "model.self_s": self_s["model"],
            "validate.run_validation.busy_s": func_busy["validate.run_validation"],
            "validate.component_attribution.busy_s": func_busy["validate.component_attribution"],
            "validate.self_s": self_s["validate"],
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": self_s["cli"],
        }, self_s
