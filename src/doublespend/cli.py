"""Command-line front end; every operation as a subcommand, plot-ready output.

Subcommands: prob, min-z, simulate, validate.  Output goes to stdout or
--out PATH as CSV (default) or JSON; CSV uses a header row, '.' decimals and
LF line endings.  All probability arithmetic lives in the library modules;
this module only parses flags, dispatches, and formats.

The default seed for simulate/validate is 20090103, overridable with the
DOUBLESPEND_SEED environment variable (read once at startup).  Seeds lie in
[0, 2**64).  Identical flags plus an identical seed always produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .model import (
    AttackQuery,
    MiningPowerSplit,
    Variant,
    attack_success,
    attack_summands,
    min_confirmations,
    DEFAULT_BUDGET_SURPLUS,
)
from .rng import derive_seed
from .simulate import DEFAULT_MAX_BLOCKS, TrialConfig, run_trials
from .validate import SweepGrid, component_attribution, run_validation

ENV_SEED = "DOUBLESPEND_SEED"
DEFAULT_SEED = 20090103
DEFAULT_TARGETS = (0.001, 0.01, 0.1, 0.5)
DEFAULT_GRID_Q = (0.1, 0.2, 0.3, 0.4)
DEFAULT_GRID_Z = (1, 3, 6, 12, 24)
DEFAULT_TRIALS = 100_000
MAX_Q_RANGE_VALUES = 100_000
# The closed-form model does O(z) work (about a second at this z); simulate's
# flips are bounded by --max-blocks instead.
MAX_Z = 100_000


class UsageError(Exception):
    """Invalid arguments; reported on stderr with exit code 2."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise UsageError(f"{flag}: expected comma-separated {noun}, got {text!r}")


def _parse_q_range(text: str) -> list[float]:
    try:
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise UsageError(f"--q-range: expected START:STOP:STEP, got {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"--q-range: parts must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise UsageError("--q-range: need step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if span >= MAX_Q_RANGE_VALUES:
        raise UsageError(f"--q-range: over {MAX_Q_RANGE_VALUES} values in {text!r}")
    count = int(span) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _check_q(q: float) -> MiningPowerSplit:
    if not 0.0 < q < 1.0:
        raise UsageError(f"q must be in (0, 1), got {q!r}")
    return MiningPowerSplit(q)


def _check_z(z: int, limit: int | None = None) -> int:
    if z < 0:
        raise UsageError(f"z must be >= 0, got {z}")
    if limit is not None and z > limit:
        raise UsageError(f"z must be <= {limit}, got {z}")
    return z


def _check_positive(value: int, flag: str) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _check_seed(seed: int, source: str) -> int:
    if not 0 <= seed < 2**64:
        raise UsageError(f"{source} must be in [0, 2**64), got {seed}")
    return seed


def _seed_from(args) -> int:
    if args.seed is not None:
        return _check_seed(args.seed, "--seed")
    return args.default_seed


def _cmd_prob(args) -> str:
    power = _check_q(args.q)
    z = _check_z(args.z, MAX_Z)
    variant = Variant(args.variant)
    if variant is Variant.BUDGETED:
        _check_positive(args.surplus, "--surplus")
    query = AttackQuery(power, z, variant, args.surplus)
    probability = attack_success(query)
    summands = attack_summands(query) if args.summands else None

    if args.format == "json":
        payload = {
            "q": args.q,
            "z": z,
            "variant": variant.value,
            "budget_surplus": args.surplus,
            "probability": probability,
        }
        if summands is not None:
            payload["summands"] = [
                {"k": s.k, "pmf": s.pmf, "catch_up": s.catch_up, "product": s.product}
                for s in summands
            ]
        return _json(payload)

    text = _csv(
        ["q", "z", "variant", "budget_surplus", "probability"],
        [[args.q, z, variant.value, args.surplus, probability]],
    )
    if summands is not None:
        text += "\n" + _csv(
            ["k", "pmf", "catch_up", "product"],
            [[s.k, s.pmf, s.catch_up, s.product] for s in summands],
        )
    return text


def _cmd_min_z(args) -> str:
    if (args.q is None) == (args.q_range is None):
        raise UsageError("min-z needs exactly one of --q or --q-range")
    q_values = (
        _parse_list(args.q, "--q") if args.q else _parse_q_range(args.q_range)
    )
    targets = _parse_list(args.target, "--target") if args.target else list(
        DEFAULT_TARGETS
    )
    for t in targets:
        if not 0.0 < t < 1.0:
            raise UsageError(f"targets must be in (0, 1), got {t!r}")
    variant = Variant(args.variant)
    rows = []
    for q in q_values:
        power = _check_q(q)
        for target in targets:
            rows.append(
                (
                    q,
                    target,
                    min_confirmations(power, target, variant, args.surplus),
                )
            )

    if args.format == "json":
        payload = {
            "variant": variant.value,
            "budget_surplus": args.surplus,
            "rows": [
                {"q": q, "target": target, "min_z": min_z}
                for q, target, min_z in rows
            ],
        }
        return _json(payload)

    return _csv(
        ["q", "target", "variant", "budget_surplus", "min_z"],
        [
            [q, target, variant.value, args.surplus, "inf" if min_z is None else min_z]
            for q, target, min_z in rows
        ],
    )


def _cmd_simulate(args) -> str:
    power = _check_q(args.q)
    z = _check_z(args.z)
    _check_positive(args.surplus, "--surplus")
    _check_positive(args.trials, "--trials")
    _check_positive(args.max_blocks, "--max-blocks")
    seed = _seed_from(args)
    config = TrialConfig(power, z, args.surplus, args.max_blocks)
    result = run_trials(config, args.trials, seed)

    if args.format == "json":
        payload = {
            "q": args.q,
            "z": z,
            "budget_surplus": args.surplus,
            "trials": args.trials,
            "wins": result.wins,
            "success_rate": result.success_rate,
            "std_err": result.std_err,
            "mean_k": result.mean_k,
            "capped": result.capped_count,
            "seed": seed,
        }
        if args.histogram:
            payload["k_histogram"] = {
                str(k): n for k, n in sorted(result.k_histogram.items())
            }
        return _json(payload)

    text = _csv(
        [
            "q",
            "z",
            "budget_surplus",
            "trials",
            "wins",
            "success_rate",
            "std_err",
            "mean_k",
            "capped",
            "seed",
        ],
        [
            [
                args.q,
                z,
                args.surplus,
                args.trials,
                result.wins,
                result.success_rate,
                result.std_err,
                result.mean_k,
                result.capped_count,
                seed,
            ]
        ],
    )
    if args.histogram:
        text += "\n" + _csv(
            ["k", "count"], [[k, n] for k, n in sorted(result.k_histogram.items())]
        )
    return text


def _cmd_validate(args) -> str:
    q_values = _parse_list(args.q_values, "--q-values")
    z_values = _parse_list(args.z_values, "--z-values", int)
    _check_positive(args.trials, "--trials")
    seed = _seed_from(args)
    variant = Variant(args.variant)
    try:
        grid = SweepGrid(
            q_values=tuple(q_values),
            z_values=tuple(z_values),
            variant=variant,
            budget_surplus=args.surplus,
            trials=args.trials,
            master_seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_z(grid.z_values[-1], MAX_Z)
    rows = run_validation(grid)

    reports = []
    if args.attribution:
        for qi, q in enumerate(grid.q_values):
            for zi, z in enumerate(grid.z_values):
                if z < 1:
                    continue  # attribution needs a non-empty waiting phase
                reports.append(
                    component_attribution(
                        MiningPowerSplit(q),
                        z,
                        grid.budget_surplus,
                        grid.trials,
                        derive_seed(seed, qi, zi, 1),
                    )
                )

    if args.format == "json":
        payload = {
            "variant": variant.value,
            "budget_surplus": grid.budget_surplus,
            "trials": grid.trials,
            "seed": seed,
            "rows": [
                {
                    "q": row.q,
                    "z": row.z,
                    "model_prob": row.model_prob,
                    "sim_prob": row.sim_prob,
                    "sim_std_err": row.sim_std_err,
                    "abs_error": row.abs_error,
                    "rel_error": row.rel_error,
                    "trials": row.trials,
                }
                for row in rows
            ],
        }
        if args.attribution:
            payload["attribution"] = [
                {
                    "q": report.q,
                    "z": report.z,
                    "model_prob": report.model_prob,
                    "sim_prob": report.sim_prob,
                    "sim_std_err": report.sim_std_err,
                    "comparisons": [
                        {
                            "component": row.component,
                            "label": row.label,
                            "observed": row.observed,
                            "expected": row.expected,
                            "std_err": row.std_err,
                            "z_score": row.z_score,
                        }
                        for row in report.rows()
                    ],
                }
                for report in reports
            ]
        return _json(payload)

    text = _csv(
        [
            "q",
            "z",
            "variant",
            "budget_surplus",
            "trials",
            "seed",
            "model_prob",
            "sim_prob",
            "sim_std_err",
            "abs_error",
            "rel_error",
        ],
        [
            [
                row.q,
                row.z,
                variant.value,
                grid.budget_surplus,
                row.trials,
                seed,
                row.model_prob,
                row.sim_prob,
                row.sim_std_err,
                row.abs_error,
                row.rel_error,
            ]
            for row in rows
        ],
    )
    if args.attribution:
        text += "\n" + _csv(
            ["q", "z", "component", "label", "observed", "expected", "std_err", "z_score"],
            [
                [
                    report.q,
                    report.z,
                    row.component,
                    row.label,
                    row.observed,
                    row.expected,
                    row.std_err,
                    row.z_score,
                ]
                for report in reports
                for row in report.rows()
            ],
        )
    return text


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublespend",
        description="Double-spend attack probabilities: model, simulator, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [v.value for v in Variant]

    prob = sub.add_parser("prob", help="attack success probability at one (q, z)")
    prob.add_argument("--q", type=float, required=True)
    prob.add_argument("--z", type=int, required=True)
    prob.add_argument("--variant", choices=variants, default=Variant.CORRECTED.value)
    prob.add_argument("--surplus", type=int, default=DEFAULT_BUDGET_SURPLUS)
    prob.add_argument(
        "--summands", action="store_true", help="also print the per-k terms"
    )
    _add_output_flags(prob)
    prob.set_defaults(handler=_cmd_prob)

    min_z = sub.add_parser(
        "min-z", help="minimum confirmations for target success probabilities"
    )
    min_z.add_argument("--q", default=None, help="comma-separated attacker powers")
    min_z.add_argument("--q-range", default=None, help="START:STOP:STEP sweep")
    min_z.add_argument(
        "--target",
        default=None,
        help=f"comma-separated targets (default {','.join(map(str, DEFAULT_TARGETS))})",
    )
    min_z.add_argument("--variant", choices=variants, default=Variant.CORRECTED.value)
    min_z.add_argument("--surplus", type=int, default=DEFAULT_BUDGET_SURPLUS)
    _add_output_flags(min_z)
    min_z.set_defaults(handler=_cmd_min_z)

    simulate = sub.add_parser("simulate", help="Monte Carlo race at one (q, z)")
    simulate.add_argument("--q", type=float, required=True)
    simulate.add_argument("--z", type=int, required=True)
    simulate.add_argument("--surplus", type=int, default=DEFAULT_BUDGET_SURPLUS)
    simulate.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--max-blocks", type=int, default=DEFAULT_MAX_BLOCKS)
    simulate.add_argument(
        "--histogram", action="store_true", help="also print the k histogram"
    )
    _add_output_flags(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    validate = sub.add_parser("validate", help="model-vs-simulation sweep")
    validate.add_argument(
        "--q-values", default=",".join(map(str, DEFAULT_GRID_Q))
    )
    validate.add_argument(
        "--z-values", default=",".join(map(str, DEFAULT_GRID_Z))
    )
    validate.add_argument("--variant", choices=variants, default=Variant.BUDGETED.value)
    validate.add_argument("--surplus", type=int, default=DEFAULT_BUDGET_SURPLUS)
    validate.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    validate.add_argument("--seed", type=int, default=None)
    validate.add_argument(
        "--attribution",
        action="store_true",
        help="also print per-component error attribution for every cell",
    )
    _add_output_flags(validate)
    validate.set_defaults(handler=_cmd_validate)

    return parser


def _default_seed_from_env() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return _check_seed(int(raw), ENV_SEED)
    except ValueError:
        raise UsageError(f"{ENV_SEED} must be an integer, got {raw!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.default_seed = _default_seed_from_env()
        text = args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
