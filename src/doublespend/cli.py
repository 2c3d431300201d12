"""Command-line front end; every operation as a subcommand, plot-ready output.

Subcommands: prob, min-z, simulate, validate.  Output goes to stdout or
--out PATH as CSV (default) or JSON; CSV uses a header row, '.' decimals and
LF line endings.  All probability arithmetic and every rule on q, z, the
surplus, the trial count and the seed live in the library, whose checks raise
ValueError, which main prints as "error: <message>" with exit status 2; the
model checks every min-z target before its first search.  This module only
parses flags, caps work (MAX_Z, MAX_SURPLUS, MAX_TRIALS, MAX_Q_RANGE_VALUES),
dispatches, and formats.  Each handler returns a head dict and a list of
Blocks, which _render writes as CSV or JSON.  min-z answers all its targets
for one q from one model scan.  simulate and validate import the simulator
inside their handlers, so prob and min-z run without loading numpy.

simulate and validate take --seed in [0, 2**64), else 20090103.  The output
is a function of argv alone: identical argv gives byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

from .model import (
    DEFAULT_BUDGET_SURPLUS, AttackQuery, MiningPowerSplit, Variant, _min_depths,
    attack_success, attack_summands,
)

DEFAULT_SEED = 20090103
DEFAULT_TARGETS = (0.001, 0.01, 0.1, 0.5)
DEFAULT_TRIALS = 100_000
MAX_Q_RANGE_VALUES = 100_000
# The closed-form model does O(z) work (about half a second at this z, in a
# fresh process); a simulated walk stops at simulate.DEFAULT_MAX_BLOCKS
# flips instead.
MAX_Z = 100_000
# A chase walk that drifts away from the attacker runs until it falls this
# far behind (or reaches a million flips), so validate bounds it; prob and
# min-z cost the same at any surplus.
MAX_SURPLUS = 100_000
# Simulation time grows linearly in --trials: this many take minutes on the
# slowest grid cell (q=0.4, z=24), and trial indices stay far below 2**64.
MAX_TRIALS = 10**8


class Block(NamedTuple):
    """One output table: a JSON key (None: CSV only), its CSV and JSON
    columns (empty: JSON or CSV only), its rows (dicts holding every column
    it prints), and the CSV text for None."""

    key: str | None
    csv: tuple[str, ...]
    json: tuple[str, ...]
    rows: list[dict]
    none: str = ""


def _fields(record, names: tuple[str, ...]) -> dict:
    return {name: getattr(record, name) for name in names}


def _fmt(value, none: str) -> str:
    if value is None:
        return none
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(fmt: str, head: dict, blocks: list[Block]) -> str:
    """JSON: the head, then each keyed block as a list of row objects.
    CSV: each block with CSV columns under its header, blank-line separated."""
    if fmt == "json":
        payload = dict(head)
        for block in blocks:
            if block.key is not None:
                payload[block.key] = [{c: r[c] for c in block.json} for r in block.rows]
        return json.dumps(payload, indent=2) + "\n"
    texts = []
    for block in blocks:
        if block.csv:
            lines = [",".join(block.csv)]
            lines += (",".join(_fmt(r[c], block.none) for c in block.csv) for r in block.rows)
            texts.append("\n".join(lines) + "\n")
    return "\n".join(texts)


def _parse_list(text: str, flag: str, kind: type = float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag}: expected comma-separated {noun}, got {text!r}")
    return values


def _parse_q_range(text: str) -> list[float]:
    try:
        start, stop, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"--q-range: expected START:STOP:STEP, got {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"--q-range: parts must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError("--q-range: need step > 0 and stop >= start")
    span = (stop - start) / step + 1e-9
    if span >= MAX_Q_RANGE_VALUES:
        raise ValueError(f"--q-range: over {MAX_Q_RANGE_VALUES} values in {text!r}")
    count = int(span) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _at_most(value: int, name: str, high: int) -> int:
    """value, unless it is past one of this module's work caps."""
    if value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return value


def _cmd_prob(args) -> tuple[dict, list[Block]]:
    power, z = MiningPowerSplit(args.q), _at_most(args.z, "z", MAX_Z)
    query = AttackQuery(power, z, Variant(args.variant), args.surplus)
    head = {
        "q": args.q,
        "z": z,
        "variant": args.variant,
        "budget_surplus": args.surplus,
        "probability": attack_success(query),
    }
    blocks = [Block(None, tuple(head), (), [head])]
    if args.summands:
        columns = ("k", "pmf", "catch_up", "product")
        rows = [_fields(summand, columns) for summand in attack_summands(query)]
        blocks.append(Block("summands", columns, columns, rows))
    return head, blocks


def _cmd_min_z(args) -> tuple[dict, list[Block]]:
    if (args.q is None) == (args.q_range is None):
        raise ValueError("min-z needs exactly one of --q or --q-range")
    if args.q is None:
        q_values = _parse_q_range(args.q_range)
    else:
        q_values = _parse_list(args.q, "--q")
    targets = (
        DEFAULT_TARGETS if args.target is None else _parse_list(args.target, "--target")
    )
    powers = [MiningPowerSplit(q) for q in q_values]
    variant = Variant(args.variant)
    head = {"variant": variant.value, "budget_surplus": args.surplus}
    rows = [
        {**head, "q": power.q, "target": target, "min_z": depth}
        for power in powers
        for target, depth in zip(
            targets, _min_depths(power, targets, variant, args.surplus)
        )
    ]
    csv = ("q", "target", "variant", "budget_surplus", "min_z")
    return head, [Block("rows", csv, ("q", "target", "min_z"), rows, "inf")]


def _cmd_simulate(args) -> tuple[dict, list[Block]]:
    from .rng import _check_seed
    from .simulate import TrialConfig, _check_trials, run_trials

    config = TrialConfig(MiningPowerSplit(args.q), args.z, args.surplus)
    _check_trials(_at_most(args.trials, "--trials", MAX_TRIALS))
    _check_seed(args.seed)
    result = run_trials(config, args.trials, args.seed)
    head = {
        "q": args.q,
        "z": args.z,
        "budget_surplus": args.surplus,
        "trials": args.trials,
        "wins": result.wins,
        "success_rate": result.success_rate,
        "std_err": result.std_err,
        "mean_k": result.mean_k,
        "capped": result.capped_count,
        "seed": args.seed,
    }
    blocks = [Block(None, tuple(head), (), [head])]
    if args.histogram:
        histogram = result.k_histogram.items()
        head["k_histogram"] = {str(k): n for k, n in histogram}
        rows = [{"k": k, "count": n} for k, n in histogram]
        blocks.append(Block(None, ("k", "count"), (), rows))
    return head, blocks


# Columns shared by validate's rows and its attribution reports.
_CELL = ("q", "z")
_ESTIMATES = ("model_prob", "sim_prob", "sim_std_err")
_ERRORS = _ESTIMATES + ("abs_error", "rel_error")
_COMPARISON = ("component", "label", "observed", "expected", "std_err", "z_score")


def _cmd_validate(args) -> tuple[dict, list[Block]]:
    from .validate import SweepGrid, _sweep

    q_values = _parse_list(args.q_values, "--q-values")
    z_values = _parse_list(args.z_values, "--z-values", int)
    _at_most(args.trials, "--trials", MAX_TRIALS)
    _at_most(args.surplus, "--surplus", MAX_SURPLUS)
    variant = Variant(args.variant)
    grid = SweepGrid(
        q_values=tuple(q_values),
        z_values=tuple(z_values),
        variant=variant,
        budget_surplus=args.surplus,
        trials=args.trials,
        master_seed=args.seed,
    )
    _at_most(grid.z_values[-1], "z", MAX_Z)
    head = {
        "variant": variant.value,
        "budget_surplus": grid.budget_surplus,
        "trials": grid.trials,
        "seed": args.seed,
    }
    csv = _CELL + ("variant", "budget_surplus", "trials", "seed") + _ERRORS
    json_columns = _CELL + _ERRORS + ("trials",)
    rows, reports = _sweep(grid, rows=True, reports=args.attribution)
    rows = [{**head, **_fields(row, json_columns)} for row in rows]
    blocks = [Block("rows", csv, json_columns, rows)]
    if args.attribution:
        flat, nested = [], []
        for report in reports:
            cell = _fields(report, _CELL + _ESTIMATES)
            comparisons = [_fields(row, _COMPARISON) for row in report.rows()]
            flat += ({**cell, **row} for row in comparisons)
            nested.append({**cell, "comparisons": comparisons})
        blocks.append(Block(None, _CELL + _COMPARISON, (), flat))
        blocks.append(
            Block("attribution", (), _CELL + _ESTIMATES + ("comparisons",), nested)
        )
    return head, blocks


# Every flag's settings, declared once; each subcommand lists those it takes.
_FLAGS = {
    "--q": dict(type=float, required=True),
    "--z": dict(type=int, required=True),
    "--q-range": dict(help="START:STOP:STEP sweep"),
    "--target": dict(
        help=f"comma-separated targets (default {','.join(map(str, DEFAULT_TARGETS))})"
    ),
    "--q-values": dict(default="0.1,0.2,0.3,0.4"),
    "--z-values": dict(default="1,3,6,12,24"),
    "--variant": dict(
        choices=[v.value for v in Variant], default=Variant.CORRECTED.value
    ),
    "--surplus": dict(type=int, default=DEFAULT_BUDGET_SURPLUS),
    "--trials": dict(type=int, default=DEFAULT_TRIALS),
    "--seed": dict(type=int, default=DEFAULT_SEED),
    "--summands": dict(action="store_true", help="also print the per-k terms"),
    "--histogram": dict(action="store_true", help="also print the k histogram"),
    "--attribution": dict(
        action="store_true",
        help="also print per-component error attribution for every cell",
    ),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(help="output path (default: stdout)"),
}

# Each subcommand's help, parser defaults (its handler among them) and flags in
# --help order, before --format and --out.  min-z's --q, a list of powers, is
# a (name, settings) pair of its own.
_COMMANDS = {
    "prob": (
        "attack success probability at one (q, z)",
        dict(handler=_cmd_prob),
        ("--q", "--z", "--variant", "--surplus", "--summands"),
    ),
    "min-z": (
        "minimum confirmations for target success probabilities",
        dict(handler=_cmd_min_z),
        (("--q", dict(help="comma-separated attacker powers")), "--q-range",
         "--target", "--variant", "--surplus"),
    ),
    "simulate": (
        "Monte Carlo race at one (q, z)",
        dict(handler=_cmd_simulate),
        ("--q", "--z", "--surplus", "--trials", "--seed", "--histogram"),
    ),
    "validate": (
        "model-vs-simulation sweep",
        dict(handler=_cmd_validate, variant=Variant.BUDGETED.value),
        ("--q-values", "--z-values", "--variant", "--surplus", "--trials", "--seed",
         "--attribution"),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="doublespend",
        description="Double-spend attack probabilities: model, simulator, validation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, defaults, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        for flag in (*flags, "--format", "--out"):
            flag, settings = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            sub.add_argument(flag, **settings)
        sub.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _render(args.format, *args.handler(args))
    except ValueError as exc:  # invalid arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
