"""Benchmark entry point: runs one workload through doublespend.cli.main in-process.

    python3 perfbench/run.py --workload race|mindepth|attribution \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Commands come from perfbench/workloads.py, generated from the seed,
and every command's output is checked by perfbench/checks.py.

--trace 0 runs a few warm-up commands, then whole rounds of the workload
until S seconds have passed, and reports the end-to-end metrics.  Their
command times are in reference seconds: each command's wall time is scaled
by the host's speed around it, measured with the fixed kernels of
perfbench/calibrate.py, so that the swings of a shared host do not swamp a
change to the program.  Raw wall times are reported alongside.

--trace 1 runs a fixed list of rounds, sized from S, once untraced and once
with perfbench/tracer.py wrapping each layer, and reports the per-layer
metrics.

Both print a readable report with every metric and its unit, then, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  Results, per-command output digests and spans are
written under .perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
SETUP_KERNEL_SAMPLES = 5
TAIL_FRACTION = 0.1
TAIL_MIN_COMMANDS = 10
WARM_UP_COMMANDS = 2

sys.path.insert(0, str(BENCH))
from calibrate import REFERENCE_S, HostClock, python_s  # noqa: E402
from checks import Checker  # noqa: E402
from tracer import UNITS as LAYER_UNITS, Tracer  # noqa: E402
from workloads import HOST_KERNEL, WORKLOADS, ops_in  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Times the set-up a user pays per invocation: a fresh interpreter imports
# the package and builds the workload's argv list.
PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import doublespend.cli
from workloads import WORKLOADS
WORKLOADS[{workload!r}][0]({seed}, 0)
print(time.monotonic())
"""


def import_cli():
    """The CLI module from ./src, or None when the checkout has no package."""
    if not (SRC / "doublespend" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("doublespend.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        return None
    return cli


def machine_info() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": "unknown",
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                level = (index / "level").read_text().strip()
                info[f"L{level}"] = (index / "size").read_text().strip()
    return info


def setup_probe(workload: str, seed: int):
    """A function that times one fresh-interpreter set-up.

    It returns (wall seconds, reference seconds).  Set-up is interpreter
    start-up and imports, so it is scaled by the Python kernel of
    calibrate.py, sampled just before and just after it.
    """
    code = PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)

    def probe() -> tuple[float, float]:
        kernel = [python_s() for _ in range(SETUP_KERNEL_SAMPLES)]
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds = float(done.stdout) - start
        kernel += [python_s() for _ in range(SETUP_KERNEL_SAMPLES)]
        return seconds, seconds * REFERENCE_S["python"] / statistics.fmean(kernel)

    return probe


def run_command(cli, argv: list[str]) -> tuple[int, float, str]:
    """(exit code, wall seconds, stdout) of one in-process CLI command."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start, buffer.getvalue()


def execute(cli, commands, checker: Checker, clock: HostClock | None = None) -> list[dict]:
    records = []
    for argv in commands:
        if clock:
            clock.before_command()
        code, seconds, text = run_command(cli, argv)
        if clock:
            clock.after_command(seconds)
        errors, counts = [f"exit code {code}"], {}
        if code == 0:
            try:
                errors, counts = checker.check(argv, text)
            except Exception as exc:  # a malformed output is a failed command
                errors = [f"unreadable output: {exc!r}"]
        records.append(
            {
                "argv": argv,
                "exit": code,
                "seconds": seconds,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "errors": errors,
                **counts,
            }
        )
    return records


def compare_digests(records: list[dict], path: Path) -> None:
    """Fail commands whose output differs from an earlier run with this seed."""
    earlier = json.loads(path.read_text()) if path.exists() else []
    for index, (record, digest) in enumerate(zip(records, earlier)):
        if record["sha256"] != digest:
            record["errors"].append(f"output of command {index} differs from an earlier run")
    digests = [r["sha256"] for r in records]
    if len(digests) > len(earlier):
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests))
        os.replace(tmp, path)


def scale_times(records: list[dict], clock: HostClock) -> None:
    """Add each command's time in reference seconds (see calibrate.py)."""
    clock.close()
    for index, record in enumerate(records):
        record["ref_seconds"] = record["seconds"] * clock.scale(index)


def tail_count(n: int) -> int:
    """Commands in the tail: the slowest tenth, and at least ten (or all)."""
    return min(n, max(TAIL_MIN_COMMANDS, math.ceil(TAIL_FRACTION * n)))


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest tenth of the values, and of at least ten.

    Every round of a workload runs the same mix of command sizes, so a fixed
    fraction of the commands covers the same sizes in any run, whatever the
    number of rounds; a single order statistic would jump between the grid
    cells' cost levels as that number changes.  The floor of ten keeps one
    slow command from setting the tail of a run of few, equal commands.
    """
    ordered = sorted(values, reverse=True)
    return statistics.fmean(ordered[: tail_count(len(ordered))])


def end_to_end(records: list[dict], setup_s: float, peak_rss_mb: float, key: str) -> dict:
    times = [r[key] for r in records]
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(ops_in(r["argv"]) for r in records) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_mean(times),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<42} {value!r:>24} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    machine = machine_info()
    cli = import_cli()
    if cli is None:
        print(f"error: no doublespend package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    make_round, round_s = WORKLOADS[args.workload]
    probe = setup_probe(args.workload, args.seed)
    setup = []
    checker = Checker()
    run_errors = []
    tag = f"{args.workload}-seed{args.seed}"
    # Warm-up commands from a round no timed pass runs: their errors count,
    # their times do not.
    for record in execute(cli, make_round(args.seed, -1)[:WARM_UP_COMMANDS], checker):
        run_errors += [f"warm-up {' '.join(record['argv'])}: {e}" for e in record["errors"]]
    clock = HostClock(HOST_KERNEL[args.workload])

    if args.trace == 0:
        baseline = []
        start = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() < start + args.seconds:
            baseline += execute(cli, make_round(args.seed, rounds), checker, clock)
            rounds += 1
            # Set-up probes are spread over the run, between rounds, so their
            # median samples the host as the commands did.
            elapsed = time.perf_counter() - start
            while len(setup) < SETUP_REPEATS * min(elapsed / args.seconds, 1.0):
                setup.append(probe())
        records = baseline
        rss = peak_rss_mb()
    else:
        rounds = max(1, math.ceil(args.seconds / 3 / round_s))
        commands = [argv for j in range(rounds) for argv in make_round(args.seed, j)]
        baseline = execute(cli, commands, checker, clock)
        rss = peak_rss_mb()
        tracer = Tracer("doublespend")
        with tracer.installed():
            traced = execute(cli, commands, checker)
        for before, after in zip(baseline, traced):
            if before["sha256"] != after["sha256"]:
                after["errors"].append("traced output differs from the untraced run")
        records = baseline + traced
        tracer.write(OUT / f"spans-{tag}.json.gz")
        layer, self_s = tracer.metrics()
        # Wait flips read from the --histogram blocks must match those the
        # tracer counted from run_trials' results.
        histogram_wait = sum(r.get("wait_flips", 0) for r in traced)
        if histogram_wait and histogram_wait != layer["simulate.wait_flips"]:
            run_errors.append(
                f"--histogram blocks give {histogram_wait} wait flips, "
                f"the trace {layer['simulate.wait_flips']}"
            )

    scale_times(baseline, clock)
    compare_digests(baseline, OUT / f"digests-{tag}.json")
    run_errors += checker.min_z_monotone_errors()
    failed = sum(1 for r in records if r["errors"])
    for r in records:
        for error in r["errors"][:3]:
            print(f"FAILED {' '.join(r['argv'])}: {error}", file=sys.stderr)
    for error in run_errors:
        print(f"FAILED run check: {error}", file=sys.stderr)

    times = [r["seconds"] for r in baseline]
    setup += [probe() for _ in range(SETUP_REPEATS - len(setup))]
    e2e = end_to_end(baseline, statistics.median(s for _, s in setup), rss, "ref_seconds")
    raw = end_to_end(baseline, statistics.median(s for s, _ in setup), rss, "seconds")
    print(f"machine: {json.dumps(machine)}")
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{rounds} rounds, {len(baseline)} commands, "
        f"{sum(ops_in(r['argv']) for r in baseline)} ops in {sum(times):.3f} s of commands"
    )
    kernel_mean_s = statistics.fmean(clock.samples)
    print(
        "end-to-end" + (" (untraced pass)" if args.trace else "")
        + f", command times in reference seconds ({clock.kernel} kernel "
        f"{kernel_mean_s * 1e3:.3f} ms on average):"
    )
    print_metrics(e2e, END_TO_END_UNITS)
    print("  the same in raw wall seconds:")
    print_metrics({k: v for k, v in raw.items() if k != "peak_rss_mb"}, END_TO_END_UNITS)
    print(
        f"  op_tail_s is the mean of the {tail_count(len(times))} slowest of "
        f"{len(times)} commands"
    )
    print(f"  failed_frac = {failed / len(records)!r} ({failed} of {len(records)} commands)")
    run_digest = hashlib.sha256("".join(r["sha256"] for r in baseline).encode()).hexdigest()
    print(f"  output sha256 over the {len(baseline)} commands: {run_digest}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "end_to_end": e2e, "end_to_end_raw": raw,
              "kernel": clock.kernel, "kernel_mean_s": kernel_mean_s,
              "kernel_samples_s": clock.samples, "kernel_sample_before": clock.bracket,
              "op_tail_commands": tail_count(len(times)),
              "run_errors": run_errors, "commands": records}
    if args.trace == 0:
        metrics, units = e2e, END_TO_END_UNITS
    else:
        untraced_s, traced_s = sum(times), sum(r["seconds"] for r in traced)
        layer["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        metrics, units = layer, LAYER_UNITS
        print("per-layer (traced pass):")
        print_metrics(metrics, units)
        print(
            f"  self time by layer: "
            + ", ".join(f"{m} {s:.4f} s ({s / traced_s:.2%})" for m, s in self_s.items())
        )
        print(
            f"  sum of self times {sum(self_s.values()):.4f} s, untraced {untraced_s:.4f} s, "
            f"traced {traced_s:.4f} s"
        )
        result["per_layer"] = layer
        result["self_s"] = self_s
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(json.dumps({
        "correct": failed == 0 and not run_errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
