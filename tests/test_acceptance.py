"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion NN: PASS/FAIL` line (run with -s to stream
them).  Criterion 5 is expected to fail at exactly one cell: the exact
Bernoulli parameter of the simulated race at q=0.4, z=24 sits 0.0416 away
from the budgeted model, which is genuinely outside the stated 0.04 bound
(verified against 50-digit arithmetic and a million-trial run).  The check
asserts the stated bound anyway rather than quietly widening it.
"""

import math
import time

import pytest

import doublespend.simulate as simulate_module
from doublespend import (
    AttackQuery,
    MiningPowerSplit,
    RuinGameSpec,
    SweepGrid,
    TrialConfig,
    Variant,
    attack_success,
    attack_summands,
    catch_up_limited,
    catch_up_unlimited,
    component_attribution,
    empirical_k_distribution,
    min_confirmations,
    ruin_win_probability,
    run_trials,
    run_validation,
)
from doublespend.cli import main
from oracles import attack_success_naive, ruin_by_linear_solve

MASTER_SEED = 20090103


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_worked_example_exactness():
    rows = attack_summands(AttackQuery(MiningPowerSplit(0.25), 3, Variant.ORIGINAL))
    k2 = rows[2]
    pmf_err = abs(k2.pmf - 1.0 / (2.0 * math.e))
    product_err = abs(k2.product - 1.0 / (6.0 * math.e))
    report(
        1,
        pmf_err <= 1e-12 and product_err <= 1e-12,
        f"k=2 summand: |pmf - 1/(2e)| = {pmf_err:.2e}, "
        f"|product - 1/(6e)| = {product_err:.2e} (tol 1e-12)",
    )


def test_criterion_02_closed_form_vs_linear_solve():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in range(2, 31):
            oracle = [ruin_by_linear_solve(i, n, q) for i in range(n + 1)]
            for i in range(1, n):
                got = ruin_win_probability(RuinGameSpec(i, n, q))
                worst = max(worst, abs(got - oracle[i]))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-10 and elapsed < 1.0,
        f"max |closed form - linear solve| = {worst:.2e} (tol 1e-10), "
        f"{elapsed:.2f}s (< 1 s)",
    )


def test_criterion_03_limited_budget_limit():
    worst = 0.0
    for q in [0.05 * i for i in range(1, 10)]:  # 0.05 .. 0.45
        power = MiningPowerSplit(q)
        for z in range(11):
            gap = abs(catch_up_limited(z, 200, power) - catch_up_unlimited(z, power))
            worst = max(worst, gap)
    report(3, worst <= 1e-6, f"max |limited(y=200) - unlimited| = {worst:.2e} (tol 1e-6)")


def test_criterion_04_budget_convergence_to_corrected():
    worst = 0.0
    for q in [0.05 * i for i in range(1, 9)]:  # 0.05 .. 0.40
        power = MiningPowerSplit(q)
        for z in range(11):
            budgeted = attack_success(AttackQuery(power, z, Variant.BUDGETED, 35))
            corrected = attack_success(AttackQuery(power, z, Variant.CORRECTED))
            worst = max(worst, abs(budgeted - corrected))
    report(4, worst <= 1e-3, f"max |budgeted(35) - corrected| = {worst:.2e} (tol 1e-3)")


def test_criterion_05_model_vs_simulation_error_surface():
    grid = SweepGrid(
        q_values=(0.1, 0.2, 0.3, 0.4),
        z_values=(1, 3, 6, 12, 24),
        variant=Variant.BUDGETED,
        trials=1_000_000,
        master_seed=MASTER_SEED,
    )
    rows = run_validation(grid)
    offenders = [row for row in rows if row.abs_error >= 0.04]
    table = "; ".join(
        f"(q={row.q}, z={row.z}): {row.abs_error:.4f}" for row in offenders
    )
    worst = max(row.abs_error for row in rows)
    report(
        5,
        not offenders,
        f"max abs error {worst:.4f} over 20 cells at 1e6 trials (bound 0.04)"
        + (
            f"; cells at/over the bound: {table} -- the exact race law puts "
            f"(q=0.4, z=24) at 0.0416, so the stated bound is unattainable there"
            if offenders
            else ""
        ),
    )


def test_criterion_06_component_attribution():
    result = component_attribution(
        MiningPowerSplit(0.25), 3, 35, 1_000_000, MASTER_SEED + 6
    )
    catch_ok = all(abs(row.z_score) <= 3.0 for row in result.catch_up)
    mean_ok = abs(result.mean_k.z_score) <= 3.0
    tvd_ok = result.total_variation.z_score > 5.0
    hybrid_ok = abs(result.hybrid.z_score) <= 3.0
    report(
        6,
        catch_ok and mean_ok and tvd_ok and hybrid_ok,
        "catch-up |z| <= 3: {}; mean-k |z| = {:.2f} <= 3; "
        "total-variation z = {:.0f} > 5; hybrid |z| = {:.2f} <= 3".format(
            [round(row.z_score, 2) for row in result.catch_up],
            abs(result.mean_k.z_score),
            result.total_variation.z_score,
            abs(result.hybrid.z_score),
        ),
    )


def test_criterion_07_overdispersion():
    failures = []
    margins = []
    for qi, q in enumerate((0.1, 0.2, 0.3, 0.4)):
        power = MiningPowerSplit(q)
        rate_per_z = q / (1.0 - q)
        for zi, z in enumerate((1, 3, 6, 12, 24)):
            dist = empirical_k_distribution(
                power, z, 100_000, MASTER_SEED + 700 + 10 * qi + zi
            )
            mean = sum(k * w for k, w in dist.items())
            var = sum(k * k * w for k, w in dist.items()) - mean * mean
            lam = z * rate_per_z
            margins.append(var - lam)
            if var <= lam:
                failures.append((q, z, var, lam))
    report(
        7,
        not failures,
        f"empirical var(k) > lambda at all 20 cells; min margin "
        f"{min(margins):.4f} (negative-binomial var exceeds lambda by lambda*q/p)",
    )


def test_criterion_08_min_confirmations_sweep(capsys):
    code = main(
        [
            "min-z",
            "--q",
            ",".join(
                [f"{0.02 * i:.2f}" for i in range(1, 25)] + ["0.50", "0.55", "0.60"]
            ),
            "--target",
            "0.001,0.01,0.1,0.5",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().split("\n")[1:]
    cells = {}
    for line in lines:
        q, target, _, _, min_z = line.split(",")
        cells[(float(q), float(target))] = min_z
    targets = (0.001, 0.01, 0.1, 0.5)
    monotone = True
    for target in targets:
        values = [
            math.inf if cells[(round(0.02 * i, 2), target)] == "inf"
            else int(cells[(round(0.02 * i, 2), target)])
            for i in range(1, 25)
        ]
        monotone &= all(a <= b for a, b in zip(values, values[1:]))
    sentinel_ok = all(
        cells[(q, target)] == "inf" for q in (0.5, 0.55, 0.6) for target in targets
    )
    consistent = True
    for (q, target), min_z in cells.items():
        if min_z == "inf":
            continue
        z = int(min_z)
        consistent &= attack_success_naive(q, z, "corrected") <= target
        if z > 0:
            consistent &= attack_success_naive(q, z - 1, "corrected") > target
    report(
        8,
        monotone and sentinel_ok and consistent,
        f"monotone per target: {monotone}; unbounded sentinel at q >= 0.5: "
        f"{sentinel_ok}; P(z-1) > target >= P(z) at every finite cell: {consistent}",
    )


def test_criterion_09_determinism(tmp_path, monkeypatch):
    sim_args = ["simulate", "--q", "0.3", "--z", "4", "--trials", "10000",
                "--seed", "13", "--histogram"]
    val_args = ["validate", "--q-values", "0.2,0.35", "--z-values", "1,4",
                "--trials", "10000", "--seed", "13"]
    outputs = []
    for tag, args in (("sim", sim_args), ("val", val_args)):
        paths = [tmp_path / f"{tag}{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        outputs.append(paths[0].read_bytes() == paths[1].read_bytes())
    config = TrialConfig(MiningPowerSplit(0.3), 4)
    whole = run_trials(config, 10_000, 13)
    monkeypatch.setattr(simulate_module, "_BATCH_WALKS", 997)
    chunked = run_trials(config, 10_000, 13)
    schedule_ok = whole == chunked
    report(
        9,
        all(outputs) and schedule_ok,
        f"byte-identical reruns: simulate={outputs[0]}, validate={outputs[1]}; "
        f"batch-width independence: {schedule_ok}",
    )


def test_criterion_10_correction_ordering():
    worst = 0.0
    for q in [0.05 * i for i in range(1, 10)] + [0.49]:
        power = MiningPowerSplit(q)
        for z in range(31):
            corrected = attack_success(AttackQuery(power, z, Variant.CORRECTED))
            original = attack_success(AttackQuery(power, z, Variant.ORIGINAL))
            worst = max(worst, corrected - original)
    report(
        10,
        worst <= 0.0,
        f"corrected <= original everywhere (max corrected-original = {worst:.2e})",
    )
