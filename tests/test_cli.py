import argparse
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import doublespend.cli as cli_module
import doublespend.model as model_module
import doublespend.simulate as simulate_module
import doublespend.validate as validate_module
from doublespend.cli import (
    MAX_Q_RANGE_VALUES,
    MAX_SURPLUS,
    MAX_TRIALS,
    MAX_Z,
    _parse_q_range,
    main,
)
from doublespend import (
    AttackQuery, MiningPowerSplit, SweepGrid, Variant, attack_success, run_attribution,
    run_validation,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_module(*argv, timeout=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "doublespend", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def parse_csv(text):
    blocks = []
    for chunk in text.strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        blocks.append(rows)
    return blocks


class TestProb:
    def test_corrected_zero_depth(self, capsys):
        code, out, _ = run_cli("prob", "--q", "0.3", "--z", "0", capsys=capsys)
        assert code == 0
        (rows,) = parse_csv(out)
        assert rows[0]["variant"] == "corrected"
        assert float(rows[0]["probability"]) == pytest.approx(3 / 7, abs=1e-12)

    def test_summands_show_the_worked_example(self, capsys):
        code, out, _ = run_cli(
            "prob", "--q", "0.25", "--z", "3", "--variant", "original",
            "--summands", capsys=capsys,
        )
        assert code == 0
        summary, summands = parse_csv(out)
        k2 = next(r for r in summands if r["k"] == "2")
        assert float(k2["product"]) == pytest.approx(0.061313, abs=5e-7)
        assert float(k2["pmf"]) == pytest.approx(0.183940, abs=5e-7)

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            "prob", "--q", "0.25", "--z", "3", "--variant", "original",
            "--summands", "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variant"] == "original"
        assert len(payload["summands"]) == 4
        expected = attack_success(
            AttackQuery(MiningPowerSplit(0.25), 3, Variant.ORIGINAL)
        )
        assert payload["probability"] == expected

    def test_invalid_power_exits_2(self, capsys):
        code, out, err = run_cli("prob", "--q", "1.5", "--z", "3", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "q must be in (0, 1)" in err

    def test_negative_depth_exits_2(self, capsys):
        code, _, err = run_cli("prob", "--q", "0.3", "--z", "-1", capsys=capsys)
        assert code == 2
        assert "z must be >= 0" in err

    def test_unknown_variant_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["prob", "--q", "0.3", "--z", "1", "--variant", "bogus"])
        assert excinfo.value.code == 2

    def test_depth_at_the_limit_is_accepted(self, capsys):
        code, out, _ = run_cli("prob", "--q", "0.3", "--z", str(MAX_Z), capsys=capsys)
        assert code == 0
        (rows,) = parse_csv(out)
        assert float(rows[0]["probability"]) == 0.0


class TestMinZ:
    def test_majority_attacker_prints_inf(self, capsys):
        code, out, _ = run_cli(
            "min-z", "--q", "0.6", "--target", "0.01", capsys=capsys
        )
        assert code == 0
        (rows,) = parse_csv(out)
        assert rows[0]["min_z"] == "inf"

    def test_json_uses_null_for_unbounded(self, capsys):
        code, out, _ = run_cli(
            "min-z", "--q", "0.6", "--target", "0.01", "--format", "json",
            capsys=capsys,
        )
        payload = json.loads(out)
        assert payload["rows"][0]["min_z"] is None

    def test_weak_attacker_loose_target(self, capsys):
        code, out, _ = run_cli(
            "min-z", "--q", "0.01", "--target", "0.5", capsys=capsys
        )
        (rows,) = parse_csv(out)
        assert rows[0]["min_z"] == "0"

    def test_sweep_is_monotone_per_target(self, capsys):
        code, out, _ = run_cli(
            "min-z", "--q-range", "0.04:0.44:0.04", capsys=capsys
        )
        assert code == 0
        (rows,) = parse_csv(out)
        per_target = {}
        for row in rows:
            per_target.setdefault(row["target"], []).append(row["min_z"])
        assert set(per_target) == {"0.001", "0.01", "0.1", "0.5"}
        for target, values in per_target.items():
            numeric = [float("inf") if v == "inf" else int(v) for v in values]
            assert numeric == sorted(numeric), target

    def test_requires_exactly_one_q_flag(self, capsys):
        code, _, err = run_cli("min-z", capsys=capsys)
        assert code == 2
        code, _, err = run_cli(
            "min-z", "--q", "0.1", "--q-range", "0.1:0.2:0.1", capsys=capsys
        )
        assert code == 2

    def test_rejects_bad_target(self, capsys):
        code, _, err = run_cli("min-z", "--q", "0.1", "--target", "2", capsys=capsys)
        assert code == 2
        assert "target must be in (0, 1)" in err

    @pytest.mark.parametrize(
        "q_range", ["0.1:inf:0.1", "-inf:0.2:0.1", "0.1:0.2:nan", "nan:0.2:0.1"]
    )
    def test_rejects_non_finite_q_range(self, capsys, q_range):
        code, out, err = run_cli("min-z", f"--q-range={q_range}", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize(
        "q_range", ["0.1:0.2:1e-300", "0:0.5:1e-12", "0:1e308:1e-300", "0.1:0.2:1e-6"]
    )
    def test_rejects_q_range_with_too_many_values(self, capsys, q_range):
        code, out, err = run_cli(
            "min-z", "--q-range", q_range, "--target", "0.5", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert "over 100000 values" in err

    def test_q_range_at_the_value_limit_is_accepted(self):
        values = _parse_q_range("0.1:0.199999:1e-6")
        assert len(values) == MAX_Q_RANGE_VALUES
        assert values[0] == 0.1 and values[-1] == 0.199999


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--q", "0.3", "--z", "2", "--trials", "20000",
                "--seed", "7", "--histogram"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    def test_summary_reports_progress_rate(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--q", "0.25", "--z", "3", "--trials", "100000",
            "--seed", "7", capsys=capsys,
        )
        assert code == 0
        (rows,) = parse_csv(out)
        row = rows[0]
        assert row["capped"] == "0"
        assert float(row["mean_k"]) == pytest.approx(1.0, abs=0.02)
        wins = int(row["wins"])
        assert wins > 0 and abs(float(row["success_rate"]) - wins / 100_000) < 1e-12

    def test_rejects_nonpositive_trials(self, capsys):
        code, _, err = run_cli(
            "simulate", "--q", "0.2", "--z", "1", "--trials", "0", capsys=capsys
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_trials_at_the_limit_are_accepted(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli_module, "MAX_TRIALS", 40)
        argv = ["--q", "0.2", "--z", "1"] if command == "simulate" else []
        code, out, _ = run_cli(command, *argv, "--trials", "40", capsys=capsys)
        assert code == 0
        assert parse_csv(out)[0][0]["trials"] == "40"
        code, out, err = run_cli(command, *argv, "--trials", "41", capsys=capsys)
        assert code == 2
        assert out == ""
        assert "--trials must be <= 40, got 41" in err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 7)])
    def test_rejects_seed_outside_64_bits(self, capsys, command, seed):
        argv = ["--q", "0.2", "--z", "1"] if command == "simulate" else []
        code, out, err = run_cli(
            command, *argv, "--trials", "10", f"--seed={seed}", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert f"master_seed must be in [0, 2**64), got {seed}" in err

    def test_largest_seed_is_accepted(self, capsys):
        code, out, _ = run_cli(
            "simulate", "--q", "0.2", "--z", "1", "--trials", "10",
            f"--seed={2**64 - 1}", capsys=capsys,
        )
        assert code == 0
        (rows,) = parse_csv(out)
        assert rows[0]["seed"] == str(2**64 - 1)


class TestValidate:
    def test_model_column_matches_library(self, capsys):
        code, out, _ = run_cli(
            "validate", "--q-values", "0.2,0.3", "--z-values", "1,3",
            "--trials", "5000", "--seed", "3", capsys=capsys,
        )
        assert code == 0
        (rows,) = parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            expected = attack_success(
                AttackQuery(MiningPowerSplit(float(row["q"])), int(row["z"]),
                            Variant.BUDGETED)
            )
            assert float(row["model_prob"]) == expected

    def test_byte_identical_reruns(self, tmp_path):
        args = ["validate", "--q-values", "0.25", "--z-values", "1,2",
                "--trials", "10000", "--seed", "5"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_attribution_flags_the_poisson_density(self, capsys):
        code, out, _ = run_cli(
            "validate", "--q-values", "0.25", "--z-values", "3",
            "--trials", "100000", "--seed", "9", "--attribution", capsys=capsys,
        )
        assert code == 0
        rows_block, attribution = parse_csv(out)
        scores = {}
        for row in attribution:
            scores.setdefault(row["component"], []).append(
                (row["label"], abs(float(row["z_score"])))
            )
        assert all(score <= 3.0 for _, score in scores["catch_up"])
        assert all(score <= 3.0 for _, score in scores["mean_k"])
        assert all(score <= 3.0 for _, score in scores["hybrid"])
        tvd = dict(scores["k_pmf"])["total_variation"]
        assert tvd > 5.0

    def test_attribution_json_shape(self, capsys):
        code, out, _ = run_cli(
            "validate", "--q-values", "0.3", "--z-values", "2",
            "--trials", "20000", "--seed", "4", "--attribution",
            "--format", "json", capsys=capsys,
        )
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        (report,) = payload["attribution"]
        assert {c["component"] for c in report["comparisons"]} == {
            "catch_up", "mean_k", "k_pmf", "hybrid",
        }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_attribution_equals_run_validation_plus_run_attribution(self, fmt, capsys):
        # z = 0 cells (a row, no report) beside z >= 1, q on both sides of 1/2.
        grid = SweepGrid((0.3, 0.6), (0, 1, 4), budget_surplus=12, trials=400,
                         master_seed=23)
        code, out, _ = run_cli(
            "validate", "--attribution", "--q-values", "0.3,0.6", "--z-values", "0,1,4",
            "--surplus", "12", "--trials", "400", "--seed", "23", "--format", fmt,
            capsys=capsys,
        )
        assert code == 0
        rows = [dataclasses.asdict(row) for row in run_validation(grid)]
        reports = [
            {
                "q": report.q, "z": report.z, "model_prob": report.model_prob,
                "sim_prob": report.sim_prob, "sim_std_err": report.sim_std_err,
                "comparisons": [
                    {**dataclasses.asdict(row), "z_score": row.z_score}
                    for row in report.rows()
                ],
            }
            for report in run_attribution(grid)
        ]
        assert [(r["q"], r["z"]) for r in reports] == [(0.3, 1), (0.3, 4), (0.6, 1), (0.6, 4)]
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["rows"], payload["attribution"]) == (rows, reports)
            return

        def table(columns, records):
            # Labels hold an unquoted comma, so compare text, not parsed cells.
            lines = [",".join(columns)]
            for record in records:
                values = (record[c] for c in columns)
                lines.append(",".join(
                    "" if v is None else repr(v) if isinstance(v, float) else str(v)
                    for v in values
                ))
            return "\n".join(lines) + "\n"

        head = {"variant": "budgeted", "budget_surplus": 12, "trials": 400, "seed": 23}
        flat = [
            {"q": r["q"], "z": r["z"], **c} for r in reports for c in r["comparisons"]
        ]
        assert out == "\n".join([
            table(
                ("q", "z", *head, "model_prob", "sim_prob", "sim_std_err", "abs_error",
                 "rel_error"),
                [{**head, **row} for row in rows],
            ),
            table(
                ("q", "z", "component", "label", "observed", "expected", "std_err",
                 "z_score"),
                flat,
            ),
        ])

    def test_surplus_at_the_limit_is_accepted(self, capsys):
        code, out, _ = run_cli(
            "validate", "--q-values", "0.01", "--z-values", "1", "--trials", "10",
            "--surplus", str(MAX_SURPLUS), capsys=capsys,
        )
        assert code == 0
        (rows,) = parse_csv(out)
        assert rows[0]["budget_surplus"] == str(MAX_SURPLUS)

    def test_rejects_bad_grid(self, capsys):
        code, out, err = run_cli(
            "validate", "--q-values", "0.3,0.2", "--trials", "10", capsys=capsys
        )
        assert (code, out) == (2, "")
        assert "q_values must be ascending and duplicate-free" in err


class TestGoldenOutputs:
    """Machine output is frozen: column order and byte-level formatting."""

    @pytest.mark.parametrize(
        ("name", "argv"),
        [
            (
                "prob_summands.csv",
                ["prob", "--q", "0.25", "--z", "3", "--variant", "original",
                 "--summands"],
            ),
            (
                "prob.json",
                ["prob", "--q", "0.3", "--z", "2", "--format", "json"],
            ),
            (
                "min_z.csv",
                ["min-z", "--q", "0.1,0.3,0.6", "--target", "0.01,0.1"],
            ),
            (
                "simulate.csv",
                ["simulate", "--q", "0.3", "--z", "2", "--trials", "5000",
                 "--seed", "11", "--histogram"],
            ),
            (
                "validate.csv",
                ["validate", "--q-values", "0.2,0.3", "--z-values", "1,3",
                 "--trials", "5000", "--seed", "3"],
            ),
            (
                "prob_summands.json",
                ["prob", "--q", "0.25", "--z", "3", "--variant", "original",
                 "--summands", "--format", "json"],
            ),
            # The budgeted sum, otherwise pinned only through validate; the
            # summands' deficits run to 71, past the direct-power limit.
            (
                "min_z_budgeted.csv",
                ["min-z", "--q", "0.1,0.3,0.45", "--target",
                 "0.001,0.01,0.1,0.5", "--variant", "budgeted"],
            ),
            (
                "prob_budgeted_summands.csv",
                ["prob", "--q", "0.45", "--z", "70", "--variant", "budgeted",
                 "--summands"],
            ),
            (
                "min_z.json",
                ["min-z", "--q", "0.1,0.3,0.6", "--target", "0.01,0.1",
                 "--format", "json"],
            ),
            (
                "simulate.json",
                ["simulate", "--q", "0.3", "--z", "2", "--trials", "5000",
                 "--seed", "11", "--histogram", "--format", "json"],
            ),
            # z=0 cells get no attribution; q=0.01 z=2 has an empty rel_error.
            (
                "validate_attribution.csv",
                ["validate", "--q-values", "0.01,0.3", "--z-values", "0,2",
                 "--trials", "300", "--seed", "8", "--attribution"],
            ),
            (
                "validate_attribution.json",
                ["validate", "--q-values", "0.01,0.3", "--z-values", "0,2",
                 "--trials", "300", "--seed", "8", "--attribution",
                 "--format", "json"],
            ),
        ],
    )
    def test_golden(self, name, argv, tmp_path):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--q", "0.3", "--z", str(10**20)],
        ["prob", "--q", "0.3", "--z", str(MAX_Z + 1)],
        ["validate", "--q-values", "0.3", "--z-values", f"1,{10**6}", "--trials", "10"],
    ],
)
def test_depth_past_the_model_limit_exits_2_quickly(argv):
    # The model's cost is O(z), so without the limit these never return.
    proc = run_module(*argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"z must be <= {MAX_Z}" in proc.stderr


@pytest.mark.parametrize("surplus", [str(10**20), str(MAX_SURPLUS + 1)])
def test_validate_surplus_past_the_limit_exits_2_quickly(surplus):
    # A chase walk that drifts away runs until it falls `surplus` behind or
    # reaches the million-flip cap, so a huge surplus took tens of seconds.
    proc = run_module(
        "validate", "--q-values", "0.3", "--z-values", "2", "--trials", "100",
        "--surplus", surplus, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--surplus must be <= {MAX_SURPLUS}" in proc.stderr


@pytest.mark.parametrize("trials", [str(10**20), str(2**64 - 1), str(MAX_TRIALS + 1)])
@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_trials_past_the_limit_exit_2_quickly(command, trials):
    # Run time is linear in --trials, so these ran until killed.
    argv = ["--q", "0.3", "--z", "2"] if command == "simulate" else []
    proc = run_module(command, *argv, "--trials", trials, "--seed", "1", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--trials must be <= {MAX_TRIALS}" in proc.stderr


def test_simulate_has_no_flip_cap_flag():
    # Every simulated walk stops at a million flips; no flag can raise that to
    # the 10**18 this argv asks for.
    proc = run_module(
        "simulate", "--q", "1e-9", "--z", str(10**20), "--trials", "1",
        "--max-blocks", str(10**18), timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --max-blocks" in proc.stderr
    assert "--max-blocks" not in run_module("simulate", "--help").stdout


@pytest.mark.parametrize(
    ("q", "target"),
    [
        pytest.param("0.6", "0.5", id="0.5"),
        pytest.param("0.6", "0.1", id="0.1"),
        pytest.param("0.502", "0.5", id="near-fair-0.5"),
        *(pytest.param(q, None, id=f"near-fair-{q}-defaults")
          for q in ("0.5", "0.5001", "0.502", "0.505")),
    ],
)
def test_min_z_for_a_majority_attacker_stops_quickly(q, target):
    # The 1/2 floor answers targets below 1/2 at once, the Chernoff stop ends
    # q = 0.6's scan for 0.5 at z = 8, and the 1 - 1/e floor ends a near-fair
    # scan for 0.5 after z = 0 (q = 0.502 took minutes to reach the 10,000 cap).
    argv = ["--target", target] if target else []
    proc = run_module("min-z", "--q", q, "--variant", "budgeted", *argv, timeout=30)
    assert proc.returncode == 0
    targets = [target] if target else ["0.001", "0.01", "0.1", "0.5"]
    assert proc.stdout.splitlines()[1:] == [f"{q},{t},budgeted,35,inf" for t in targets]


@pytest.mark.parametrize(
    ("argv", "last_line"),
    [
        (
            "validate --q-values 0.49 --z-values 2 --trials 100 --surplus 100000",
            "0.49,2,budgeted,100000,100,20090103,0.9512197480004156,0.92,"
            "0.027129319932501065,0.031219748000415604,0.03393450869610391",
        ),
        (
            f"simulate --q 1e-9 --z {10**20} --trials 50 --seed 1",
            f"1e-09,{10**20},35,50,0,0.0,0.0,0.0,50,1",
        ),
        (
            f"simulate --q 0.3 --z 100001 --trials 50 --seed 1 --surplus {10**20}",
            f"0.3,100001,{10**20},50,0,0.0,0.0,42821.44,50,1",
        ),
    ],
    ids=["near-fair-chase", "endless-wait", "drifting-chase"],
)
def test_walks_that_run_to_the_flip_cap_finish_quickly(argv, last_line):
    # Every trial here has walks that run to the million-flip cap, which took
    # 14-23 s when each flip was its own numpy step.
    proc = run_module(*argv.split(), timeout=30)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == last_line


def test_min_z_checks_every_q_before_searching():
    # The search at q=0.499 alone takes minutes; 1.5 must be rejected first.
    proc = run_module("min-z", "--q", "0.499,1.5", "--target", "0.001", timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "q must be in (0, 1), got 1.5" in proc.stderr


def test_module_entry_point_runs():
    proc = run_module("prob", "--q", "0.25", "--z", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("q,z,variant,budget_surplus,probability\n")


# Every flag's dest and default per subcommand, parsed from a minimal argv, so
# that an added, removed or renamed flag shows up as a diff here.
CLI_SURFACE = {
    "prob": (
        ["prob", "--q", "0.3", "--z", "1"],
        {
            "command": "prob", "q": 0.3, "z": 1, "variant": "corrected", "surplus": 35,
            "summands": False, "format": "csv", "out": None, "handler": "_cmd_prob",
        },
    ),
    "min-z": (
        ["min-z"],
        {
            "command": "min-z", "q": None, "q_range": None, "target": None,
            "variant": "corrected", "surplus": 35, "format": "csv", "out": None,
            "handler": "_cmd_min_z",
        },
    ),
    "simulate": (
        ["simulate", "--q", "0.3", "--z", "1"],
        {
            "command": "simulate", "q": 0.3, "z": 1, "surplus": 35, "trials": 100_000,
            "seed": 20090103, "histogram": False, "format": "csv", "out": None,
            "handler": "_cmd_simulate",
        },
    ),
    "validate": (
        ["validate"],
        {
            "command": "validate", "q_values": "0.1,0.2,0.3,0.4",
            "z_values": "1,3,6,12,24", "variant": "budgeted", "surplus": 35,
            "trials": 100_000, "seed": 20090103, "attribution": False, "format": "csv",
            "out": None, "handler": "_cmd_validate",
        },
    ),
}


@pytest.mark.parametrize("command", CLI_SURFACE)
def test_cli_surface_is_pinned(command):
    argv, expected = CLI_SURFACE[command]
    observed = vars(cli_module.build_parser().parse_args(argv))
    observed["handler"] = observed["handler"].__name__
    assert observed == expected


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    argv = ["prob", "--q", "0.3", "--z", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("seed", ["not-a-number", "-5", str(2**64), "7"])
@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--q", "0.3", "--z", "2"],
        ["min-z", "--q", "0.3", "--target", "0.01"],
        ["simulate", "--q", "0.2", "--z", "1", "--trials", "10"],
        ["validate", "--q-values", "0.2", "--z-values", "1", "--trials", "10"],
    ],
    ids=["prob", "min-z", "simulate", "validate"],
)
def test_no_command_reads_the_env_seed(capsys, monkeypatch, argv, seed):
    monkeypatch.delenv("DOUBLESPEND_SEED", raising=False)
    _, expected, _ = run_cli(*argv, capsys=capsys)
    monkeypatch.setenv("DOUBLESPEND_SEED", seed)
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_exits_2(capsys, tmp_path, where):
    out_path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(
        "prob", "--q", "0.3", "--z", "2", "--out", str(out_path), capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out: ")
    assert str(out_path) in err
    assert list(tmp_path.iterdir()) == []


def handler_error(capsys, *argv):
    """The ValueError message argv's handler raises; main exits 2 with it."""
    args = cli_module.build_parser().parse_args(list(argv))
    with pytest.raises(ValueError) as excinfo:
        args.handler(args)
    assert run_cli(*argv, capsys=capsys) == (2, "", f"error: {excinfo.value}\n")
    return str(excinfo.value)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["min-z", "--q", ""], "--q: expected comma-separated numbers, got ''"),
        (["min-z", "--q", ","], "--q: expected comma-separated numbers, got ','"),
        (["min-z", "--q", "0.3", "--target", ""],
         "--target: expected comma-separated numbers, got ''"),
        (["min-z", "--q", "0.3", "--target", ","],
         "--target: expected comma-separated numbers, got ','"),
        (["validate", "--q-values", ",", "--trials", "10"],
         "--q-values: expected comma-separated numbers, got ','"),
    ],
    ids=["q-empty", "q-comma", "target-empty", "target-comma", "q-values-comma"],
)
def test_an_empty_list_flag_exits_2(capsys, argv, message):
    assert handler_error(capsys, *argv) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--z-values", "1,x", "--trials", "10"],
         "--z-values: expected comma-separated integers, got '1,x'"),
        (["min-z", "--q-range", "0.1:0.2"],
         "--q-range: expected START:STOP:STEP, got '0.1:0.2'"),
        (["min-z", "--q-range", "0.2:0.1:0.1"], "--q-range: need step > 0 and stop >= start"),
        (["min-z", "--q-range", "0.1:0.2:0"], "--q-range: need step > 0 and stop >= start"),
        (["prob", "--q", "0.3", "--z", "2", "--variant", "budgeted", "--surplus", "0"],
         "budget_surplus must be >= 1"),
        # The 1/2 floor answers this query, but only after the surplus is checked.
        (["min-z", "--q", "0.6", "--variant", "budgeted", "--surplus", "0",
          "--target", "0.1"],
         "budget_surplus must be >= 1"),
        # Only the budgeted variant reads the surplus, but every variant checks it;
        # with q > p an unbudgeted min-z answers inf at once, after the check.
        (["prob", "--q", "0.3", "--z", "2", "--variant", "corrected", "--surplus", "0"],
         "budget_surplus must be >= 1"),
        (["min-z", "--q", "0.6", "--variant", "original", "--surplus", "-5",
          "--target", "0.1"],
         "budget_surplus must be >= 1"),
    ],
    ids=["malformed-list", "malformed-range", "reversed-range", "zero-step", "surplus-0",
         "min-z-surplus-0", "corrected-surplus-0", "original-min-z-surplus-minus-5"],
)
def test_malformed_flags_exit_2(capsys, argv, message):
    assert handler_error(capsys, *argv) == message


# A value obeying each rule on a CLI input, a value breaking it, and the
# message its owner raises for the breaking one.
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
OUTSIDE_UNIT = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan))
RULES = {
    "q": (UNIT, OUTSIDE_UNIT, lambda q: f"q must be in (0, 1), got {q!r}"),
    "target": (UNIT, OUTSIDE_UNIT, lambda t: f"target must be in (0, 1), got {t!r}"),
    "z": (st.integers(0, MAX_Z), st.integers(max_value=-1),
          lambda z: "confirmation depth z must be >= 0"),
    "surplus": (st.integers(1, MAX_SURPLUS), st.integers(max_value=0),
                lambda s: "budget_surplus must be >= 1"),
    "trials": (st.integers(1, MAX_TRIALS), st.integers(max_value=0),
               lambda n: "trials must be >= 1"),
    "seed": (st.integers(0, 2**64 - 1),
             st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
             lambda s: f"master_seed must be in [0, 2**64), got {s!r}"),
}
# Each subcommand's ruled flags: (flag, rule, whether it takes a list).
RULED_FLAGS = {
    "prob": (("--q", "q", False), ("--z", "z", False), ("--surplus", "surplus", False)),
    "min-z": (("--q", "q", True), ("--target", "target", True),
              ("--surplus", "surplus", False)),
    "simulate": (("--q", "q", False), ("--z", "z", False), ("--surplus", "surplus", False),
                 ("--trials", "trials", False), ("--seed", "seed", False)),
    "validate": (("--q-values", "q", True), ("--z-values", "z", True),
                 ("--surplus", "surplus", False), ("--trials", "trials", False),
                 ("--seed", "seed", False)),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_rule_breaking_argv_exit_2_before_any_work(capsys, monkeypatch, data):
    def refuse(*args, **kwargs):
        raise AssertionError("a rule-breaking argv reached the model or the simulator")

    for module in (cli_module, model_module, validate_module):
        monkeypatch.setattr(module, "attack_success", refuse)
    for module in (simulate_module, validate_module):
        monkeypatch.setattr(module, "_simulate", refuse)
    command = data.draw(st.sampled_from(sorted(RULED_FLAGS)))
    flags = RULED_FLAGS[command]
    broken = data.draw(st.sets(st.sampled_from([flag for flag, _, _ in flags]), min_size=1))
    argv, messages = [command], set()
    for flag, rule, is_list in flags:
        valid, bad, message = RULES[rule]
        if flag not in broken:  # a list ascends without duplicates, as validate's axes must
            values = st.lists(valid, min_size=1, max_size=3 if is_list else 1, unique=True)
            values = sorted(data.draw(values))
        elif is_list:
            bad_values = data.draw(st.lists(bad, min_size=1, max_size=2))
            messages.update(map(message, bad_values))
            values = data.draw(st.lists(valid, max_size=2)) + bad_values
            values = data.draw(st.permutations(values))
        else:
            values = [data.draw(bad)]
            messages.add(message(values[0]))
        argv.append(f"{flag}={','.join(map(repr, values))}")
    if command != "simulate":
        argv.append(f"--variant={data.draw(st.sampled_from([v.value for v in Variant]))}")
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err in {f"error: {message}\n" for message in messages}
