import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys
import textwrap

import doublespend

SRC = pathlib.Path(__file__).parent.parent / "src"

# Every public function and dataclass with its parameter names, so that an
# added, removed or renamed option shows up as a diff here.  Other exports
# (an exception, an enum) are pinned by name only.
PUBLIC_API = {
    "AttackQuery": ("power", "z", "variant", "budget_surplus"),
    "AttributionReport": (
        "q", "z", "budget_surplus", "trials", "master_seed", "model_prob", "sim_prob",
        "sim_std_err", "catch_up", "mean_k", "k_pmf", "total_variation", "hybrid",
    ),
    "ComparisonRow": ("component", "label", "observed", "expected", "std_err"),
    "MiningPowerSplit": ("q",),
    "ProbabilityRangeError": None,
    "RuinGameSpec": ("initial_fortune", "target", "win_prob"),
    "SimulationResult": (
        "config", "trials", "wins", "k_histogram", "master_seed", "capped_count",
    ),
    "Summand": ("k", "pmf", "catch_up"),
    "SweepGrid": (
        "q_values", "z_values", "variant", "budget_surplus", "trials", "master_seed",
    ),
    "TrialConfig": ("power", "z", "budget_surplus"),
    "ValidationRow": (
        "q", "z", "model_prob", "sim_prob", "sim_std_err", "abs_error", "rel_error",
        "trials",
    ),
    "Variant": None,
    "attack_success": ("query",),
    "attack_summands": ("query",),
    "catch_up_limited": ("z", "budget", "power"),
    "catch_up_unlimited": ("z", "power"),
    "component_attribution": ("power", "z", "budget_surplus", "trials", "master_seed"),
    "derive_seed": ("master_seed", "indices"),
    "empirical_catch_up": ("power", "cells", "trials"),
    "empirical_k_distribution": ("power", "z", "trials", "master_seed"),
    "min_confirmations": ("power", "target", "variant", "budget_surplus"),
    "poisson_pmf": ("k", "rate"),
    "poisson_rate": ("z", "power"),
    "ruin_win_probability": ("game",),
    "run_attribution": ("grid",),
    "run_trials": ("config", "trials", "master_seed"),
    "run_validation": ("grid",),
}


# Every public record's properties, pinned the same way.
PUBLIC_PROPERTIES = {
    "ComparisonRow": ("z_score",),
    "MiningPowerSplit": ("p",),
    "SimulationResult": ("mean_k", "std_err", "success_rate"),
    "Summand": ("product",),
}


def parameter_names(obj):
    if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
        return tuple(inspect.signature(obj).parameters)
    return None


def test_public_api_surface_is_pinned():
    observed = {
        name: parameter_names(getattr(doublespend, name)) for name in doublespend.__all__
    }
    assert observed == PUBLIC_API


def test_public_record_properties_are_pinned():
    records = [getattr(doublespend, name) for name in doublespend.__all__]
    observed = {
        record.__name__: tuple(
            name for name, _ in inspect.getmembers(record, lambda v: isinstance(v, property))
        )
        for record in records
        if dataclasses.is_dataclass(record)
    }
    assert {name: props for name, props in observed.items() if props} == PUBLIC_PROPERTIES



def fresh_interpreter(code: str) -> None:
    """Run code in a new interpreter, which starts with nothing imported."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr


def test_prob_and_min_z_never_import_numpy():
    fresh_interpreter("""
        import sys
        from doublespend.cli import main
        assert main(["prob", "--q", "0.3", "--z", "6"]) == 0
        assert main(["min-z", "--q", "0.1,0.3", "--target", "0.01,0.5"]) == 0
        assert "numpy" not in sys.modules
    """)


def test_star_import_binds_every_exported_name():
    fresh_interpreter("""
        from doublespend import *
        import doublespend
        from doublespend import model, rng, simulate, validate
        exports = {
            name: getattr(module, name)
            for module in (model, simulate, validate)
            for name in module.__all__
        }
        exports["derive_seed"] = rng.derive_seed
        assert doublespend.__all__ == list(exports)
        assert all(globals()[name] is value for name, value in exports.items())
    """)


def test_submodules_resolve_after_a_bare_import():
    fresh_interpreter("""
        import doublespend
        assert doublespend.simulate.__name__ == "doublespend.simulate"
        assert doublespend.run_validation is doublespend.validate.run_validation
        assert not hasattr(doublespend, "no_such_name")
    """)
