import dataclasses
import inspect

import doublespend

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
    "RuinGameSpec": ("loss_prob",),
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
