"""Double-spend attack probabilities: closed-form model, simulator, validation.

The library answers one question from three directions: given an attacker
holding a fraction q of total mining power and a merchant who waits for z
confirmations, how likely is a double-spend to succeed?

* :mod:`doublespend.model` evaluates the closed-form answer (Gambler's Ruin
  catch-up probabilities weighted by a Poisson progress law), in the original
  whitepaper form, the corrected strictly-ahead form, and a finite-budget form.
* :mod:`doublespend.simulate` plays the race out with coin flips, never with
  the formulas, using reproducible counter-based random streams.
* :mod:`doublespend.validate` compares the two and attributes any disagreement
  to individual model components.
* :mod:`doublespend.cli` exposes everything as subcommands emitting CSV/JSON.
"""

from .model import (
    AttackQuery,
    MiningPowerSplit,
    ProbabilityRangeError,
    RuinGameSpec,
    Summand,
    Variant,
    attack_success,
    attack_summands,
    catch_up_limited,
    catch_up_unlimited,
    min_confirmations,
    poisson_pmf,
    poisson_rate,
    ruin_win_probability,
)
from .rng import derive_seed
from .simulate import (
    SimulationResult,
    TrialConfig,
    empirical_catch_up,
    empirical_k_distribution,
    run_trials,
)
from .validate import (
    AttributionReport,
    ComparisonRow,
    SweepGrid,
    ValidationRow,
    component_attribution,
    run_attribution,
    run_validation,
)

__version__ = "0.1.0"

__all__ = [
    "AttackQuery",
    "AttributionReport",
    "ComparisonRow",
    "MiningPowerSplit",
    "ProbabilityRangeError",
    "RuinGameSpec",
    "SimulationResult",
    "Summand",
    "SweepGrid",
    "TrialConfig",
    "ValidationRow",
    "Variant",
    "attack_success",
    "attack_summands",
    "catch_up_limited",
    "catch_up_unlimited",
    "component_attribution",
    "derive_seed",
    "empirical_catch_up",
    "empirical_k_distribution",
    "min_confirmations",
    "poisson_pmf",
    "poisson_rate",
    "ruin_win_probability",
    "run_attribution",
    "run_trials",
    "run_validation",
]
