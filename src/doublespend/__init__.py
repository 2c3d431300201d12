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

Only the model loads with the package.  The simulator and validation need
numpy, so they, :mod:`doublespend.rng` and every name they export load on
first use, and the model's subcommands never import numpy.
"""

import importlib

from . import model
from .model import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    """simulate, validate, rng and the names they export, loaded on first use."""
    rng, simulate, validate = (
        importlib.import_module(f"{__name__}.{module}")
        for module in ("rng", "simulate", "validate")
    )
    exports = {
        export: getattr(module, export)
        for module in (simulate, validate)
        for export in module.__all__
    }
    exports["derive_seed"] = rng.derive_seed
    exports["__all__"] = [*model.__all__, *exports]
    globals().update(exports)
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
