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

from . import model, simulate, validate
from .model import *  # noqa: F403
from .rng import derive_seed
from .simulate import *  # noqa: F403
from .validate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *simulate.__all__, *validate.__all__, "derive_seed"]
