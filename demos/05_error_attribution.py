"""Which model component causes the model-vs-simulation gap?

The model multiplies three ingredients: the catch-up probabilities, the
progress rate lambda = z*q/p, and a Poisson density for the attacker's
progress k during the wait.  This script tests each one against the
simulator separately, then re-weights the model by the *empirical* k
distribution.  The catch-up and rate components match perfectly; the Poisson
density does not - under per-block coin flips the true law of k is negative
binomial, which is overdispersed relative to Poisson.  The re-weighted
(hybrid) model lands within noise of the simulation, closing the case.

Equivalent CLI invocation:

    doublespend validate --q-values 0.25 --z-values 3 --trials 200000 \
        --seed 314 --attribution
"""

from doublespend import SweepGrid, run_attribution

(report,) = run_attribution(
    SweepGrid((0.25,), (3,), budget_surplus=35, trials=200_000, master_seed=314)
)

print(f"attribution at q = {report.q}, z = {report.z}, "
      f"{report.trials} trials per component")
print()
print(f"{'component':>12} {'comparison':>22} {'observed':>10} {'expected':>10} "
      f"{'z-score':>8}")
print("-" * 68)
for row in report.rows():
    print(
        f"{row.component:>12} {row.label:>22} {row.observed:>10.6f} "
        f"{row.expected:>10.6f} {row.z_score:>8.2f}"
    )

print()
print(f"plain model:  {report.model_prob:.6f}")
print(f"simulation:   {report.sim_prob:.6f} +- {report.sim_std_err:.6f}")
print(f"hybrid model: {report.hybrid.observed:.6f} "
      "(model re-weighted by the empirical k distribution)")
print()
print("reading the z-scores: catch-up and mean-k sit within +-3 (perfect "
      "match), the k-distribution's total-variation distance from the "
      "Poisson density is dozens of standard errors from zero (the error "
      "source), and the hybrid agrees with the simulation (the proof)")
