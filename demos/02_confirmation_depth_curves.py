"""Minimum confirmation depth as a function of attacker power.

For each target risk level, sweep the attacker's share of mining power and
find the smallest confirmation depth that keeps the double-spend success
probability at or below the target.  Past 50% no finite depth helps: the
attacker's chain grows faster than the honest one in expectation.

Equivalent CLI invocation:

    doublespend min-z --target 0.001,0.01,0.1,0.5 \
        --q 0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2,0.22,0.24,0.26,0.28,0.3,0.32,0.34,0.36,0.38,0.4,0.42,0.44,0.46,0.48,0.5,0.55
"""

from doublespend import MiningPowerSplit, min_confirmations

targets = (0.001, 0.01, 0.1, 0.5)
q_values = [round(0.02 * i, 2) for i in range(1, 25)] + [0.5, 0.55]

header = f"{'q':>5} " + " ".join(f"{f'P<={t}':>9}" for t in targets)
print(header)
print("-" * len(header))
for q in q_values:
    power = MiningPowerSplit(q)
    cells = []
    for target in targets:
        depth = min_confirmations(power, target)
        cells.append("unbounded" if depth is None else str(depth))
    print(f"{q:>5} " + " ".join(f"{c:>9}" for c in cells))

print()
print("each column is non-decreasing: more attacker power always demands "
      "deeper confirmation, and the requirement explodes near q = 0.5")
