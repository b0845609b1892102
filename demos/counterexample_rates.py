"""Why the placement of the proximal step matters.

Two agents share isotropic quadratic costs but hold *different*
nonsmooth regularizers: an anchored absolute value plus two interleaved
pairwise-difference chains over an M-dimensional variable.  Methods that
apply each agent's prox separately (PGEXTRA, DLADMM) lose their linear
rate on this problem -- the error decays only sublinearly -- while a
single-prox method applied to the averaged regularizer stays linear.

Run:  python3 demos/counterexample_rates.py   (a few seconds)

It runs the ``decprox counterexample`` preset at M = 2000 as two configs
through ``decprox.cli``: 20,000 iterations for the separate-prox methods,
whose stall shows within a few thousand, and 2,500 for ProxED.  The
script exits 1, naming the run, when a verdict contradicts the conclusion
it prints.
"""

import sys
import tempfile

from decprox import cli

M = 2000
PRESET = cli.COUNTEREXAMPLE_PRESET
# Each config: which prox its algorithms apply, their names, its iterations.
RUNS = [("separate", ("PGEXTRA", "DLADMM"), 20000),
        ("averaged", ("ProxED",), 2500)]
# The paper's claim: the separate-prox runs are sublinear, ProxED linear.
EXPECTED = {"PGEXTRA": "sublinear", "DLADMM": "sublinear", "ProxED": "linear"}

print(f"dimension M = {M}, step mu = {PRESET['algorithms'][0]['mu']}\n")
print(f"{'algorithm':>10s} {'prox':>9s} {'iters':>6s} {'final error':>12s} "
      f"{'tail ratio':>10s}  verdict")
disagree = []
with tempfile.TemporaryDirectory() as out:
    for kind, names, iters in RUNS:
        cfg = cli.config_from_dict({
            **PRESET, "M": M, "iters": iters, "output_dir": out,
            "algorithms": [a for a in PRESET["algorithms"]
                           if a["name"] in names]})
        for row in cli.run_experiment(cfg)[0]:
            name, verdict = row["algorithm"], row["verdict"]
            tail = float(row["empirical_ratio"] or "nan")
            print(f"{name:>10s} {kind:>9s} {iters:6d} "
                  f"{row['final_error']:12.3e} {tail:10.6f}  {verdict}")
            if verdict != EXPECTED[name]:
                disagree.append(f"{name} is {verdict}, not {EXPECTED[name]}")

if disagree:
    sys.exit("\nThese runs contradict the claim: " + "; ".join(disagree))
print("\nThe separate-prox runs stall at a polynomial rate (tail ratio")
print("pinned near 1), while the averaged-prox run contracts geometrically.")
