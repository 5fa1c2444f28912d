"""Winner determination three ways: brute force, branch and bound, MILP.

The winner-determination problem (WDP) assigns each item to at most one
bidder to maximize the sum of the bidders' network-predicted values.
This script solves the same instance with the exhaustive oracle, the
native branch-and-bound solver, and a mixed-integer encoding of the
networks handed to an LP/MILP solver -- and shows all three agree. It
also writes the encoding as LP-format text for other solvers.
"""

import numpy as np

import iterauction as ia
from iterauction.mvnn import InitHyper
from iterauction.training import TrainHyper
from iterauction.wdp import encode_milp

# --- train one small network per bidder from sampled reports --------------
n, m = 3, 6
inst = ia.generate_instance(ia.GeneratorConfig(n=n, m=m), seed=11)
rng = np.random.default_rng(11)
nets = []
for i in range(n):
    bundles = {tuple(np.ones(m, dtype=int))}
    while len(bundles) < 15:
        bundles.add(tuple(rng.integers(0, 2, m)))
    reports = [(np.array(b), float(inst.values[i].value(np.array(b))))
               for b in sorted(bundles)]
    nets.append(ia.train_mean(reports, [m, 6, 1], InitHyper(),
                              TrainHyper(epochs=60), seed=i))

evaluators = [lambda X, net=net: net.forward(X) for net in nets]

# --- brute force (ground truth at this scale) -----------------------------
brute = ia.brute_force_wdp(evaluators, m)
print(f"brute force:      welfare {brute.objective:.6f}  "
      f"allocation\n{brute.allocation}")

# --- native branch and bound ----------------------------------------------
bnb = ia.solve_wdp(evaluators, m)
print(f"branch and bound: welfare {bnb.objective:.6f}  "
      f"({bnb.nodes} nodes, proven gap {bnb.proven_gap:.1e})")

# --- MILP encoding solved externally --------------------------------------
milp = ia.milp_wdp(nets)
print(f"MILP (pruned):    welfare {milp.objective:.6f}  status {milp.status}")

print(f"max pairwise welfare disagreement: "
      f"{max(abs(brute.objective - bnb.objective), abs(brute.objective - milp.objective)):.2e}")

# --- LP text ---------------------------------------------------------------
model = encode_milp(nets)
text = ia.emit_lp_file(model)
print(f"LP file: {len(text.splitlines())} lines, "
      f"{len(model.var_names)} vars, {len(model.constraints)} constraints")
print(f"emission is deterministic: {ia.emit_lp_file(encode_milp(nets)) == text}")

from collections import Counter
print(f"neurons simplified before encoding: "
      f"{dict(Counter(reason for *_, reason in model.prune_log))}")
