"""Re-measure the reference numbers that ROADMAP.md's baseline table quotes.

    python3 bench/reanchor.py --out bench/results/reanchor.json

1. One full four-round auction, ``run_mlca`` with acquisition ``uub``,
   n=3, m=8, q 6/3/18, zero gap, early stop off, instance and mechanism
   seed 3: wall time untraced, then traced for the B&B share of the
   auction and the number of ``MvnnParams.forward`` calls.
2. Exact WDP over three 10-10 networks at m=10, B&B against MILP, on two
   economies each of freshly initialised networks and of learned upper
   bounds.

These are single measurements on fixed seeds, not benchmark workloads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import make_pool  # noqa: E402
from iterauction import mechanism, wdp  # noqa: E402
from iterauction.mechanism import MechanismConfig  # noqa: E402
from iterauction.mvnn import InitHyper, init_params  # noqa: E402
from iterauction.training import TrainHyper  # noqa: E402
from iterauction.values import GeneratorConfig, generate_instance  # noqa: E402
from iterauction.wdp import SolveBudget  # noqa: E402
from tracing import Tracer  # noqa: E402


def full_auction() -> dict:
    inst = generate_instance(GeneratorConfig(n=3, m=8), seed=3)
    config = MechanismConfig(q_init=6, q_round=3, q_max=18, acquisition="uub",
                             train_hyper=TrainHyper(epochs=60),
                             budget=SolveBudget(relative_gap=0.0), early_stop=False)
    t0 = perf_counter()
    untraced = mechanism.run_mlca(inst, config, seed=3)
    wall = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        traced = mechanism.run_mlca(inst, config, seed=3)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    return {
        "auction_wall_s": wall,
        "traced_wall_s": traced_wall,
        "solve_wdp_calls": m["wdp.solve_wdp.calls"],
        "solve_wdp_s": m["wdp.solve_wdp.s"],
        "bnb_share_of_auction": m["wdp.solve_wdp.s"] / traced_wall,
        "fit_share_of_auction": m["mechanism.fit_bidder_models.s"] / traced_wall,
        "forward_calls": m["mvnn.forward.calls"],
        "efficiency_loss": untraced.efficiency_loss,
        "same_outcome_traced": bool((untraced.allocation == traced.allocation).all()),
    }


def learned_bound(m: int, seed: int):
    kind = ("additive", "pairwise-synergy", "coverage")[seed % 3]
    return make_pool.learned_bound(kind, m, 12, seed, np.random.default_rng([11, seed]))[0]


def initialised(m: int, seed: int):
    return init_params([m, 10, 10, 1], InitHyper(), (0.1, 1.0), seed=seed)


def bnb_vs_milp(make_net, m: int = 10, economies: int = 2) -> list[dict]:
    rows = []
    for e in range(economies):
        nets = [make_net(m, 3 * e + i) for i in range(3)]
        t0 = perf_counter()
        bnb = wdp.solve_wdp([net.forward for net in nets], m,
                            budget=SolveBudget(relative_gap=0.0, time_limit_secs=120))
        bnb_s = perf_counter() - t0
        t0 = perf_counter()
        mip = wdp.milp_wdp(nets)
        milp_s = perf_counter() - t0
        rows.append({"economy": e, "bnb_s": bnb_s, "bnb_status": bnb.status, "bnb_nodes": bnb.nodes,
                     "milp_s": milp_s, "bnb_objective": bnb.objective, "milp_objective": mip.objective})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = {
        "full_auction_n3m8_seed3": full_auction(),
        "exact_wdp_n3m10_initialised_nets": bnb_vs_milp(initialised),
        "exact_wdp_n3m10_learned_bounds": bnb_vs_milp(learned_bound),
    }
    text = json.dumps(out, indent=1)
    print(text)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
