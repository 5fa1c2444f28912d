"""Build the stored network pool of the ``wdp-milp-n2m12`` workload.

Run once from the repository root (``python3 bench/make_pool.py``); the
output, ``bench/data/milp_pool.json``, is committed.  Storing the trained
networks keeps the workload's inputs independent of the training code of
the commit under test.  Each pool entry is one bidder's learned upper
bound, trained as the mechanism trains it (10-10 net, 60 epochs) on 9-18
reports of a single-bidder valuation; its reported bundles are stored too,
because a query WDP excludes them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from iterauction import GeneratorConfig, InitHyper, NomuHyper, TrainHyper  # noqa: E402
from iterauction import build_exact_uub, generate_instance, train_mean, train_uub  # noqa: E402
from iterauction.mechanism import initial_queries  # noqa: E402

M = 12
POOL = 12
KINDS = ("additive", "pairwise-synergy", "coverage")


def learned_bound(kind: str, m: int, report_count: int, seed: int, rng):
    """One bidder's learned upper bound, trained as the mechanism trains it,
    on ``report_count`` reports of a single-bidder valuation; returns the
    network and its reported bundles."""
    vm = generate_instance(GeneratorConfig(n=1, m=m, bidder_kinds=(kind,)), seed=seed).values[0]
    bundles = initial_queries(m, report_count, rng)
    reports = [(b, vm.value(b)) for b in bundles]
    dims, hyper = [m, 10, 10, 1], TrainHyper(epochs=60)
    mean = train_mean(reports, dims, InitHyper(), hyper, seed=seed)
    upper = train_uub(reports, mean, build_exact_uub(reports), NomuHyper(), hyper, InitHyper(), dims, seed=seed)
    return upper, bundles


def main():
    nets, reported = [], []
    for p in range(POOL):
        rng = np.random.default_rng([7, p])
        upper, bundles = learned_bound(KINDS[p % len(KINDS)], M, int(rng.integers(9, 19)), p, rng)
        nets.append(upper.to_json_obj())
        reported.append([b.tolist() for b in bundles])
    out = ROOT / "bench" / "data" / "milp_pool.json"
    out.write_text(json.dumps({"m": M, "kinds": KINDS, "nets": nets, "reported_bundles": reported}) + "\n")
    print(f"wrote {POOL} networks to {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
