"""The benchmark's workloads.

Each workload drives the library through its public functions, one
operation (op) at a time, and knows how to check every op's output.  Every
input is derived from the workload seed, so one seed always gives the same
inputs.  The library is always called through module attributes
(``mechanism.run_mlca``, ``wdp.milp_wdp``, ...), which is where the tracer
installs its wrappers.

A workload provides:

* ``setup(seed)`` -- the timed set-up (instance and valuation generation,
  fixture loads); returns the state the other methods read,
* ``precheck(state)`` -- untimed solver cross-checks run once before the
  ops, one bool per case,
* ``make_input(state, k)`` -- the inputs of op ``k`` (untimed),
* ``op(inp)`` -- the timed operation,
* ``check(inp, out)`` -- ``(ok, quality)`` for one op (untimed),
* ``quality_ops`` -- an untimed run goes on past its time limit until it
  has done at least this many ops, and its quality figures cover exactly
  its first ``quality_ops`` ops; so they depend only on the code and the
  seed, never on how fast the host is,
* ``summarize(qualities)`` -- ``(quality_pct, details)`` over those ops,
* ``pass_ops`` -- an untimed run reports the op times of whole passes of
  this many ops only, dropping a partial pass at its end.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from iterauction import mechanism, training, uub, values, wdp
from iterauction.mechanism import MechanismConfig, initial_queries
from iterauction.mvnn import InitHyper, MvnnParams, init_params, random_containment_pair
from iterauction.training import TrainHyper
from iterauction.uub import NomuHyper
from iterauction.values import GeneratorConfig
from iterauction.wdp import SolveBudget

POOL_PATH = Path(__file__).resolve().parent / "data" / "milp_pool.json"
TOL = 1e-9


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _random_bundles(rng, count: int, m: int) -> np.ndarray:
    return (rng.random((count, m)) < 0.5).astype(np.float64)


class MlcaN3M8:
    """One op is one full ``run_mlca`` auction (acquisition ``uub``).

    The auctions form a fixed suite: 24 (instance, mechanism seed) pairs
    drawn from ``suite_seed``.  The workload seed sets the order in which a
    run walks the suite.  A run holds only about 50 auctions, and their
    cost varies by a factor of 2-7 with the mechanism seed alone, so
    drawing fresh auctions per run moved the median more than any bound
    could allow; walking one suite keeps each run's mix the same.  The
    quality figures cover the first pass, which holds every auction of the
    suite once, whatever the seed, and the op times cover whole passes."""

    name = "mlca-n3m8"
    trace_ops = 12
    suite_size = quality_ops = pass_ops = 24
    suite_seed = 2208
    generator = GeneratorConfig(n=3, m=8)
    config = MechanismConfig(
        q_init=6, q_round=3, q_max=9, acquisition="uub",
        train_hyper=TrainHyper(epochs=60), budget=SolveBudget(relative_gap=0.0),
        early_stop=False,
    )

    def setup(self, seed):
        suite = [
            (values.generate_instance(self.generator, seed=int(_rng(self.suite_seed, 1, k).integers(2**31))),
             int(_rng(self.suite_seed, 2, k).integers(2**31)))
            for k in range(self.suite_size)
        ]
        return {"auctions": [suite[i] for i in _rng(seed, 1).permutation(self.suite_size)]}

    def precheck(self, state):
        return []

    def make_input(self, state, k):
        return state["auctions"][k % self.suite_size]

    def op(self, inp):
        inst, mech_seed = inp
        return mechanism.run_mlca(inst, self.config, seed=mech_seed)

    def check(self, inp, out):
        inst, _ = inp
        alloc, reports, pay = np.asarray(out.allocation), out.reports, np.asarray(out.payments)
        ok = alloc.shape == (inst.n, inst.m) and bool(np.isin(alloc, (0, 1)).all())
        ok = ok and bool((alloc.sum(axis=0) <= 1).all()) and pay.shape == (inst.n,)
        for i in range(inst.n if ok else 0):
            ok = ok and reports.count(i) == self.config.q_max
            v = 0.0 if alloc[i].sum() == 0 else reports.value_of(i, alloc[i])
            ok = ok and v is not None and -TOL <= pay[i] <= v + TOL
        ok = ok and out.efficiency_loss is not None and 0.0 <= out.efficiency_loss <= 1.0
        return ok, {"efficiency_loss": out.efficiency_loss if ok else None}

    def summarize(self, qualities):
        losses = [q["efficiency_loss"] for q in qualities]
        loss = math.fsum(losses) / len(losses)  # exactly rounded, so the walk order does not matter
        return 100.0 * (1.0 - loss), {"efficiency_loss_pct": 100.0 * loss}


class WdpMilpN2M12:
    """One op is one ``milp_wdp`` query WDP over two stored learned-bound
    networks: the queried bidder's reported bundles, the empty bundle and
    0-2 pending queries are excluded, as ``next_query`` does.  The query WDP
    of a two-bidder economy is the marginal-economy query of a three-bidder
    auction.

    Every ``crosscheck_every``-th op is also solved by B&B at zero gap
    (untimed): the MILP objective must lie within HiGHS's default relative
    gap of the proven optimum and may not exceed it."""

    name = "wdp-milp-n2m12"
    trace_ops = 150
    quality_ops = 132  # one pass over the pool's ordered pairs
    pass_ops = 1
    crosscheck_every = 20
    mip_rel_gap = 1e-4

    def setup(self, seed):
        pool = json.loads(POOL_PATH.read_text())
        size = len(pool["nets"])
        pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
        return {
            "seed": seed,
            "m": pool["m"],
            "nets": [MvnnParams.from_json_obj(obj) for obj in pool["nets"]],
            "reports": [np.asarray(b, dtype=np.int64) for b in pool["reported_bundles"]],
            "pairs": [pairs[p] for p in _rng(seed, 4).permutation(len(pairs))],
        }

    def precheck(self, state):
        """At n=2, m=6: B&B and MILP agree with brute force, with exclusions."""
        results = []
        for c in range(3):
            rng = _rng(state["seed"], 3, c)
            m = 6
            nets = [init_params([m, 10, 10, 1], InitHyper(), (0.1, 1.0), seed=rng) for _ in range(2)]
            excl = [[np.zeros(m, dtype=np.int64)] + list(_random_bundles(rng, 4, m).astype(np.int64)), None]
            evaluators = [net.forward for net in nets]
            bf = wdp.brute_force_wdp(evaluators, m, exclusions=excl)
            bnb = wdp.solve_wdp(evaluators, m, budget=SolveBudget(relative_gap=0.0), exclusions=excl)
            mip = wdp.milp_wdp(nets, exclusions=excl)
            results.append(
                bnb.status == "optimal"
                and bool((bnb.allocation == bf.allocation).all())
                and abs(bnb.objective - bf.objective) <= 1e-7
                and abs(mip.objective - bf.objective) <= 1e-7
            )
        return results

    def make_input(self, state, k):
        """Op k takes the next ordered pair of a seed-shuffled walk over all
        pairs of the pool, so every run covers the pool evenly."""
        i, j = state["pairs"][k % len(state["pairs"])]
        rng = _rng(state["seed"], 5, k)
        m = state["m"]
        excluded = {tuple(np.zeros(m, dtype=np.int64))} | {tuple(b) for b in state["reports"][i]}
        while len(excluded) < 1 + len(state["reports"][i]) + int(rng.integers(0, 3)):
            excluded.add(tuple(_random_bundles(rng, 1, m)[0].astype(np.int64)))
        bundles = [np.asarray(b, dtype=np.int64) for b in sorted(excluded)]
        return state["nets"][i], state["nets"][j], bundles, k % self.crosscheck_every == 0

    def op(self, inp):
        queried, other, bundles, _ = inp
        return wdp.milp_wdp([queried, other], exclusions=[bundles, None])

    def check(self, inp, out):
        nets, bundles, crosscheck = inp[:2], inp[2], inp[3]
        alloc = np.asarray(out.allocation)
        m = nets[0].m
        ok = alloc.shape == (2, m) and bool(np.isin(alloc, (0, 1)).all())
        ok = ok and bool((alloc.sum(axis=0) <= 1).all())
        ok = ok and tuple(alloc[0]) not in {tuple(b) for b in bundles}
        ok = ok and abs(out.objective - sum(net.forward(alloc[i].astype(np.float64)) for i, net in enumerate(nets))) <= TOL
        if ok and crosscheck:
            best = wdp.solve_wdp([net.forward for net in nets], m, budget=SolveBudget(relative_gap=0.0),
                                 exclusions=[bundles, None])
            ok = (best.status == "optimal" and out.objective <= best.objective + 1e-7
                  and out.objective >= best.objective * (1 - self.mip_rel_gap) - 1e-7)
        relaxed = sum(net.forward(np.ones(m)) for net in nets)
        return ok, {"objective": out.objective, "share": out.objective / relaxed}

    def summarize(self, qualities):
        return (
            100.0 * float(np.mean([q["share"] for q in qualities])),
            {"wdp_welfare_mean": float(np.mean([q["objective"] for q in qualities]))},
        )


class FitM18:
    """One op is one bidder's model triple: ``build_exact_uub``,
    ``train_mean`` and ``train_uub`` (10-10 nets, 60 epochs, m=18)."""

    name = "fit-m18"
    trace_ops = quality_ops = 150
    pass_ops = 1
    m = 18
    kinds = ("additive", "pairwise-synergy", "coverage")
    dims = [18, 10, 10, 1]
    train_hyper = TrainHyper(epochs=60)
    probes = 64

    def setup(self, seed):
        return {
            "seed": seed,
            "valuations": [
                values.generate_instance(
                    GeneratorConfig(n=1, m=self.m, bidder_kinds=(kind,)),
                    seed=int(_rng(seed, 5, i).integers(2**31)),
                ).values[0]
                for i, kind in enumerate(self.kinds)
            ],
        }

    def precheck(self, state):
        return []

    def make_input(self, state, k):
        rng = _rng(state["seed"], 6, k)
        vm = state["valuations"][k % len(self.kinds)]
        bundles = initial_queries(self.m, int(rng.integers(12, 41)), rng)
        reports = [(b, vm.value(b)) for b in bundles]
        holdout = _random_bundles(rng, self.probes, self.m)
        pairs = [random_containment_pair(self.m, rng) for _ in range(100)]
        return {
            "reports": reports,
            "train_seed": int(rng.integers(2**31)),
            "holdout": holdout,
            "holdout_values": vm.value_batch(holdout),
            "probes": _random_bundles(rng, self.probes, self.m),
            "small": np.stack([a for a, _ in pairs]).astype(np.float64),
            "big": np.stack([b for _, b in pairs]).astype(np.float64),
        }

    def op(self, inp):
        reports, s = inp["reports"], inp["train_seed"]
        exact = uub.build_exact_uub(reports)
        mean = training.train_mean(reports, self.dims, InitHyper(), self.train_hyper, seed=s)
        upper = uub.train_uub(
            reports, mean, exact, NomuHyper(), self.train_hyper, InitHyper(), self.dims, seed=s
        )
        return exact, mean, upper

    def check(self, inp, out):
        exact, mean, upper = out
        X = np.stack([b for b, _ in inp["reports"]]).astype(np.float64)
        y = np.array([v for _, v in inp["reports"]])
        ok = bool(np.abs(exact.forward(X) - y).max() <= TOL)
        for net in (mean, upper):
            ok = ok and bool((net.forward(inp["small"]) <= net.forward(inp["big"]) + 1e-12).all())
        P = inp["probes"]
        u, lo, hi = upper.forward(P), mean.forward(P), exact.forward(P)
        return ok, {
            "mae": float(np.abs(mean.forward(inp["holdout"]) - inp["holdout_values"]).mean()),
            "viol": float(((u < lo - TOL) | (u > hi + TOL)).mean()),
        }

    def summarize(self, qualities):
        mae = float(np.mean([q["mae"] for q in qualities]))
        return 100.0 * (1.0 - mae), {
            "fit_holdout_mae": mae,
            "uub_sandwich_viol_pct": 100.0 * float(np.mean([q["viol"] for q in qualities])),
        }


WORKLOADS = {w.name: w for w in (MlcaN3M8, WdpMilpN2M12, FitM18)}
