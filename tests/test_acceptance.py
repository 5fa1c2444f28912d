"""Acceptance gate: one test per headline guarantee, each printing a
single PASS/FAIL line with the measured quantity."""

import itertools
import time

import numpy as np
import pytest

import iterauction as ia
from iterauction.mechanism import MechanismConfig, run_mlca, vcg_payments
from iterauction.mvnn import (
    InitHyper,
    init_params,
    mixture_params,
    random_containment_pair,
    sample_mixture,
)
from iterauction.training import TrainHyper, train_mean
from iterauction.uub import NomuHyper, build_exact_uub, max_monotone_extension, train_uub
from iterauction.wdp import (
    SolveBudget,
    brute_force_wdp,
    milp_wdp,
    solve_wdp,
)

from _gradcheck import (
    mean_loss_and_grads,
    nomu_loss_and_grads,
    preactivations_kink_free,
    residuals_kink_free,
    worst_relative_error,
)
from _oracles import check_encoding_at, init_params_generic


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}"
    print(line)
    assert ok, line


def _random_nets(n, m, rng, max_hidden_layers=2, max_width=8, skip=False):
    layers = [int(rng.integers(1, max_width + 1))
              for _ in range(int(rng.integers(1, max_hidden_layers + 1)))]
    return [
        init_params([m, *layers, 1], InitHyper(), (0.1, 1.0),
                    seed=int(rng.integers(1e9)), skip=skip)
        for _ in range(n)
    ]


class TestAcceptance:
    def test_01_wdp_exactness(self):
        rng = np.random.default_rng(101)
        t0 = time.monotonic()
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 8))
            nets = _random_nets(n, m, rng, skip=bool(trial % 2))
            evs = [p.forward for p in nets]
            bf = brute_force_wdp(evs, m)
            nb = solve_wdp(evs, m, budget=SolveBudget(relative_gap=0.0))
            worst = max(worst, abs(bf.objective - nb.objective))
        elapsed = time.monotonic() - t0
        _report(
            "WDP exactness (50 instances, n<=3, m<=7)",
            worst <= 1e-9 and elapsed < 60,
            f"max |native - brute| = {worst:.2e}, {elapsed:.1f}s",
        )

    def test_02_milp_encoding_correct_and_pruning_neutral(self):
        rng = np.random.default_rng(102)
        encoding_ok = True
        for trial in range(6):
            m = int(rng.integers(2, 7))
            for net in _random_nets(2, m, rng, skip=bool(trial % 2)):
                for x in itertools.product([0, 1], repeat=m):
                    if not check_encoding_at(net, np.array(x, dtype=np.float64)):
                        encoding_ok = False
        worst = 0.0
        for trial in range(20):
            m = int(rng.integers(2, 6))
            nets = _random_nets(2, m, rng)
            pruned = milp_wdp(nets, prune=True)
            full = milp_wdp(nets, prune=False)
            bf = brute_force_wdp([p.forward for p in nets], m)
            worst = max(worst, abs(pruned.objective - full.objective),
                        abs(pruned.objective - bf.objective))
        _report(
            "MILP encoding + pruning neutrality",
            encoding_ok and worst <= 1e-9,
            f"indicator constraints hold exhaustively; max optimum drift {worst:.2e}",
        )

    def test_03_exact_upper_bound_vs_lattice_oracle(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(2, 9))
            # values from a random monotone normalized function, so the
            # report set is consistent and interpolation is well-defined
            w = rng.uniform(0.1, 1.0, m)
            gamma = float(rng.uniform(0.4, 1.0))
            reports = [(np.ones(m, dtype=np.int64), 1.0)]
            seen = {tuple(np.ones(m, dtype=int))}
            for _ in range(int(rng.integers(1, 10))):
                b = rng.integers(0, 2, m)
                if b.sum() == 0 or tuple(b) in seen:
                    continue
                seen.add(tuple(b))
                reports.append((b, float((w @ b / w.sum()) ** gamma)))
            net = build_exact_uub(reports)
            X = np.array(list(itertools.product([0, 1], repeat=m)), dtype=np.float64)
            oracle = np.array([max_monotone_extension(reports, x) for x in X])
            worst = max(worst, float(np.abs(net.forward(X) - oracle).max()))
            for b, v in reports:
                worst = max(worst, abs(net.forward(b.astype(float)) - v))
        _report(
            "closed-form upper bound == lattice oracle (100 report sets, m<=8)",
            worst <= 1e-12,
            f"max deviation {worst:.2e}",
        )

    def test_04_monotonicity_ten_thousand_pairs(self):
        rng = np.random.default_rng(104)
        worst = -np.inf
        for skip in (False, True):
            for _ in range(50):
                m = int(rng.integers(2, 10))
                net = _random_nets(1, m, rng, skip=skip)[0]
                for _ in range(100):
                    a, b = random_containment_pair(m, rng)
                    worst = max(worst, net.forward(a.astype(float)) - net.forward(b.astype(float)))
        _report(
            "monotonicity on 10^4 containment pairs (with/without skip)",
            worst <= 1e-12,
            f"max forward(A) - forward(B) over A subseteq B = {worst:.2e}",
        )

    def test_05_gradient_correctness(self):
        rng = np.random.default_rng(105)
        th = TrainHyper(trainable_cutoffs=True)
        nh = NomuHyper()
        mean_pts, mean_worst = 0, 0.0
        seed = 0
        while mean_pts < 100 and seed < 2000:
            seed += 1
            p = init_params([4, 3, 1], InitHyper(), (0.3, 1.0), seed=seed, skip=bool(seed % 2))
            X, y = rng.random((4, 4)), rng.random(4)
            if not preactivations_kink_free(p, X):
                continue
            if not residuals_kink_free(p.forward(X), y, th.smooth_l1_beta):
                continue
            mean_worst = max(mean_worst, worst_relative_error(
                lambda pp: mean_loss_and_grads(pp, X, y, th), p))
            mean_pts += 1

        terms = ("data", "push_up", "below_exact", "above_mean", "stability")
        term_pts = {t: 0 for t in terms}
        term_worst = 0.0
        seed = 5000
        while min(term_pts.values()) < 100 and seed < 20000:
            seed += 1
            trng = np.random.default_rng(seed)
            m = 4
            reports = [(np.ones(m, dtype=np.int64), 1.0),
                       (trng.integers(0, 2, m), float(trng.uniform(0.1, 0.9)))]
            if reports[1][0].sum() in (0, m):  # the empty bundle, or the full one again
                continue
            exact = build_exact_uub(reports)
            mean = init_params([m, 3, 1], InitHyper(), (0.3, 1.0), seed=seed + 1)
            p = init_params([m, 3, 1], InitHyper(), (0.3, 1.0), seed=seed + 2, skip=bool(seed % 2))
            X = np.stack([b.astype(float) for b, _ in reports])
            y = np.array([v for _, v in reports])
            X_art = trng.random((6, m))
            if not (preactivations_kink_free(p, X) and preactivations_kink_free(p, X_art)):
                continue
            u_tr, u_art = p.forward(X), p.forward(X_art)
            feasible = {
                "data": residuals_kink_free(u_tr, y, th.smooth_l1_beta),
                "stability": residuals_kink_free(u_tr, y, th.smooth_l1_beta),
                "push_up": residuals_kink_free(u_art, exact.forward(X_art), 0.0),
                "below_exact": residuals_kink_free(u_art, exact.forward(X_art), th.smooth_l1_beta),
                "above_mean": residuals_kink_free(u_art, mean.forward(X_art), th.smooth_l1_beta),
            }
            for term in terms:
                if not feasible[term] or term_pts[term] >= 100:
                    continue
                term_worst = max(term_worst, worst_relative_error(
                    lambda pp: nomu_loss_and_grads(pp, mean, exact, X, y, X_art, nh, th,
                                                   only_term=term), p))
                term_pts[term] += 1
        ok = (mean_pts >= 100 and min(term_pts.values()) >= 100
              and mean_worst <= 1e-4 and term_worst <= 1e-4)
        _report(
            "analytic gradients vs central differences (mean loss + each bound-loss term)",
            ok,
            f"mean-loss worst {mean_worst:.2e} over {mean_pts} pts; "
            f"term worst {term_worst:.2e} over >= {min(term_pts.values())} pts/term",
        )

    def test_06_initialization_moments_and_saturation(self):
        h = InitHyper(e_init=1.0, v_init=0.05, b_init=0.05, bias_init=0.05, eps_little=0.1)
        rng = np.random.default_rng(106)
        mean_err = var_err = 0.0
        weights_in_range = True
        for d in (16, 64, 256):
            W = sample_mixture(10**5, d, h, rng)
            bias = -rng.uniform(0, h.bias_init, 10**5)
            pre = W.sum(axis=1) + bias
            _, B, _ = mixture_params(d, h)
            mean_err = max(mean_err, abs(pre.mean() - h.e_init) / h.e_init)
            var_err = max(var_err, abs(pre.var(ddof=1) - h.v_init) / h.v_init)
            weights_in_range &= bool(W.min() >= 0.0 and W.max() <= B + 1e-12)
        m = 64
        X = (rng.random((500, m)) < 0.5).astype(float)
        def saturation(p):
            o = X @ p.weights[0].T + p.biases[0]
            return float((o >= p.cutoffs[0]).mean())
        sat_generic = saturation(init_params_generic([m, 64, 1], seed=1))
        sat_mixture = saturation(init_params([m, 64, 1], h, (0.0, 1.0), seed=1))
        ok = (mean_err <= 0.02 and var_err <= 0.05 and weights_in_range
              and sat_generic >= 0.95 and sat_mixture < 0.50)
        _report(
            "initialization moments + saturation contrast",
            ok,
            f"mean err {mean_err:.3%}, var err {var_err:.3%}, "
            f"saturation generic {sat_generic:.0%} vs mixture {sat_mixture:.0%}",
        )

    def test_07_uncertainty_sandwich(self):
        rng = np.random.default_rng(107)
        th = TrainHyper(epochs=100)
        # A stronger above-bound penalty and denser artificial-point coverage
        # keep the trained bound under the closed-form bound off the data.
        nh = NomuHyper(pi_uub=4.0, n_art=256)
        worst_below = worst_above = 0.0
        for seed in range(10):
            m = 5
            inst = ia.generate_instance(ia.GeneratorConfig(n=1, m=m), seed)
            srng = np.random.default_rng(seed)
            bundles = {tuple(np.ones(m, dtype=int))}
            while len(bundles) < 10:
                b = tuple(srng.integers(0, 2, m))
                if sum(b) > 0:
                    bundles.add(b)
            reports = [(np.array(b), float(inst.values[0].value(np.array(b))))
                       for b in sorted(bundles)]
            mean = train_mean(reports, [m, 8, 1], InitHyper(), th, seed=seed)
            exact = build_exact_uub(reports)
            uub = train_uub(reports, mean, exact, nh, th, InitHyper(),
                            [m, 8, 1], seed=seed)
            X = rng.random((1000, m))
            worst_below = max(worst_below, float((uub.forward(X) < mean.forward(X) - 0.02).mean()))
            worst_above = max(worst_above, float((uub.forward(X) > exact.forward(X) + 0.02).mean()))
        ok = worst_below <= 0.05 and worst_above <= 0.05
        _report(
            "trained bound sandwiched between mean and closed-form bound (10 instances)",
            ok,
            f"worst below-mean rate {worst_below:.1%}, worst above-exact rate {worst_above:.1%}",
        )

    def test_08_vcg_hand_cases_and_rationality(self):
        # second-price recovery
        rs = ia.ReportSet(2, 1)
        rs.add(0, [1], 0.8)
        rs.add(1, [1], 0.5)
        _, pay = vcg_payments(rs)
        err = max(abs(pay[0] - 0.5), abs(pay[1]))
        # single bidder pays zero
        rs1 = ia.ReportSet(1, 2)
        rs1.add(0, [1, 1], 0.9)
        _, pay1 = vcg_payments(rs1)
        err = max(err, abs(pay1[0]))
        # disjoint demand pays zero
        rs2 = ia.ReportSet(2, 2)
        rs2.add(0, [1, 0], 0.7)
        rs2.add(1, [0, 1], 0.6)
        _, pay2 = vcg_payments(rs2)
        err = max(err, float(np.abs(pay2).max()))
        # individual rationality on live mechanism runs
        ir_ok = True
        for seed in range(3):
            inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=5), seed)
            out = run_mlca(inst, MechanismConfig(
                q_init=4, q_round=2, q_max=8, train_hyper=TrainHyper(epochs=20),
                budget=SolveBudget(relative_gap=0.0)), seed=seed)
            for i in range(3):
                v = out.reports.value_of(i, out.allocation[i])
                final_value = 0.0 if v is None else v
                ir_ok &= bool(out.payments[i] >= 0 and out.payments[i] <= final_value + 1e-9)
        _report(
            "VCG hand cases + payment rationality on live runs",
            err <= 1e-9 and ir_ok,
            f"hand-case error {err:.2e}, rationality {'held' if ir_ok else 'violated'}",
        )

    def test_09_end_to_end_ordering(self):
        t0 = time.monotonic()
        losses = {"uub": [], "random": []}
        for seed in range(20):
            inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=8), seed)
            for mech in ("uub", "random"):
                cfg = MechanismConfig(
                    q_init=6, q_round=3, q_max=18, acquisition=mech,
                    train_hyper=TrainHyper(epochs=60),
                    budget=SolveBudget(relative_gap=0.0),
                )
                out = run_mlca(inst, cfg, seed=seed)
                losses[mech].append(out.efficiency_loss)
        elapsed = time.monotonic() - t0
        gap_pp = 100 * (np.mean(losses["random"]) - np.mean(losses["uub"]))
        ok = gap_pp >= 5.0 and elapsed < 1800
        _report(
            "end-to-end ordering: bound-driven beats random by >= 5 pp (20 seeds)",
            ok,
            f"mean loss random {np.mean(losses['random']):.1%} vs "
            f"bound-driven {np.mean(losses['uub']):.1%} "
            f"(gap {gap_pp:.1f} pp) in {elapsed:.0f}s",
        )

    def test_10_round_accounting(self):
        ok = True
        detail = []
        for seed in range(3):
            inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=6), seed)
            cfg = MechanismConfig(
                q_init=4, q_round=2, q_max=10, early_stop=False,
                train_hyper=TrainHyper(epochs=20),
                budget=SolveBudget(relative_gap=0.0),
            )
            out = run_mlca(inst, cfg, seed=seed)
            for i in range(inst.n):
                bundles = [tuple(b) for b, _ in out.reports.per_bidder[i]]
                ok &= out.reports.count(i) == cfg.q_max
                ok &= len(set(bundles)) == len(bundles)
            detail.append(f"seed {seed}: counts {[out.reports.count(i) for i in range(inst.n)]}")
        _report(
            "round accounting: exact query budget, no duplicates",
            ok,
            "; ".join(detail),
        )
