"""Auction loop: initial queries, novelty, round budget, VCG payments."""

import itertools
import logging
from types import SimpleNamespace

import numpy as np
import pytest

import iterauction as ia
from iterauction import wdp
from iterauction.mechanism import (
    MechanismConfig,
    _marginal_schedule,
    initial_queries,
    next_query,
    run_mlca,
    vcg_payments,
)
from iterauction.mvnn import InitHyper, init_params


class TestInitialQueries:
    def test_count_distinct_and_full_bundle_present(self):
        rng = np.random.default_rng(0)
        qs = initial_queries(5, 6, rng)
        assert len(qs) == 6
        assert len({tuple(q) for q in qs}) == 6
        assert [1] * 5 in [q.tolist() for q in qs]
        assert all(q.sum() > 0 for q in qs)

    def test_too_many_queries_rejected(self):
        with pytest.raises(ia.ExhaustedBidderError):
            initial_queries(2, 4, np.random.default_rng(0))


class TestMarginalSchedule:
    def test_balanced_counts(self):
        state = {}
        counts = {i: 0 for i in range(4)}
        for _ in range(6):  # six rounds of q_round = 3
            for picks in _marginal_schedule(4, 3, state):
                for j in picks:
                    counts[j] += 1
        values = list(counts.values())
        assert max(values) - min(values) <= 1

    def test_never_schedules_own_marginal(self):
        schedule = _marginal_schedule(3, 3, {})
        for i, picks in enumerate(schedule):
            assert i not in picks
            assert len(picks) == 2

    def test_rotation_varies_across_rounds(self):
        state = {}
        first = _marginal_schedule(3, 2, state)
        second = _marginal_schedule(3, 2, state)
        assert first != second

    def test_single_bidder_falls_back_to_main(self):
        schedule = _marginal_schedule(1, 3, {})
        assert schedule == [[None, None]]


class TestNextQuery:
    def test_query_avoids_excluded_bundles(self):
        rng = np.random.default_rng(1)
        m = 4
        nets = {i: init_params([m, 4, 1], InitHyper(), seed=i) for i in range(2)}
        excluded = {tuple(np.zeros(m, dtype=int)), (1, 1, 1, 1)}
        b = next_query(0, [0, 1], nets, m, excluded, ia.SolveBudget(relative_gap=0.0))
        assert tuple(b) not in excluded
        assert b.sum() > 0

    def test_bidder_must_be_in_economy(self):
        nets = {i: init_params([3, 2, 1], InitHyper(), seed=i) for i in range(2)}
        with pytest.raises(ia.InvalidInputError):
            next_query(0, [1], nets, 3, {(0, 0, 0)}, ia.SolveBudget())


class TestVcg:
    def test_second_price_recovery(self):
        # single item, two bidders: winner pays the runner-up's bid
        rs = ia.ReportSet(2, 1)
        rs.add(0, [1], 0.8)
        rs.add(1, [1], 0.5)
        alloc, pay = vcg_payments(rs)
        assert alloc.tolist() == [[1], [0]]
        assert pay[0] == pytest.approx(0.5, abs=1e-9)
        assert pay[1] == pytest.approx(0.0, abs=1e-9)

    def test_single_bidder_pays_zero(self):
        rs = ia.ReportSet(1, 2)
        rs.add(0, [1, 1], 0.9)
        alloc, pay = vcg_payments(rs)
        assert alloc.tolist() == [[1, 1]]
        assert pay[0] == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_demand_pays_zero(self):
        # bidders wanting disjoint items impose no externality
        rs = ia.ReportSet(2, 2)
        rs.add(0, [1, 0], 0.7)
        rs.add(1, [0, 1], 0.6)
        alloc, pay = vcg_payments(rs)
        assert alloc.tolist() == [[1, 0], [0, 1]]
        assert pay.tolist() == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_payments_clamped_nonnegative(self):
        rs = ia.ReportSet(2, 2)
        rs.add(0, [1, 0], 0.7)
        rs.add(1, [0, 1], 0.6)
        _, pay = vcg_payments(rs)
        assert (pay >= 0).all()


def _fast_config(**kw):
    base = dict(
        q_init=4, q_round=2, q_max=8,
        train_hyper=ia.TrainHyper(epochs=30),
        budget=ia.SolveBudget(relative_gap=0.0),
    )
    base.update(kw)
    return MechanismConfig(**base)


class TestRunMlca:
    def test_round_accounting_exact_budget_no_duplicates(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=0)
        out = run_mlca(inst, _fast_config(early_stop=False), seed=0)
        for i in range(2):
            assert out.reports.count(i) == 8
            bundles = [tuple(b) for b, _ in out.reports.per_bidder[i]]
            assert len(set(bundles)) == len(bundles)
        assert out.rounds_run == 2

    def test_individual_rationality_and_no_deficit(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=5), seed=1)
        out = run_mlca(inst, _fast_config(), seed=1)
        assert (out.payments >= 0).all()
        rep_welfare = ia.reported_welfare(out.allocation, out.reports)
        for i in range(3):
            v = out.reports.value_of(i, out.allocation[i])
            final_value = 0.0 if v is None else v
            assert out.payments[i] <= final_value + 1e-9
        assert out.payments.sum() <= rep_welfare + 1e-9

    def test_interim_welfare_monotone_over_rounds(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=2)
        out = run_mlca(inst, _fast_config(early_stop=False), seed=2)
        welfare = [rl.reported_welfare for rl in out.round_logs]
        assert all(b >= a - 1e-9 for a, b in zip(welfare, welfare[1:]))

    def test_truthful_reports_never_exceed_optimum(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=3)
        out = run_mlca(inst, _fast_config(), seed=3)
        rep = ia.reported_welfare(out.allocation, out.reports)
        assert rep <= inst.optimal_welfare + 1e-9

    def test_deterministic_given_seed(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=4)
        a = run_mlca(inst, _fast_config(), seed=5)
        b = run_mlca(inst, _fast_config(), seed=5)
        assert a.allocation.tolist() == b.allocation.tolist()
        assert a.payments.tolist() == b.payments.tolist()
        assert a.reports.to_json_obj() == b.reports.to_json_obj()

    def test_random_acquisition_runs(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=6)
        out = run_mlca(inst, _fast_config(acquisition="random", early_stop=False), seed=6)
        assert out.reports.count(0) == 8
        assert 0.0 <= out.efficiency_loss <= 1.0

    def test_mean_and_exact_acquisitions_run(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=4), seed=7)
        for acq in ("mean", "exact-uub"):
            out = run_mlca(inst, _fast_config(acquisition=acq), seed=7)
            assert 0.0 <= out.efficiency_loss <= 1.0

    def test_single_bidder_auction(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=1, m=4), seed=8)
        out = run_mlca(inst, _fast_config(), seed=8)
        assert out.payments.tolist() == [0.0]
        assert 0.0 <= out.efficiency_loss <= 1.0

    def test_exact_queries_count_as_optimal(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=9)
        out = run_mlca(inst, _fast_config(early_stop=False), seed=9)
        assert out.nonoptimal_queries == 0

    def test_default_config_queries_are_exact(self):
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=5), seed=1)
        out = run_mlca(inst, MechanismConfig(), seed=1)
        assert sum(len(rl.queries) for rl in out.round_logs) > 0
        assert out.nonoptimal_queries == 0

    def test_time_limited_queries_are_counted_and_logged(self, monkeypatch, caplog):
        # a clock that ticks once per read: each query WDP stops after 10 nodes,
        # which cuts most of them short
        ticks = itertools.count()
        monkeypatch.setattr(wdp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
        inst = ia.generate_instance(ia.GeneratorConfig(n=2, m=6), seed=0)
        cfg = _fast_config(early_stop=False,
                           budget=ia.SolveBudget(relative_gap=0.0, time_limit_secs=10.5))
        with caplog.at_level(logging.WARNING, logger="iterauction.mechanism"):
            out = run_mlca(inst, cfg, seed=0)
        queries = sum(len(rl.queries) for rl in out.round_logs)
        assert queries == 2 * 2 * cfg.q_round
        warned = [r for r in caplog.records if "time_limit" in r.getMessage()]
        assert 0 < out.nonoptimal_queries == len(warned) <= queries
        for i in range(2):
            bundles = [tuple(b) for b, _ in out.reports.per_bidder[i]]
            assert len(set(bundles)) == len(bundles)

    def test_config_json_round_trip(self):
        import json

        cfg = _fast_config(acquisition="mean", hidden_dims=(6, 6))
        back = MechanismConfig.from_json_obj(json.loads(json.dumps(cfg.to_json_obj())))
        assert back == cfg
        assert isinstance(back.train_hyper.cutoff_init_range, tuple)

    @pytest.mark.parametrize("obj, unknown", [
        ({"train_hyper": {"dropout_p": 0.2}}, "dropout_p"),
        ({"init_hyper": {"e_init": 1.0, "scale": 2.0}}, "scale"),
        ({"nomu_hyper": {"n_artificial": 8}}, "n_artificial"),
        ({"budget": {"gap": 0.0}}, "gap"),
        ({"q_init": 4, "epochs": 10}, "epochs"),
    ])
    def test_config_json_rejects_unknown_keys(self, obj, unknown):
        with pytest.raises(ia.InvalidInputError, match=unknown):
            MechanismConfig.from_json_obj(obj)
