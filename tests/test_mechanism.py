"""Auction loop: initial queries, novelty, round budget, VCG payments."""

import itertools
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iterauction as ia
from iterauction import mechanism, wdp
from iterauction.mechanism import (
    MechanismConfig,
    _marginal_schedule,
    initial_queries,
    next_query,
    run_mlca,
    vcg_payments,
)
from iterauction.mvnn import InitHyper, MvnnParams, init_params

from _reference_mechanism import reference_run_mlca


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
        counts = {i: 0 for i in range(4)}
        for r in range(6):  # six rounds of q_round = 3
            for picks in _marginal_schedule(4, 3, r):
                for j in picks:
                    counts[j] += 1
        values = list(counts.values())
        assert max(values) - min(values) <= 1

    def test_never_schedules_own_marginal(self):
        schedule = _marginal_schedule(3, 3, 0)
        for i, picks in enumerate(schedule):
            assert i not in picks
            assert len(picks) == 2

    def test_rotation_varies_across_rounds(self):
        first = _marginal_schedule(3, 2, 0)
        second = _marginal_schedule(3, 2, 1)
        assert first != second

    def test_single_bidder_falls_back_to_main(self):
        schedule = _marginal_schedule(1, 3, 0)
        assert schedule == [[None, None]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("q_round", [2, 3, 4])
    def test_shifts_continue_across_rounds(self, n, q_round):
        shifts, waves = [], []
        for r in range(6):
            schedule = _marginal_schedule(n, q_round, r)
            for t in range(q_round - 1):
                wave = [schedule[i][t] for i in range(n)]
                (shift,) = {(removed - i) % n for i, removed in enumerate(wave)}
                shifts.append(shift)
                waves.append(wave)
        assert shifts == [k % (n - 1) + 1 for k in range(6 * (q_round - 1))]
        for wave in waves:
            assert sorted(wave) == list(range(n))


class TestNextQuery:
    def test_query_avoids_excluded_bundles(self):
        m = 4
        nets = {i: init_params([m, 4, 1], InitHyper(), seed=i) for i in range(2)}
        excluded = {tuple(np.zeros(m, dtype=int)), (1, 1, 1, 1)}
        b = next_query(0, [0, 1], nets, excluded, ia.SolveBudget(relative_gap=0.0))
        assert tuple(b) not in excluded
        assert b.sum() > 0

    def test_tied_bounds_share_a_width_and_stack(self):
        # a tied reported value is a zero-height step of an exact bound, kept
        # with output weight 0, so both bidders' bounds have one width
        m = 4
        full, half = np.ones(m, dtype=int), np.array([1, 1, 0, 0])
        nets = [ia.build_exact_uub([(full, 2.0), (half, 2.0)]),
                ia.build_exact_uub([(full, 2.0), (half, 1.0)])]
        assert nets[0].layer_dims == nets[1].layer_dims == [m, 2, 2, 1]
        assert MvnnParams.stack(nets).weights[-1].shape == (2, 1, 2)
        excluded = {(0,) * m, (1,) * m}
        budget = ia.SolveBudget(relative_gap=0.0)
        b = next_query(0, [0, 1], nets, excluded, budget)
        ref = ia.solve_wdp([net.forward for net in nets], m, budget, [excluded, None])
        assert b.tolist() == ref.allocation[0].tolist()

    def test_nets_of_unequal_architecture_are_rejected(self):
        nets = [init_params([3, 2, 1], InitHyper(), seed=0), init_params([3, 4, 1], InitHyper(), seed=1)]
        with pytest.raises(ia.InvalidInputError, match="architecture"):
            next_query(0, [0, 1], nets, {(0, 0, 0)}, ia.SolveBudget())

    def test_bidder_must_be_in_economy(self):
        nets = {i: init_params([3, 2, 1], InitHyper(), seed=i) for i in range(2)}
        with pytest.raises(ia.InvalidInputError):
            next_query(0, [1], nets, {(0, 0, 0)}, ia.SolveBudget())


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

    def test_others_values_are_added_left_to_right(self):
        # bidder 0 wins nothing, and its payment is the others' optimum,
        # 1e16 + 16 by the search's left-to-right sum, less their values in
        # the main allocation, [1e16 + 8, 3.0, 3.0], added left to right too;
        # the builtin sum of floats is compensated from Python 3.12 on and
        # would make it 2.0
        rs = ia.ReportSet(4, 3)
        rs.add(0, [1, 0, 1], 6.0)
        rs.add(1, [0, 1, 0], 1e16 + 8)
        rs.add(2, [1, 1, 1], 1.0)
        rs.add(2, [0, 0, 1], 3.0)
        rs.add(3, [0, 0, 1], 1.0)
        rs.add(3, [1, 0, 0], 3.0)
        alloc, pay = vcg_payments(rs)
        assert alloc.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]
        assert math.fsum([1e16 + 8, 3.0, 3.0]) == 1e16 + 14
        assert pay.tolist() == [0.0, 0.0, 2.0, 2.0]

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

    @pytest.mark.parametrize("acquisition", ["uub", "exact-uub", "mean"])
    def test_repeat_queries_in_an_economy_reuse_its_optimum(self, monkeypatch, acquisition):
        # each round fits n bidders, then makes n * q_round query solves; an
        # answer given without a search equals a fresh solve without prior
        n, q_round = 3, 3
        events, reused = [], []
        solve, fit = mechanism.solve_wdp, mechanism.fit_bidder_models

        def fitted(*args, **kwargs):
            events.append("fit")
            return fit(*args, **kwargs)

        def solved(*args, **kwargs):
            events.append("solve")
            sol = solve(*args, **kwargs)
            if sol.nodes == 0:
                fresh = solve(*args, **{**kwargs, "prior": None})
                assert sol.allocation.tolist() == fresh.allocation.tolist()
                assert (sol.objective, sol.status, sol.proven_gap) == \
                    (fresh.objective, fresh.status, fresh.proven_gap)
                reused.append(sol)
            return sol

        monkeypatch.setattr(mechanism, "fit_bidder_models", fitted)
        monkeypatch.setattr(mechanism, "solve_wdp", solved)
        inst = ia.generate_instance(ia.GeneratorConfig(n=n, m=6), seed=0)
        cfg = _fast_config(acquisition=acquisition, q_round=q_round, q_max=10, early_stop=False,
                           train_hyper=ia.TrainHyper(epochs=10))
        out = run_mlca(inst, cfg, seed=0)
        assert out.rounds_run == cfg.rounds == 2
        assert events == (["fit"] * n + ["solve"] * n * q_round) * cfg.rounds
        assert reused
        assert out.nonoptimal_queries == 0

    @pytest.mark.parametrize("early_stop", [False, True])
    def test_reported_wdp_before_the_first_round_only_for_early_stop(self, monkeypatch,
                                                                     early_stop):
        # one reported WDP per round run and 1 + n for VCG, plus one before the
        # first round when the early-stop check reads its loss
        solves = []
        solve = mechanism.solve_reported_wdp

        def counted(reports):
            solves.append(reports.n)
            return solve(reports)

        monkeypatch.setattr(mechanism, "solve_reported_wdp", counted)
        inst = ia.generate_instance(ia.GeneratorConfig(n=3, m=5), seed=4)
        out = run_mlca(inst, _fast_config(acquisition="random", early_stop=early_stop), seed=4)
        assert out.rounds_run == 2
        assert solves == [3] * (early_stop + out.rounds_run + 1) + [2] * 3

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
        # the learned-bound loss has one form, so a config that picks one fails loudly
        ({"nomu_hyper": {"loss_variant": "appendix-detailed"}}, "loss_variant"),
    ])
    def test_config_json_rejects_unknown_keys(self, obj, unknown):
        with pytest.raises(ia.InvalidInputError, match=unknown):
            MechanismConfig.from_json_obj(obj)

    @pytest.mark.parametrize("obj, key", [
        ({"train_hyper": 5}, "train_hyper"),
        ({"budget": [0.0]}, "budget"),
        ({"hidden_dims": 10}, "hidden_dims"),
        ({"hidden_dims": (0,)}, "hidden_dims"),
        ({"q_init": 4, "q_max": 7.5}, "q_max"),
        ({"q_init": "4"}, "q_init"),
        ({"q_round": True}, "q_round"),
        ({"train_hyper": {"epochs": "60"}}, "epochs"),
        ({"early_stop": "no"}, "early_stop"),
        ({"skip": 1}, "skip"),
        ({"train_hyper": {"cutoff_init_range": 5}}, "cutoff_init_range"),
        ({"train_hyper": {"cutoff_init_range": [0.1]}}, "cutoff_init_range"),
        ({"train_hyper": {"cutoff_init_range": ["a", 1]}}, "cutoff_init_range"),
        ({"train_hyper": {"cutoff_init_range": [0.1, 1.0, 2.0]}}, "cutoff_init_range"),
        ({"budget": {"relative_gap": float("nan")}}, "gap"),
        ({"budget": {"time_limit_secs": float("nan")}}, "time limit"),
    ])
    def test_config_json_rejects_malformed_values(self, obj, key):
        with pytest.raises(ia.InvalidInputError, match=key):
            MechanismConfig.from_json_obj(obj)


@st.composite
def reference_auctions(draw, acquisition):
    """An instance, a mechanism config and a seed small enough for the
    reference's brute-force queries and epoch-by-epoch fits."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(3, 5))
    q_init, q_round = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    # no bidder runs out of bundles: at most 2^m - 1 queries each
    rounds = draw(st.integers(1, min(2, (2**m - 1 - q_init) // q_round)))
    config = MechanismConfig(
        q_init=q_init, q_round=q_round, q_max=q_init + rounds * q_round,
        acquisition=acquisition,
        hidden_dims=draw(st.sampled_from([(4,), (5, 3)])),
        train_hyper=ia.TrainHyper(epochs=draw(st.integers(1, 8))),
        nomu_hyper=ia.NomuHyper(n_art=draw(st.sampled_from([3, 8]))),
        skip=draw(st.booleans()),
        early_stop=draw(st.booleans()),
    )
    instance = ia.generate_instance(ia.GeneratorConfig(n=n, m=m), draw(st.integers(0, 10**6)))
    return instance, config, draw(st.integers(0, 10**6))


class TestAgainstReferenceAuction:
    @pytest.mark.parametrize("acquisition", mechanism.ACQUISITIONS)
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_outcome_equals_the_reference_loop(self, acquisition, data):
        # the whole auction: fits, query WDPs with their reuse, the reported
        # WDP and VCG, each against its reference, byte for byte
        instance, config, seed = data.draw(reference_auctions(acquisition))
        got = run_mlca(instance, config, seed)
        want = reference_run_mlca(instance, config, seed)
        assert got.allocation.tobytes() == want.allocation.tobytes()
        assert got.allocation.dtype == want.allocation.dtype
        assert got.payments.tobytes() == want.payments.tobytes()
        assert got.reports.to_json_obj() == want.reports.to_json_obj()
        assert [vars(log) for log in got.round_logs] == [vars(log) for log in want.round_logs]
        assert (got.rounds_run, got.stopped_early) == (want.rounds_run, want.stopped_early)
        assert repr(got.efficiency_loss) == repr(want.efficiency_loss)
