"""Winner determination: oracles, branch and bound, MILP, LP round trip."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iterauction as ia
from iterauction import wdp
from iterauction.errors import InvalidInputError, UnsupportedSizeError
from iterauction.mvnn import InitHyper, init_params
from iterauction.wdp import (
    SolveBudget,
    box_bounds,
    brute_force_wdp,
    check_encoding_at,
    emit_lp_file,
    encode_milp,
    lemma_assignment,
    milp_wdp,
    parse_lp_file,
    solve_model,
    solve_reported_wdp,
    solve_wdp,
)


def random_nets(n, m, rng, hidden=(4,), skip=False):
    return [
        init_params([m, *hidden, 1], InitHyper(), (0.1, 1.0),
                    seed=int(rng.integers(1e9)), skip=skip)
        for _ in range(n)
    ]


class TestBruteForce:
    def test_single_additive_bidder_takes_everything(self):
        # one bidder, additive values: optimum hands over the full bundle
        vm = ia.generate_instance(ia.GeneratorConfig(n=1, m=4, bidder_kinds=("additive",)), 0)
        sol = brute_force_wdp([v.value_batch for v in vm.values], 4)
        assert sol.allocation.tolist() == [[1, 1, 1, 1]]
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_size_limit_enforced(self):
        with pytest.raises(UnsupportedSizeError):
            brute_force_wdp([lambda X: X.sum(axis=1)] * 9, 8)

    def test_exclusions_respected(self):
        nets = random_nets(2, 3, np.random.default_rng(0))
        evs = [p.forward for p in nets]
        free = brute_force_wdp(evs, 3)
        banned = [[free.allocation[0]], None]
        sol = brute_force_wdp(evs, 3, exclusions=banned)
        assert tuple(sol.allocation[0]) != tuple(free.allocation[0])
        assert sol.objective <= free.objective + 1e-12


class TestBranchAndBound:
    def test_matches_brute_force_on_random_networks(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            n, m = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            nets = random_nets(n, m, rng, skip=bool(trial % 2))
            evs = [p.forward for p in nets]
            bf = brute_force_wdp(evs, m)
            nb = solve_wdp(evs, m, budget=SolveBudget(relative_gap=0.0))
            assert nb.objective == pytest.approx(bf.objective, abs=1e-9)
            assert nb.allocation.tolist() == bf.allocation.tolist()

    def test_matches_brute_force_with_exclusions(self):
        rng = np.random.default_rng(2)
        nets = random_nets(2, 4, rng)
        evs = [p.forward for p in nets]
        free = solve_wdp(evs, 4, budget=SolveBudget(relative_gap=0.0))
        excl = [{tuple(free.allocation[0])}, None]
        bf = brute_force_wdp(evs, 4, exclusions=excl)
        nb = solve_wdp(evs, 4, budget=SolveBudget(relative_gap=0.0), exclusions=excl)
        assert nb.objective == pytest.approx(bf.objective, abs=1e-9)

    def test_positive_gap_solution_within_bound(self):
        rng = np.random.default_rng(3)
        nets = random_nets(3, 6, rng)
        evs = [p.forward for p in nets]
        exact = brute_force_wdp(evs, 6)
        approx = solve_wdp(evs, 6, budget=SolveBudget(relative_gap=0.05))
        assert approx.objective >= exact.objective / 1.05 - 1e-9
        assert approx.status == "gap_limit"

    def test_at_most_n_evaluator_calls_per_internal_node(self):
        # n calls to rank the items by single-item value, then one 2-row
        # batch per bidder per internal node; leaves reuse their bound
        n, m = 3, 6
        nets = random_nets(n, m, np.random.default_rng(5), hidden=(10,))
        calls = []

        def counted(net):
            def ev(X):
                calls.append(len(X))
                return net.forward(X)
            return ev

        sol = solve_wdp([counted(p) for p in nets], m, budget=SolveBudget(relative_gap=0.0))
        assert calls[:n] == [m] * n
        assert all(rows == 2 for rows in calls[n:])
        # the root is internal and at least one node is a leaf
        assert len(calls) <= n * (sol.nodes - 1) + n
        bf = brute_force_wdp([p.forward for p in nets], m)
        assert sol.allocation.tolist() == bf.allocation.tolist()

    @pytest.mark.parametrize("k", [12, 40, 120])
    def test_time_limit_after_k_nodes(self, monkeypatch, k):
        n, m = 3, 6
        rng = np.random.default_rng(6)
        nets = random_nets(n, m, rng, hidden=(10,))
        evs = [p.forward for p in nets]
        excl = [{(0,) * m, (1,) * m, (1, 1, 0, 0, 1, 1)}, None, None]
        ticks = itertools.count()
        # one tick per clock read: the deadline is read once, then each node
        monkeypatch.setattr(wdp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
        sol = solve_wdp(evs, m, budget=SolveBudget(relative_gap=0.0, time_limit_secs=k + 0.5),
                        exclusions=excl)
        assert sol.status == "time_limit"
        assert sol.nodes == k + 1
        assert math.isfinite(sol.proven_gap) and sol.proven_gap >= 0
        assert (sol.allocation.sum(axis=0) <= 1).all()
        assert tuple(sol.allocation[0]) not in excl[0]
        welfare = sum(ev(sol.allocation[i : i + 1].astype(float))[0] for i, ev in enumerate(evs))
        assert sol.objective == pytest.approx(welfare, abs=1e-9)
        # the proven gap bounds the true optimum
        best = brute_force_wdp(evs, m, exclusions=excl)
        assert best.objective <= sol.objective * (1 + sol.proven_gap) + 1e-9

    def test_time_limit_before_first_feasible_leaf(self, monkeypatch):
        # a 7-node limit: the root plus one node per item reach the first
        # leaf, whose bundle is excluded; the deadline then passes with no
        # incumbent, and the search must dive on to a feasible leaf
        n, m = 3, 6
        nets = random_nets(n, m, np.random.default_rng(6), hidden=(10,))
        evs = [p.forward for p in nets]

        def solve(exclusions):
            ticks = itertools.count()
            monkeypatch.setattr(wdp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
            return solve_wdp(evs, m, budget=SolveBudget(relative_gap=0.0, time_limit_secs=7.5),
                             exclusions=exclusions)

        first_leaf = solve(None)  # with no exclusions the first leaf is the incumbent
        assert first_leaf.nodes == 8
        taker = int(np.flatnonzero(first_leaf.allocation.sum(axis=1))[-1])
        excl = [None] * n
        excl[taker] = {(0,) * m, tuple(first_leaf.allocation[taker])}
        sol = solve(excl)
        assert sol.status == "time_limit" and sol.nodes > 8
        assert math.isfinite(sol.proven_gap) and sol.proven_gap >= 0
        assert (sol.allocation.sum(axis=0) <= 1).all()
        assert tuple(sol.allocation[taker]) not in excl[taker]
        welfare = sum(ev(sol.allocation[i : i + 1].astype(float))[0] for i, ev in enumerate(evs))
        assert sol.objective == pytest.approx(welfare, abs=1e-9)
        best = brute_force_wdp(evs, m, exclusions=excl)
        assert best.objective <= sol.objective * (1 + sol.proven_gap) + 1e-9

    def test_no_items_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one item"):
            solve_wdp([lambda X: np.zeros(len(X))], 0)


@st.composite
def wdp_instances(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    hidden = draw(st.sampled_from([(4,), (10,)]))
    nets = [
        init_params([m, *hidden, 1], InitHyper(), (0.1, 1.0),
                    seed=draw(st.integers(0, 10**6)), skip=draw(st.booleans()))
        for _ in range(n)
    ]
    bundles = st.tuples(*[st.integers(0, 1)] * m)
    exclusions = [
        {(0,) * m} | draw(st.sets(bundles, max_size=4)) if draw(st.booleans()) else None
        for _ in range(n)
    ]
    return nets, m, exclusions


class TestBackendsAgree:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(wdp_instances())
    def test_brute_force_branch_and_bound_and_milp_agree(self, inst):
        nets, m, excl = inst
        evs = [p.forward for p in nets]
        try:
            bf = brute_force_wdp(evs, m, exclusions=excl)
        except InvalidInputError:  # the exclusions leave no assignment
            with pytest.raises(InvalidInputError):
                solve_wdp(evs, m, budget=SolveBudget(relative_gap=0.0), exclusions=excl)
            return
        nb = solve_wdp(evs, m, budget=SolveBudget(relative_gap=0.0), exclusions=excl)
        assert nb.status == "optimal"
        assert nb.objective == pytest.approx(bf.objective, abs=1e-9)
        assert nb.allocation.tolist() == bf.allocation.tolist()
        assert milp_wdp(nets, exclusions=excl).objective == pytest.approx(bf.objective, abs=1e-7)


class TestMilpEncoding:
    def test_box_bounds_bracket_all_bundles(self):
        rng = np.random.default_rng(4)
        net = random_nets(1, 5, rng, hidden=(4, 3))[0]
        bounds = box_bounds(net)
        for x in itertools.product([0, 1], repeat=5):
            z = np.array(x, dtype=np.float64)
            for k in range(net.num_hidden):
                o = net.weights[k] @ z + net.biases[k]
                lo, hi = bounds[k]
                assert (o >= lo - 1e-12).all() and (o <= hi + 1e-12).all()
                z = np.clip(o, 0.0, net.cutoffs[k])

    def test_lemma_assignment_tristate(self):
        assert lemma_assignment(-0.5, 1.0) == (0, 0)
        assert lemma_assignment(0.5, 1.0) == (1, 0)
        assert lemma_assignment(1.5, 1.0) == (1, 1)

    def test_encoding_constraints_hold_on_all_bundles(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            net = random_nets(1, 5, rng, hidden=(4, 4), skip=bool(trial % 2))[0]
            for x in itertools.product([0, 1], repeat=5):
                assert check_encoding_at(net, np.array(x, dtype=np.float64))

    def test_encoding_check_reads_the_encoder_rows(self, monkeypatch):
        # a first-layer ub2 row z <= o - l (1 - alpha) is tight at the empty
        # bundle; tightening it by 0.05 must show in the check
        rng = np.random.default_rng(5)
        net = random_nets(1, 4, rng, hidden=(4, 3))[0]
        bundles = [np.array(x, dtype=np.float64) for x in itertools.product([0, 1], repeat=4)]
        assert all(check_encoding_at(net, x) for x in bundles)
        encode = wdp.encode_milp

        def shifted(nets, exclusions=None, prune=True):
            model = encode(nets, exclusions=exclusions, prune=prune)
            r = next(r for r, row in enumerate(model.constraints) if row[0] == "n0_0_0_ub2")
            name, coeffs, lb, ub = model.constraints[r]
            model.constraints[r] = (name, coeffs, lb, ub - 0.05)
            return model

        monkeypatch.setattr(wdp, "encode_milp", shifted)
        assert not all(check_encoding_at(net, x) for x in bundles)

    def test_allocation_columns_come_first_bidder_major(self):
        rng = np.random.default_rng(13)
        n, m = 3, 4
        model = encode_milp(random_nets(n, m, rng, hidden=(3,)), exclusions=[[np.ones(m)], None, None])
        assert model.var_names[: n * m] == [f"a_{i}_{j}" for i in range(n) for j in range(m)]
        assert all(model.var_int[: n * m])

    def test_rows_must_be_one_sided(self):
        model = wdp.WdpModel()
        x = model.add_var("x", 0, 1)
        model.add_constraint("upper", {x: 1.0}, -np.inf, 1.0)
        model.add_constraint("lower", {x: 1.0}, 0.5, np.inf)
        for lb, ub in ((0.0, 1.0), (1.0, 1.0), (-np.inf, np.inf)):
            with pytest.raises(InvalidInputError):
                model.add_constraint("bad", {x: 1.0}, lb, ub)
        assert [row[0] for row in model.constraints] == ["upper", "lower"]

    def test_milp_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            n, m = int(rng.integers(1, 3)), int(rng.integers(2, 6))
            nets = random_nets(n, m, rng, hidden=(3, 3) if trial % 2 else (4,),
                               skip=bool(trial % 3 == 0))
            bf = brute_force_wdp([p.forward for p in nets], m)
            mi = milp_wdp(nets)
            assert mi.objective == pytest.approx(bf.objective, abs=1e-6)

    def test_pruning_changes_no_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            nets = random_nets(2, 4, rng, hidden=(4,))
            pruned = milp_wdp(nets, prune=True)
            full = milp_wdp(nets, prune=False)
            assert pruned.objective == pytest.approx(full.objective, abs=1e-6)

    def test_pruning_reduces_binaries(self):
        # a closed-form bound network has zero hidden biases, so every
        # first-layer neuron has box lower bound 0 and must be pruned
        from iterauction.uub import build_exact_uub

        reports = [
            (np.array([1, 0, 1]), 0.4),
            (np.array([0, 1, 1]), 0.7),
            (np.array([1, 1, 1]), 1.0),
        ]
        net = build_exact_uub(reports)
        pruned = encode_milp([net], prune=True)
        full = encode_milp([net], prune=False)
        assert sum(pruned.var_int) < sum(full.var_int)
        assert len(pruned.prune_log) > 0
        # and the pruned encoding still solves to the brute-force optimum
        bf = brute_force_wdp([net.forward], 3)
        assert milp_wdp([net]).objective == pytest.approx(bf.objective, abs=1e-9)

    def test_exclusion_cut_bans_exact_bundle_only(self):
        rng = np.random.default_rng(9)
        nets = random_nets(1, 3, rng)
        free = milp_wdp(nets)
        banned = milp_wdp(nets, exclusions=[[free.allocation[0]]])
        assert tuple(banned.allocation[0]) != tuple(free.allocation[0])
        assert banned.objective <= free.objective + 1e-9


class TestLpRoundTrip:
    def test_emit_parse_solve_agrees(self):
        rng = np.random.default_rng(10)
        for trial in range(4):
            nets = random_nets(2, 4, rng, skip=bool(trial % 2))
            model = encode_milp(nets)
            text= emit_lp_file(model)
            back = parse_lp_file(text)
            _, obj_a = solve_model(model)
            _, obj_b = solve_model(back)
            assert obj_b == pytest.approx(obj_a, abs=1e-9)

    def test_emission_is_deterministic(self):
        rng = np.random.default_rng(11)
        nets = random_nets(2, 3, rng)
        assert emit_lp_file(encode_milp(nets)) == emit_lp_file(encode_milp(nets))

    def test_objective_constant_survives(self):
        rng = np.random.default_rng(12)
        nets = random_nets(1, 3, rng)
        model = encode_milp(nets)
        model.objective_const = 1.25
        back = parse_lp_file(emit_lp_file(model))
        assert back.objective_const == 1.25

    def test_parse_rejects_an_equality_row(self):
        text = emit_lp_file(encode_milp(random_nets(1, 2, np.random.default_rng(14))))
        parse_lp_file(text)
        with pytest.raises(InvalidInputError):
            parse_lp_file(text.replace("Subject To\n", "Subject To\n fix: + 1.0 a_0_0 = 1.0\n"))


class TestReportedWdp:
    def test_picks_best_disjoint_combination(self):
        rs = ia.ReportSet(2, 2)
        rs.add(0, [1, 0], 0.7)
        rs.add(0, [1, 1], 0.9)
        rs.add(1, [0, 1], 0.6)
        sol = solve_reported_wdp(rs)
        # 0.7 + 0.6 beats the 0.9 full-bundle grab
        assert sol.objective == pytest.approx(1.3, abs=1e-12)
        assert sol.allocation.tolist() == [[1, 0], [0, 1]]

    def test_bidder_may_receive_nothing(self):
        rs = ia.ReportSet(2, 1)
        rs.add(0, [1], 0.9)
        rs.add(1, [1], 0.4)
        sol = solve_reported_wdp(rs)
        assert sol.allocation.tolist() == [[1], [0]]
        assert sol.objective == pytest.approx(0.9)
