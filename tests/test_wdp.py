"""Winner determination: oracles, branch and bound, MILP, LP round trip."""

import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import iterauction as ia
from iterauction import wdp
from iterauction.errors import InvalidInputError, UnsupportedSizeError
from iterauction.mechanism import vcg_payments
from iterauction.mvnn import InitHyper, MvnnParams, init_params
from iterauction.values import KINDS, _random_model
from iterauction.wdp import (
    SolveBudget,
    box_bounds,
    brute_force_wdp,
    emit_lp_file,
    encode_milp,
    milp_wdp,
    parse_lp_file,
    solve_model,
    solve_reported_wdp,
    solve_wdp,
)

from _oracles import check_encoding_at, lemma_assignment
from _reference_wdp import (
    reference_brute_force_wdp,
    reference_reported_wdp,
    reference_vcg_payments,
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


# The former 65,536-row block and today's cache-sized one.  Sizes keep
# n <= 4, m <= 12 and at most 2^18 assignments: up to four old blocks.
_BLOCKS = (1 << 16, wdp.BRUTE_FORCE_CHUNK)
_MAX_M = {0: 12, 1: 12, 2: 11, 3: 9, 4: 7}


def _at_each_block(solve):
    out = []
    for block in _BLOCKS:
        with mock.patch.object(wdp, "BRUTE_FORCE_CHUNK", block):
            out.append(solve())
    return out


def _optimum(allocation, objective):
    return np.asarray(allocation).tolist(), np.float64(objective).tobytes()


@st.composite
def brute_force_sizes(draw, min_n=1):
    n = draw(st.integers(min_n, 4))
    return n, draw(st.integers(1, _MAX_M[n]))


class TestBruteForceBlocks:
    """The optimum is bit-identical whatever the block size."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(brute_force_sizes(), st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
           st.integers(0, 2**31 - 1))
    @example((2, 11), ["additive", "pairwise-synergy"], 1)  # partial final blocks of either size
    @example((3, 9), ["coverage"], 2)  # four whole 65,536-row blocks
    def test_instance_optimum(self, size, kinds, seed):
        n, m = size
        cfg = ia.GeneratorConfig(n=n, m=m, bidder_kinds=tuple(kinds))
        old, new = _at_each_block(lambda: ia.generate_instance(cfg, seed))
        assert (_optimum(old.optimal_allocation, old.optimal_welfare)
                == _optimum(new.optimal_allocation, new.optimal_welfare))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(brute_force_sizes(), st.sampled_from(["values", "networks"]), st.booleans(),
           st.integers(0, 2**31 - 1))
    @example((2, 11), "values", True, 3)
    @example((4, 7), "networks", True, 4)
    @example((3, 9), "networks", False, 5)
    def test_brute_force_optimum(self, size, source, exclude, seed):
        n, m = size
        rng = np.random.default_rng(seed)
        if source == "values":
            cfg = ia.GeneratorConfig(n=n, m=m)
            evs = [_random_model(KINDS[i % len(KINDS)], m, cfg, rng).value_batch for i in range(n)]
        else:
            evs = [p.forward for p in random_nets(n, m, rng)]
        excl = None
        if exclude:  # the full bundle and a few random non-empty ones, per bidder or not
            excl = [None if rng.random() < 0.3 else
                    [np.ones(m, dtype=np.int64), *(b for b in rng.integers(0, 2, (3, m)) if b.any())]
                    for _ in range(n)]
        old, new = _at_each_block(lambda: brute_force_wdp(evs, m, exclusions=excl))
        assert _optimum(old.allocation, old.objective) == _optimum(new.allocation, new.objective)


def _solution_bits(solve):
    """A solve's allocation bytes, objective bits and node count, or its
    error message."""
    try:
        sol = solve()
    except InvalidInputError as e:
        return str(e)
    a = sol.allocation
    return a.shape, a.dtype.str, a.tobytes(), np.float64(sol.objective).tobytes(), sol.nodes


class TestBruteForceReference:
    """Valuing each bidder once per bundle gives the row-by-row enumeration's
    optimum, bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(brute_force_sizes(min_n=0),
           st.lists(st.sampled_from([*KINDS, "net", "skip-net"]), min_size=1, max_size=4),
           st.sampled_from(["none", "random", "every bundle"]), st.integers(0, 2**31 - 1))
    @example((2, 11), ["additive", "net"], "random", 1)  # a partial final block
    @example((1, 18), ["pairwise-synergy"], "random", 2)
    @example((1, 18), ["coverage"], "none", 3)
    @example((3, 9), ["skip-net", "coverage", "net"], "random", 4)
    @example((0, 4), ["net"], "every bundle", 5)  # no bidder, nothing to exclude
    def test_matches_row_by_row_enumeration(self, size, sources, exclude, seed):
        n, m = size
        if exclude == "every bundle":
            m = min(m, 6)  # the reference tests each excluded bundle on every row
        rng = np.random.default_rng(seed)
        cfg = ia.GeneratorConfig(n=max(n, 1), m=m)
        evs = []
        for i in range(n):
            source = sources[i % len(sources)]
            if source in KINDS:
                evs.append(_random_model(source, m, cfg, rng).value_batch)
            else:
                evs.append(random_nets(1, m, rng, skip=source == "skip-net")[0].forward)
        excl = None
        if exclude == "random":  # the full bundle and a few random ones, per bidder or not
            excl = [None if rng.random() < 0.3 else
                    [np.ones(m, dtype=np.int64), *rng.integers(0, 2, (3, m))] for _ in range(n)]
        elif exclude == "every bundle":  # the first bidder gets nothing, not even the empty bundle
            excl = [list(itertools.product((0, 1), repeat=m))] + [None] * (n - 1) if n else []
        got = _solution_bits(lambda: brute_force_wdp(evs, m, exclusions=excl))
        assert got == _solution_bits(lambda: reference_brute_force_wdp(evs, m, exclusions=excl))
        if exclude == "every bundle" and n:
            assert got == "exclusions rule out every assignment"


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

    def test_one_batch_per_internal_node_holds_the_pair_rows(self, monkeypatch):
        # per bidder, one call per internal node on the rows S_i | U, then
        # S_i | U - {k} for each undecided k, then S_i | U - {k, l} for each
        # undecided pair; no call at a leaf and no ranking call
        n, m = 3, 6
        nets = random_nets(n, m, np.random.default_rng(5), hidden=(10,))
        calls = []

        def counted(i, net):
            def ev(X):
                calls.append((i, np.array(X)))
                return net.forward(X)
            return ev

        leaves = count_leaves(monkeypatch)
        sol = solve_wdp([counted(i, p) for i, p in enumerate(nets)], m,
                        budget=SolveBudget(relative_gap=0.0))
        assert [i for i, _ in calls] == list(range(n)) * (len(calls) // n)
        assert len(calls) // n == sol.nodes - len(leaves)
        assert calls[0][1].shape == (1 + m + m * (m - 1) // 2, m)  # the root's rows
        for node in range(len(calls) // n):
            removed = None
            for _, X in calls[node * n : (node + 1) * n]:
                undecided, drops = node_layout(X)
                assert removed is None or (undecided, drops) == removed
                removed = (undecided, drops)
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

    @pytest.mark.parametrize("bad", [
        {"relative_gap": float("nan")},  # would never prune, and report a NaN gap
        {"relative_gap": -0.1},
        {"time_limit_secs": float("nan")},  # would never time out
        {"time_limit_secs": 0.0},
    ])
    def test_budget_rejects_nan_and_out_of_range_values(self, bad):
        with pytest.raises(InvalidInputError):
            SolveBudget(**bad)

    def test_budget_accepts_infinite_values(self):
        budget = SolveBudget(relative_gap=math.inf, time_limit_secs=math.inf)
        # the first leaf's search visits what gap 0 visits: nothing pruned beats it
        stacked = MvnnParams.stack(random_nets(2, 3, np.random.default_rng(0)))
        sol, exact = solve_wdp(stacked, 3, budget=budget), solve_wdp(stacked, 3)
        assert (sol.status, sol.proven_gap) == ("optimal", 0.0)
        assert (sol.nodes, sol.objective) == (exact.nodes, exact.objective)
        assert sol.unconstrained is None  # proven only by a gap-0 search
        # here the gap rule prunes a child whose bound beats the first leaf
        stacked = MvnnParams.stack(random_nets(3, 6, np.random.default_rng(3)))
        sol = solve_wdp(stacked, 6, budget=budget)
        assert (sol.status, sol.proven_gap) == ("gap_limit", math.inf)
        assert sol.nodes < solve_wdp(stacked, 6).nodes

    def test_no_bidders_leave_every_item_unassigned(self):
        # a positive gap prunes nothing that could beat welfare 0: proven too
        for sol in (solve_wdp([], 3), solve_wdp([], 3, budget=SolveBudget(relative_gap=0.005)),
                    brute_force_wdp([], 3)):
            assert sol.allocation.shape == (0, 3) and sol.objective == 0.0
            assert (sol.status, sol.proven_gap) == ("optimal", 0.0)

    def test_no_items_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one item"):
            solve_wdp([lambda X: np.zeros(len(X))], 0)


def same_solution(a, b) -> bool:
    return (a.allocation.tolist() == b.allocation.tolist() and a.objective == b.objective
            and (a.status, a.proven_gap, a.nodes) == (b.status, b.proven_gap, b.nodes))


def count_leaves(monkeypatch) -> list:
    """Patch the incumbent test, which B&B runs once per leaf when no
    exclusion applies; the returned list grows by one each."""
    leaves, better = [], wdp._better

    def counted(*args):
        leaves.append(None)
        return better(*args)

    monkeypatch.setattr(wdp, "_better", counted)
    return leaves


def node_layout(X: np.ndarray):
    """Check one bidder's rows of a node batch against the pair-row layout
    and return its undecided items and the items each row removes."""
    X = np.asarray(X)
    drops = [tuple(np.flatnonzero(X[0] - row)) for row in X]
    assert ((X[0] - X) >= 0).all()  # every row is inside S_i | U
    undecided = [k for (k,) in drops[1 : 1 + sum(len(d) == 1 for d in drops)]]
    u = len(undecided)
    assert len(X) == 1 + u + u * (u - 1) // 2
    assert drops == [()] + [(k,) for k in undecided] + list(itertools.combinations(undecided, 2))
    return undecided, drops


class TestStackedEvaluation:
    def test_one_forward_call_per_internal_node(self, monkeypatch):
        # one (n, 1 + u + u(u-1)/2, m) call per internal node, u undecided
        # items; none at a leaf and no ranking call
        n, m = 3, 6
        nets = random_nets(n, m, np.random.default_rng(5), hidden=(10,))
        ref = solve_wdp([p.forward for p in nets], m, budget=SolveBudget(relative_gap=0.0))
        batches = []
        forward = MvnnParams.forward

        def counted(self, X):
            batches.append(np.array(X))
            return forward(self, X)

        monkeypatch.setattr(MvnnParams, "forward", counted)
        leaves = count_leaves(monkeypatch)
        sol = solve_wdp(MvnnParams.stack(nets), m, budget=SolveBudget(relative_gap=0.0))
        assert len(batches) == sol.nodes - len(leaves)
        assert batches[0].shape == (n, 1 + m + m * (m - 1) // 2, m)  # the root's rows
        for X in batches:
            assert X.shape[0] == n
            assert len({repr(node_layout(rows)) for rows in X}) == 1  # one layout for every bidder
        assert same_solution(sol, ref)
        assert sol.allocation.tolist() == brute_force_wdp([p.forward for p in nets], m).allocation.tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_stack_and_list_give_the_same_solution(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        nets = random_nets(n, m, rng, hidden=(10, 10), skip=bool(seed % 2))
        first = solve_wdp([p.forward for p in nets], m, budget=SolveBudget(relative_gap=0.0))
        excl = [{(0,) * m, tuple(first.allocation[0])}] + [None] * (n - 1)
        for budget in (SolveBudget(relative_gap=0.0), SolveBudget(relative_gap=0.05)):
            stacked = solve_wdp(MvnnParams.stack(nets), m, budget=budget, exclusions=excl)
            listed = solve_wdp([p.forward for p in nets], m, budget=budget, exclusions=excl)
            assert same_solution(stacked, listed)

    @pytest.mark.parametrize("k", [7, 40])
    def test_stack_and_list_stop_alike_on_a_time_limit(self, monkeypatch, k):
        n, m = 3, 6
        nets = random_nets(n, m, np.random.default_rng(6), hidden=(10,))
        excl = [{(0,) * m, (1,) * m, (1, 1, 0, 0, 1, 1)}, None, None]

        def solve(evaluators):
            ticks = itertools.count()
            monkeypatch.setattr(wdp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
            return solve_wdp(evaluators, m, exclusions=excl,
                             budget=SolveBudget(relative_gap=0.0, time_limit_secs=k + 0.5))

        stacked = solve(MvnnParams.stack(nets))
        assert stacked.status == "time_limit"
        assert same_solution(stacked, solve([p.forward for p in nets]))


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
        if len({p.skip is None for p in nets}) > 1:  # skip is drawn per net
            with pytest.raises(InvalidInputError, match="architecture"):
                MvnnParams.stack(nets)
        else:
            stacked = solve_wdp(MvnnParams.stack(nets), m, budget=SolveBudget(relative_gap=0.0),
                                exclusions=excl)
            assert same_solution(stacked, nb)

    @pytest.mark.parametrize("solve", [
        lambda nets, m, excl: brute_force_wdp([p.forward for p in nets], m, exclusions=excl),
        lambda nets, m, excl: solve_wdp([p.forward for p in nets], m, exclusions=excl),
        lambda nets, m, excl: milp_wdp(nets, exclusions=excl),
    ], ids=["brute-force", "branch-and-bound", "milp"])
    @pytest.mark.parametrize("bundle", [[0, 1, 0, 0], [0, 1], [0, 0.5, 1]],
                             ids=["too-long", "too-short", "fractional"])
    def test_each_rejects_a_malformed_excluded_bundle(self, solve, bundle):
        # before, brute force and B&B ignored such a bundle, while the MILP
        # cut an over-long one to its first m entries and failed on a short one
        nets = random_nets(2, 3, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match="bundle"):
            solve(nets, 3, [[bundle], None])

    @pytest.mark.parametrize("solve", [
        lambda nets, m, excl: brute_force_wdp([p.forward for p in nets], m, exclusions=excl),
        lambda nets, m, excl: solve_wdp([p.forward for p in nets], m, exclusions=excl),
        lambda nets, m, excl: milp_wdp(nets, exclusions=excl),
    ], ids=["brute-force", "branch-and-bound", "milp"])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_each_rejects_an_exclusions_list_of_the_wrong_length(self, solve, count):
        # before, with three lists for two nets the MILP cut bidder 0's
        # neuron columns with the third, while brute force and B&B ignored
        # it; with one list, bidder 1 went unconstrained
        nets = random_nets(2, 3, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match="exclusions hold"):
            solve(nets, 3, [[[1, 1, 1]]] * count)


@st.composite
def tied_wdp_instances(draw):
    """Economies of one architecture whose small cutoffs saturate most
    neurons, so that many bundles and allocations tie."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 7))
    hidden = draw(st.sampled_from([(3,), (6,), (4, 4)]))
    cutoffs = draw(st.sampled_from([(0.01, 0.05), (0.02, 0.3)]))
    skip = draw(st.booleans())
    nets = [init_params([m, *hidden, 1], InitHyper(), cutoffs, seed=draw(st.integers(0, 10**6)), skip=skip)
            for _ in range(n)]
    bundles = st.tuples(*[st.integers(0, 1)] * m)
    exclusions = [
        {(0,) * m} | draw(st.sets(bundles, max_size=4)) if draw(st.booleans()) else None
        for _ in range(n)
    ]
    return nets, m, exclusions


class TestAgainstBruteForceOnTies:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tied_wdp_instances(), st.sampled_from([0.01, 0.1, 0.5]), st.integers(1, 40))
    def test_exact_gap_and_time_limited_solves(self, inst, gap, k):
        nets, m, excl = inst
        listed = [p.forward for p in nets]
        try:
            best = brute_force_wdp(listed, m, exclusions=excl)
        except InvalidInputError:  # the exclusions leave no assignment
            return
        for evaluators in (MvnnParams.stack(nets), listed):
            exact = solve_wdp(evaluators, m, budget=SolveBudget(relative_gap=0.0), exclusions=excl)
            assert exact.allocation.tolist() == best.allocation.tolist()
            assert exact.objective == pytest.approx(best.objective, abs=1e-9)
            approx = solve_wdp(evaluators, m, budget=SolveBudget(relative_gap=gap), exclusions=excl)
            assert approx.objective >= best.objective / (1 + gap)
            if approx.status == "optimal":  # nothing pruned could beat the incumbent
                assert approx.proven_gap == 0.0
                assert approx.objective == pytest.approx(best.objective, abs=1e-9)
            else:
                assert (approx.status, approx.proven_gap) == ("gap_limit", gap)
            # one tick per clock read, as in test_time_limit_after_k_nodes
            ticks = itertools.count()
            with mock.patch.object(wdp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks)))):
                limited = solve_wdp(evaluators, m, exclusions=excl,
                                    budget=SolveBudget(relative_gap=0.0, time_limit_secs=k + 0.5))
            assert limited.status in ("optimal", "time_limit")
            assert limited.objective * (1 + limited.proven_gap) >= best.objective - 1e-9
            assert (limited.allocation.sum(axis=0) <= 1).all()
            for i, bundles in enumerate(excl):
                assert bundles is None or tuple(limited.allocation[i]) not in bundles


@st.composite
def economies(draw):
    """A stack of n <= 3 nets over m <= 6 items: random nets, nets whose
    output weights are all zero (every allocation ties), or exact bounds
    with tied reported values (step nets with zero-height steps)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "zero-output", "exact-uub"]))
    seeds = [draw(st.integers(0, 10**6)) for _ in range(n)]
    if kind == "exact-uub":
        full = (1,) * m
        bundles = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m).filter(lambda b: 0 < sum(b) < m),
                                max_size=3, unique=True))
        steps = [0.25, 0.5, 1.0]
        nets = []
        for seed in seeds:
            rng = np.random.default_rng(seed)  # one report set per bidder, one width for all
            nets.append(ia.build_exact_uub(
                [(np.array(full), 1.0)] + [(np.array(b), float(rng.choice(steps))) for b in bundles]))
    else:
        nets = [init_params([m, 4, 1], InitHyper(), (0.1, 1.0), seed=seed) for seed in seeds]
        if kind == "zero-output":
            for net in nets:
                net.weights[-1] = np.zeros_like(net.weights[-1])
    return MvnnParams.stack(nets), nets, m


def _draw_exclusions(draw, n, m, queried):
    """The empty bundle and a few random ones for bidder `queried` only."""
    bundles = st.tuples(*[st.integers(0, 1)] * m)
    out = [None] * n
    out[queried] = {(0,) * m} | draw(st.sets(bundles, max_size=4))
    return out


class TestUnconstrainedOptimum:
    """A gap-0 search proves the optimum with no exclusions as a by-product,
    and a later solve of the same nets may answer from it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(economies(), st.booleans(), st.data())
    def test_by_product_and_reuse(self, economy, listed, data):
        stacked, nets, m = economy
        n = len(nets)
        evaluators = [p.forward for p in nets] if listed else stacked
        exact = SolveBudget(relative_gap=0.0)
        free = solve_wdp(evaluators, m, budget=exact)
        assert _optimum(free.unconstrained.allocation, free.unconstrained.objective) == \
            _optimum(free.allocation, free.objective)

        first = data.draw(st.integers(0, n - 1))
        excl = _draw_exclusions(data.draw, n, m, first)
        if len(excl[first]) == 2**m:
            return  # every bundle of the queried bidder is excluded
        sol = solve_wdp(evaluators, m, budget=exact, exclusions=excl)
        prior = sol.unconstrained
        assert _optimum(prior.allocation, prior.objective) == _optimum(free.allocation, free.objective)

        queried = data.draw(st.integers(0, n - 1))
        later = _draw_exclusions(data.draw, n, m, queried)
        if data.draw(st.booleans()):  # force the prior's bundle out
            later[queried].add(tuple(int(v) for v in prior.allocation[queried]))
        if len(later[queried]) == 2**m:
            return
        fresh = solve_wdp(evaluators, m, budget=exact, exclusions=later)
        reused = solve_wdp(evaluators, m, budget=exact, exclusions=later, prior=prior)
        if tuple(prior.allocation[queried]) in later[queried]:
            assert reused.nodes > 0
            assert same_solution(reused, fresh)
        else:
            assert reused.nodes == 0 and reused.status == "optimal" and reused.proven_gap == 0.0
            assert _optimum(reused.allocation, reused.objective) == _optimum(fresh.allocation, fresh.objective)
            assert reused.unconstrained is prior

    def test_no_by_product_below_a_proof_at_gap_zero(self, monkeypatch):
        nets = random_nets(3, 6, np.random.default_rng(6), hidden=(10,))
        stacked = MvnnParams.stack(nets)
        assert solve_wdp(stacked, 6, budget=SolveBudget(relative_gap=0.05)).unconstrained is None
        ticks = itertools.count()
        monkeypatch.setattr(wdp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
        limited = solve_wdp(stacked, 6, budget=SolveBudget(relative_gap=0.0, time_limit_secs=7.5))
        assert limited.status == "time_limit" and limited.unconstrained is None

    def test_prior_is_ignored_at_a_positive_gap(self):
        nets = random_nets(3, 6, np.random.default_rng(7), hidden=(10,))
        stacked = MvnnParams.stack(nets)
        prior = solve_wdp(stacked, 6, budget=SolveBudget(relative_gap=0.0)).unconstrained
        budget = SolveBudget(relative_gap=0.05)
        with_prior = solve_wdp(stacked, 6, budget=budget, prior=prior)
        assert with_prior.nodes > 0
        assert same_solution(with_prior, solve_wdp(stacked, 6, budget=budget))

    def test_prior_must_match_the_evaluators(self):
        nets = random_nets(2, 4, np.random.default_rng(8))
        prior = solve_wdp(MvnnParams.stack(nets), 4, budget=SolveBudget(relative_gap=0.0)).unconstrained
        with pytest.raises(InvalidInputError, match="prior"):
            solve_wdp(MvnnParams.stack(nets[:1]), 4, budget=SolveBudget(relative_gap=0.0), prior=prior)


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

    def test_unpruned_encoding_pins_an_always_off_neuron(self):
        # o = 0.01 (x1 + x2) - 0.05 < 0 on every bundle: unpruned, the
        # neuron's z must be pinned to 0, not given the empty box [0, u]
        off = MvnnParams(weights=[np.array([[0.01, 0.01]]), np.array([[1.0]])],
                         biases=[np.array([-0.05])], cutoffs=[np.array([0.5])])
        other = random_nets(1, 2, np.random.default_rng(8), hidden=(3,))[0]
        for x in itertools.product([0, 1], repeat=2):
            assert check_encoding_at(off, np.array(x, dtype=np.float64))
        for nets in ([off], [off, other], [other, off]):
            bf = brute_force_wdp([p.forward for p in nets], 2)
            for prune in (False, True):
                assert milp_wdp(nets, prune=prune).objective == pytest.approx(bf.objective, abs=1e-7)

    def test_unpruned_milp_matches_brute_force_on_narrow_nets(self):
        # width-1 layers are often always off; the unpruned model stays feasible
        rng = np.random.default_rng(77)
        pinned = 0
        for _ in range(20):
            m = int(rng.integers(2, 6))
            nets = random_nets(2, m, rng, hidden=(1, 1))
            pinned += sum(float(hi.max()) < 0 for net in nets for _, hi in box_bounds(net))
            bf = brute_force_wdp([p.forward for p in nets], m)
            assert milp_wdp(nets, prune=False).objective == pytest.approx(bf.objective, abs=1e-7)
            for x in itertools.product([0, 1], repeat=m):
                assert check_encoding_at(nets[0], np.array(x, dtype=np.float64))
        assert pinned > 0

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

    def test_status_reports_the_gap_highs_proved(self, monkeypatch):
        import scipy.optimize

        nets = random_nets(2, 4, np.random.default_rng(12))
        exact = milp_wdp(nets)
        assert (exact.status, exact.proven_gap) == ("optimal", 0.0)
        real_milp = scipy.optimize.milp

        def stopped_at_gap(*args, **kwargs):
            res = real_milp(*args, **kwargs)
            res.mip_gap = 9.5e-5
            return res

        monkeypatch.setattr(scipy.optimize, "milp", stopped_at_gap)
        sol = milp_wdp(nets)
        assert (sol.status, sol.proven_gap) == ("gap_limit", 9.5e-5)
        assert (sol.allocation == exact.allocation).all() and sol.objective == exact.objective


    def test_objective_adds_the_nets_values_left_to_right(self, monkeypatch):
        # three nets worth 1e16, 1 and 1 on their items: a left fold loses
        # each 1, where the builtin sum of floats (compensated from Python
        # 3.12 on) would give 1e16 + 2
        nets = [MvnnParams(weights=[np.diag([1e16, 1.0, 1.0])[[i]]], biases=[], cutoffs=[])
                for i in range(3)]
        values = [net.forward(np.eye(3)[i]) for i, net in enumerate(nets)]
        assert values == [1e16, 1.0, 1.0] and math.fsum(values) != 1e16

        def one_item_each(model):
            return np.concatenate([np.eye(3).ravel(), np.zeros(len(model.var_names) - 9)]), 0.0, 0.0

        monkeypatch.setattr(wdp, "solve_model", one_item_each)
        sol = milp_wdp(nets)
        assert sol.allocation.tolist() == np.eye(3, dtype=int).tolist()
        assert sol.objective == 1e16


class TestLpRoundTrip:
    def test_emit_parse_solve_agrees(self):
        rng = np.random.default_rng(10)
        for trial in range(4):
            nets = random_nets(2, 4, rng, skip=bool(trial % 2))
            model = encode_milp(nets)
            text= emit_lp_file(model)
            back = parse_lp_file(text)
            _, obj_a, _ = solve_model(model)
            _, obj_b, _ = solve_model(back)
            assert obj_b == pytest.approx(obj_a, abs=1e-9)

    def test_emission_is_deterministic(self):
        rng = np.random.default_rng(11)
        nets = random_nets(2, 3, rng)
        assert emit_lp_file(encode_milp(nets)) == emit_lp_file(encode_milp(nets))

    def test_objective_terms_are_added_left_to_right(self):
        # the builtin sum of floats is compensated from Python 3.12 on and
        # would give 1e16 + 2 here
        model = wdp.WdpModel()
        cols = [model.add_var(f"x{k}", 1.0, 1.0, integer=True) for k in range(3)]
        model.add_constraint("c", {cols[0]: 1.0}, -np.inf, 1.0)
        model.objective = dict(zip(cols, [1e16, 1.0, 1.0]))
        assert math.fsum(model.objective.values()) != 1e16
        assert solve_model(model)[1] == 1e16

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

    @pytest.mark.parametrize("text", [
        "Minimize\n obj: + 1.0 x\nBounds\n 0.0 <= x <= 1.0\nEnd\n",
        "Maximize\n obj: + 1.0 x\nSubject To\n c: + 1.0 <= 2.0\nEnd\n",
        "Maximize\n obj: + 1.0 x\nBounds\n x <= 1.0\nEnd\n",
        "Maximize\n + 1.0 x\nEnd\n",
    ], ids=["minimize", "row-without-variable", "one-sided-bound", "objective-without-colon"])
    def test_parse_rejects_what_emit_never_writes(self, text):
        with pytest.raises(InvalidInputError, match="LP line"):
            parse_lp_file(text)


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


def _reported(n: int, m: int, reports) -> ia.ReportSet:
    """A report set from per-bidder lists of (bundle code, value), item j
    being bit j of the code."""
    rs = ia.ReportSet(n, m)
    for i, pairs in enumerate(reports):
        for code, value in pairs:
            rs.add(i, [code >> j & 1 for j in range(m)], value)
    return rs


@st.composite
def report_sets(draw):
    """n <= 4 bidders over m <= 7 items, each with up to six distinct
    reports, the empty bundle among them at 0 or none at all; values exact
    ties (small integers), near ties (integers jittered within 2 tie
    tolerances) or free."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["exact", "near", "free"]))
    value = {"exact": st.integers(0, 3).map(float),
             "near": st.tuples(st.integers(1, 3), st.floats(-2.0, 2.0)).map(
                 lambda t: t[0] + t[1] * wdp.WELFARE_TIE_TOL),
             "free": st.floats(0.0, 1.0)}[kind]
    reports = [[(code, 0.0 if code == 0 else draw(value))
                for code in draw(st.lists(st.integers(0, 2**m - 1), max_size=6, unique=True))]
               for _ in range(n)]
    return _reported(n, m, reports)


def _assert_same_as_reference(rs):
    sol, ref = solve_reported_wdp(rs), reference_reported_wdp(rs)
    assert sol.allocation.dtype == ref.allocation.dtype and sol.allocation.shape == ref.allocation.shape
    assert sol.allocation.tobytes() == ref.allocation.tobytes()
    assert type(sol.objective) is type(ref.objective)
    assert np.float64(sol.objective).tobytes() == np.float64(ref.objective).tobytes()
    assert sol.nodes <= ref.nodes
    alloc, pay = vcg_payments(rs)
    ref_alloc, ref_pay = reference_vcg_payments(rs)
    assert alloc.tobytes() == ref_alloc.tobytes() and pay.tobytes() == ref_pay.tobytes()
    return sol, ref


class TestReportedWdpAgainstReference:
    """The bounded search returns the exhaustive search's allocation and
    objective bit for bit, and VCG the same payments."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(report_sets())
    def test_random_report_sets(self, rs):
        _assert_same_as_reference(rs)

    @pytest.mark.parametrize("n, m, per_bidder, density", [(5, 12, 8, 0.3), (3, 70, 10, 0.1)])
    def test_larger_report_sets(self, n, m, per_bidder, density):
        # m = 70: bit codes beyond 64 bits
        rng = np.random.default_rng(n * m)
        rs = ia.ReportSet(n, m)
        for i in range(n):
            while rs.count(i) < per_bidder:
                b = (rng.random(m) < density).astype(np.int64)
                if b.any() and rs.value_of(i, b) is None:
                    rs.add(i, b, float(rng.random()) * b.sum())
        sol, ref = _assert_same_as_reference(rs)
        assert sol.nodes < ref.nodes

    def test_a_tie_chain_far_below_its_peak(self, monkeypatch):
        # bidder 2 reports items 0..11 in turn, each worth 0.9 tolerances
        # less than the one before.  Under each choice of bidders 0 and 1
        # its reports tie with the incumbent one after another and are
        # lexicographically smaller, so the incumbent keeps falling: it
        # ends 8.1 tolerances below its peak, more than the (n + 2)
        # tolerances a margin-and-guard design would allow.  Cut-off nodes
        # still hold no leaf that _better would take, and the answer is
        # the reference's
        tol = wdp.WELFARE_TIE_TOL
        chain = [(1 << j, 1.0 - 0.9 * j * tol) for j in range(12)]
        rs = _reported(3, 12, [[(1 << 11, 1e-3), (0b11, 0.25)], [(2**12 - 1, 0.5)], chain])
        seen, better = [], wdp._better

        def recording(w, alloc_flat, best_w, best_flat):
            took = better(w, alloc_flat, best_w, best_flat)
            if took:
                seen.append(w)
            return took

        monkeypatch.setattr(wdp, "_better", recording)
        sol = solve_reported_wdp(rs)
        monkeypatch.undo()
        assert max(seen) - seen[-1] > (rs.n + 2) * tol
        assert seen[-1] == sol.objective
        sol, ref = _assert_same_as_reference(rs)
        assert sol.nodes < ref.nodes
