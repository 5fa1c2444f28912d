"""Exact upper bound, uncertainty loss, and upper-bound training."""

import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import iterauction as ia
from iterauction.errors import InvalidInputError
from iterauction.mechanism import next_query
from iterauction.mvnn import InitHyper, MvnnParams, init_params
from iterauction.training import (
    TrainHyper,
    _epoch_draws,
    _layout_of,
    _mean_slopes,
    _net,
    _train_loop,
    train_mean,
)
from iterauction.uub import (
    NomuHyper,
    _frozen_outputs,
    _loss_slopes,
    _loss_values,
    build_exact_uub,
    elu,
    g_gate,
    max_monotone_extension,
    nomu_loss,
    nomu_loss_terms,
    train_uub,
)

from _gradcheck import (
    SLOPE_ROWS,
    nomu_loss_and_grads,
    preactivations_kink_free,
    residuals_kink_free,
    worst_relative_error,
)
from _reference_training import reference_loss_terms


def random_reports(m, rng, extra=6):
    """Reports drawn from a random monotone normalized function, so they
    are consistent with at least one admissible valuation."""
    w = rng.uniform(0.1, 1.0, m)
    gamma = float(rng.uniform(0.4, 1.0))

    def value(b):
        return float((w @ b / w.sum()) ** gamma)

    reports = [(np.ones(m, dtype=np.int64), 1.0)]
    seen = {tuple(np.ones(m, dtype=int))}
    for _ in range(extra):
        b = rng.integers(0, 2, m)
        if b.sum() == 0 or tuple(b) in seen:
            continue
        seen.add(tuple(b))
        reports.append((b, value(b)))
    return reports


class TestExactUub:
    def test_matches_lattice_oracle_and_interpolates(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            reports = random_reports(m, rng)
            net = build_exact_uub(reports)
            for x in itertools.product([0, 1], repeat=m):
                xa = np.array(x, dtype=np.float64)
                assert abs(net.forward(xa) - max_monotone_extension(reports, x)) <= 1e-12
            for b, v in reports:
                assert abs(net.forward(b.astype(float)) - v) <= 1e-12

    def test_equal_values_keep_all_first_layer_rows(self):
        # two incomparable bundles sharing a value: dropping either report
        # would change the bound, so the construction must keep both rows
        reports = [
            (np.array([1, 0]), 0.5),
            (np.array([0, 1]), 0.5),
            (np.array([1, 1]), 1.0),
        ]
        net = build_exact_uub(reports)
        assert net.forward(np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)
        assert net.forward(np.array([0.0, 1.0])) == pytest.approx(0.5, abs=1e-12)

    def test_zero_height_steps_carry_output_weight_zero(self):
        reports = [
            (np.array([1, 0, 0]), 0.5),
            (np.array([0, 1, 0]), 0.5),
            (np.array([1, 1, 1]), 1.0),
        ]
        net = build_exact_uub(reports)
        # one first-layer row and one step per report; the steps go
        # 0 -> 0.5, 0.5 -> 0.5 (zero height) and 0.5 -> 1.0
        assert net.layer_dims == [3, 3, 3, 1]
        assert net.weights[2].tolist() == [[0.5, 0.0, 0.5]]
        for x in itertools.product([0, 1], repeat=3):
            assert net.forward(np.array(x, dtype=float)) == max_monotone_extension(reports, x)

    def test_all_zero_reports_give_the_zero_network(self):
        reports = [(np.array([1, 1]), 0.0), (np.array([0, 1]), 0.0)]
        net = build_exact_uub(reports)
        assert net.layer_dims == [2, 2, 2, 1]
        assert not net.weights[2].any()
        assert (net.forward(np.array([[0.0, 1.0], [1.0, 1.0], [0.3, 0.9]])) == 0.0).all()

    def test_requires_full_bundle(self):
        with pytest.raises(InvalidInputError):
            build_exact_uub([(np.array([1, 0]), 0.5)])

    def test_network_is_valid_mvnn(self):
        rng = np.random.default_rng(5)
        net = build_exact_uub(random_reports(4, rng))
        net.validate()


# a dyadic grid with 0, so reported values tie often and every sum is exact
TIED_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def tied_report_sets(draw):
    """Two bidders' report sets over m <= 6 items with values from a small
    grid: each has the full bundle and the same number k of other nonempty
    bundles, and may list the empty bundle at 0 too."""
    m = draw(st.integers(2, 6))
    others = [b for b in itertools.product([0, 1], repeat=m) if 0 < sum(b) < m]
    k = draw(st.integers(0, min(6, len(others) - 1)))
    sets = []
    for _ in range(2):
        bundles = [(1,) * m, *draw(st.permutations(others))[:k]]
        reports = [(np.array(b), draw(TIED_VALUES)) for b in bundles]
        if draw(st.booleans()):
            reports.append((np.zeros(m, dtype=int), 0.0))
        sets.append(reports)
    return m, sets


class TestTiedReports:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tied_report_sets())
    def test_exact_bound_keeps_every_step(self, inst):
        m, sets = inst
        nets = [build_exact_uub(reports) for reports in sets]
        for reports, net in zip(sets, nets):
            width = sum(1 for b, _ in reports if b.any())
            assert net.layer_dims == [m, width, width, 1]
            # the steps in the documented order, by a Python sort as the
            # reference: by value, then the larger bundle, then by entries
            steps = sorted((v, -b.sum(), tuple(b)) for b, v in reports if b.any())
            assert net.weights[0].tolist() == [[1.0] * m] + [[1.0 - e for e in b]
                                                             for _, _, b in steps[:-1]]
            assert net.weights[2][0].tolist() == np.diff([0.0] + [v for v, _, _ in steps]).tolist()
            for x in itertools.product([0, 1], repeat=m):
                assert net.forward(np.array(x, dtype=float)) == max_monotone_extension(reports, x)

        # equal report counts give one architecture, so the economy stacks
        assert MvnnParams.stack(nets).layer_dims == nets[0].layer_dims
        excluded = {(0,) * m} | {tuple(b) for b, _ in sets[0]}
        budget = ia.SolveBudget(relative_gap=0.0)
        solves = []
        query = next_query(0, [0, 1], nets, excluded, budget, solves)
        ref = ia.solve_wdp([net.forward for net in nets], m, budget, [excluded, None])
        assert query.tolist() == ref.allocation[0].tolist()
        assert solves[0].allocation.tolist() == ref.allocation.tolist()
        assert solves[0].objective == ref.objective


class TestNomuHyper:
    @pytest.mark.parametrize("bad", [
        {"mu_sqr": float("nan")},
        {"mu_exp": float("nan")},  # would leave train_uub at its starting network
        {"c_exp": float("nan")},
        {"pi_uub": float("nan")},
        {"pi_mean": float("nan")},
        {"c_exp": float("inf")},
        {"mu_exp": -0.1},
        {"n_art": 2.5},
        {"n_art": True},
        {"n_art": 0},
    ])
    def test_rejects_values_that_break_training(self, bad):
        with pytest.raises(InvalidInputError):
            NomuHyper(**bad)

    def test_accepts_the_boundaries(self):
        h = NomuHyper(mu_sqr=0.0, mu_exp=0.0, c_exp=0.0, pi_uub=0.0, pi_mean=0.0,
                      n_art=np.int64(1))
        assert h.n_art == 1


class TestNomuLoss:
    def _setup(self, seed, m=5):
        rng = np.random.default_rng(seed)
        reports = random_reports(m, rng, extra=4)
        exact = build_exact_uub(reports)
        mean = init_params([m, 4, 1], InitHyper(), (0.3, 1.0), seed=seed + 100)
        X = np.stack([b.astype(float) for b, _ in reports])
        y = np.array([v for _, v in reports])
        X_art = rng.random((16, m))
        return reports, exact, mean, X, y, X_art, rng

    def test_terms_sum_to_loss(self):
        _, exact, mean, X, y, X_art, _ = self._setup(0)
        p = init_params([5, 4, 1], InitHyper(), (0.3, 1.0), seed=1)
        nh = NomuHyper()
        th = TrainHyper()
        terms = nomu_loss_terms(p, mean, exact, X, y, X_art, nh, th.smooth_l1_beta)
        assert set(terms) == {"data", "push_up", "below_exact", "above_mean", "stability"}
        total = nomu_loss(p, mean, exact, X, y, X_art, nh, th.smooth_l1_beta)
        assert total == pytest.approx(sum(terms.values()), rel=1e-12)

    def test_each_term_gradient_matches_finite_differences(self):
        th = TrainHyper(trainable_cutoffs=True)
        nh = NomuHyper()
        checked = {t: 0 for t in ("data", "push_up", "below_exact", "above_mean", "stability")}
        seed = 0
        while min(checked.values()) < 3 and seed < 200:
            seed += 1
            reports, exact, mean, X, y, X_art, rng = self._setup(seed)
            p = init_params([5, 4, 4, 1], InitHyper(), (0.3, 1.0), seed=seed, skip=bool(seed % 2))
            if not (preactivations_kink_free(p, X) and preactivations_kink_free(p, X_art)):
                continue
            u_tr, u_art = p.forward(X), p.forward(X_art)
            ok = {
                "data": residuals_kink_free(u_tr, y, th.smooth_l1_beta),
                "stability": residuals_kink_free(u_tr, y, th.smooth_l1_beta),
                "push_up": residuals_kink_free(u_art, exact.forward(X_art), 0.0),
                "below_exact": residuals_kink_free(u_art, exact.forward(X_art), th.smooth_l1_beta),
                "above_mean": residuals_kink_free(u_art, mean.forward(X_art), th.smooth_l1_beta),
            }
            for term, feasible in ok.items():
                if not feasible or checked[term] >= 3:
                    continue
                err = worst_relative_error(
                    lambda pp: nomu_loss_and_grads(pp, mean, exact, X, y, X_art, nh, th,
                                                   only_term=term),
                    p,
                )
                assert err <= 1e-4, f"{term} seed {seed}: rel err {err}"
                checked[term] += 1
        assert min(checked.values()) >= 3


def _bits(a) -> bytes:
    """The bytes of ``a``, which tell -0.0 from 0.0, with every NaN made the
    same NaN (a NaN loss is NaN whatever its sign bit)."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).tobytes()


class TestLossTermsAgainstReference:
    @pytest.mark.parametrize("beta", [0.0, 1 / 64])
    def test_bit_equal_to_the_term_by_term_forms(self, beta):
        # values at the kinks, signed zeros, ties between the networks and infinities
        edge = np.array([0.0, -0.0, 1 / 64, -1 / 64, 1 / 128, 0.5, -1.0, 5e-324, np.inf])
        rng = np.random.default_rng(int(beta * 64) + 17)
        nh = NomuHyper()
        for _ in range(300):
            n, n_art = (int(v) for v in rng.integers(1, 8, size=2))
            if rng.random() < 0.5:
                def pick(k):
                    return rng.choice(edge, k)
            else:
                def pick(k):
                    return rng.normal(size=k)
            out_tr, y = pick(n), rng.choice(edge[:7], n)
            out_art, mean_art, exact_art = pick(n_art), pick(n_art), pick(n_art)
            exact_art[: n_art // 2] = out_art[: n_art // 2]
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
                ref = reference_loss_terms(out_tr, out_art, y, mean_art, exact_art, nh, beta)
                values = _loss_values(out_tr, out_art, y, mean_art, exact_art, nh, beta)
                rows, out_grad = (np.empty((2, n)), np.empty((3, n_art))), np.empty(n + n_art)
                _loss_slopes(np.concatenate([out_tr, out_art]), out_grad, n, nh, beta,
                             rows)(y, mean_art, exact_art)
                # the output gradient: zeros, then each term's slope in term order
                want = np.zeros(n), np.zeros(n_art)
                for _, *term_slopes in ref.values():
                    for part, slope in zip(want, term_slopes):
                        part += slope
            assert _bits(out_grad) == _bits(np.concatenate(want))
            # each term's (d/d out_tr, d/d out_art): its row of the slopes, None for the other
            slopes = {}
            for name, (part, row) in SLOPE_ROWS.items():
                slopes[name] = [None, None]
                slopes[name][part] = rows[part][row]
            assert list(values) == list(SLOPE_ROWS) == list(ref)
            for name, (value, *ref_slopes) in ref.items():
                assert _bits(values[name]) == _bits(value), name
                # the reference's scalar 0.0 is a term's None: no dependence on that output
                for k, (got, want) in enumerate(zip(slopes[name], ref_slopes)):
                    assert (got is None) == isinstance(want, float), (name, k)
                    assert _bits(0.0 if got is None else got) == _bits(want), (name, k)


class TestTrainUub:
    def test_sandwich_between_mean_and_exact(self):
        rng = np.random.default_rng(0)
        m = 5
        reports = random_reports(m, rng, extra=8)
        th = TrainHyper(epochs=60)
        mean = train_mean(reports, [m, 8, 1], InitHyper(), th, seed=0)
        exact = build_exact_uub(reports)
        uub = train_uub(reports, mean, exact, NomuHyper(), th, InitHyper(), [m, 8, 1], seed=0)
        X = rng.random((1000, m))
        below_mean = (uub.forward(X) < mean.forward(X) - 0.02).mean()
        above_exact = (uub.forward(X) > exact.forward(X) + 0.02).mean()
        assert below_mean < 0.05 and above_exact < 0.05

    def test_mu_exp_raises_the_bound(self):
        # seed-averaged qualitative direction: a larger push-up weight does
        # not lower the learned bound relative to the mean network
        rng = np.random.default_rng(1)
        m = 4
        gaps = {0.01: [], 1.0: []}
        for seed in range(5):
            reports = random_reports(m, np.random.default_rng(seed), extra=5)
            th = TrainHyper(epochs=40)
            mean = train_mean(reports, [m, 6, 1], InitHyper(), th, seed=seed)
            exact = build_exact_uub(reports)
            X = np.random.default_rng(99).random((200, m))
            for mu in gaps:
                uub = train_uub(reports, mean, exact, NomuHyper(mu_exp=mu), th,
                                InitHyper(), [m, 6, 1], seed=seed)
                gaps[mu].append(float((uub.forward(X) - mean.forward(X)).mean()))
        assert np.mean(gaps[1.0]) >= np.mean(gaps[0.01]) - 1e-9

    @pytest.mark.parametrize("k", [12, 40])
    @pytest.mark.parametrize("n_art", [1, 5, 12, 16, 64])
    def test_frozen_outputs_equal_one_forward_per_epoch(self, k, n_art):
        # whole epochs per call; an exact bound over 40 reports has a
        # hidden fan-in above 32, which runs per block; 16 and 64 points
        # run the output and skip products once per call
        rng = np.random.default_rng(k + n_art)
        m = 18
        reports = random_reports(m, rng, extra=k - 1)
        nets = [build_exact_uub(reports),
                init_params([m, 10, 10, 1], InitHyper(), (0.1, 1.0), seed=k, skip=True)]
        assert (nets[0].weights[1].shape[1] > 32) == (k == 40)
        arts = rng.uniform(0.0, 1.0, size=(60, n_art, m))
        for net in nets:
            got = _frozen_outputs(net, arts)
            assert got.tobytes() == np.stack([net.forward(a) for a in arts]).tobytes()

    def test_stacked_epoch_scores_equal_nomu_loss(self):
        # train_uub scores every epoch in one pass over the stack of the
        # epochs' networks, views of _train_loop's (epochs + 1, P) matrix;
        # each score must be nomu_loss of that epoch's network alone, exactly
        th = TrainHyper(epochs=20)
        nh = NomuHyper()
        m = 5
        # one report (a one-row block), and a hidden fan-in of 40
        for extra, dims, skip in ((0, [m, 8, 1], False), (8, [m, 8, 1], True),
                                  (8, [m, 40, 36, 1], False)):
            rng = np.random.default_rng(extra + len(dims))
            reports = random_reports(m, rng, extra=extra)
            k = len(reports)
            assert (k == 1) == (extra == 0)
            X = np.stack([b.astype(float) for b, _ in reports])
            y = np.array([v for _, v in reports])
            mean = train_mean(reports, [m, 8, 1], InitHyper(), th, seed=0)
            exact = build_exact_uub(reports)
            params = init_params(dims, InitHyper(), (0.1, 1.0), rng, skip=skip)
            perms = _epoch_draws(rng, th.epochs, k)
            thetas = _train_loop(params, th, (k,), zip(X[perms], y[perms]),
                                 functools.partial(_mean_slopes, beta=th.smooth_l1_beta))
            X_eval = rng.uniform(0.0, 1.0, size=(128, m))
            layout = _layout_of(params)
            scores = nomu_loss(_net(layout, thetas), mean, exact, X, y, X_eval, nh,
                               th.smooth_l1_beta)
            assert scores.shape == (th.epochs + 1,)
            assert len(set(scores.tolist())) > th.epochs // 2  # the epochs differ
            mean_eval, exact_eval = mean.forward(X_eval), exact.forward(X_eval)
            for theta, score in zip(thetas, scores):
                net = _net(layout, theta.copy())
                one = nomu_loss(net, mean, exact, X, y, X_eval, nh, th.smooth_l1_beta)
                assert score.tobytes() == np.float64(one).tobytes()
                # the term-by-term forms, added one by one in term order
                ref = reference_loss_terms(net.forward(X), net.forward(X_eval), y, mean_eval,
                                           exact_eval, nh, th.smooth_l1_beta)
                assert score == functools.reduce(operator.add,
                                                 [value for value, _, _ in ref.values()])


class TestPrimitives:
    def test_elu_and_gate(self):
        assert elu(1.5) == 1.5
        assert elu(-30.0) == pytest.approx(-1.0, abs=1e-9)
        assert g_gate(0.0) == pytest.approx(1.0)
        assert g_gate(-40.0) == pytest.approx(0.0, abs=1e-9)
