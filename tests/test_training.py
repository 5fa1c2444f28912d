"""Hand-derived gradients, projection, and mean-network training."""

import functools
import math
import operator

import numpy as np
import pytest

from iterauction.errors import InvalidInputError
from iterauction.mvnn import (
    ForwardBuffers,
    InitHyper,
    MvnnParams,
    init_params,
    random_containment_pair,
)
from iterauction.training import (
    Adam,
    Grads,
    TrainHyper,
    _best_epoch,
    _epoch_draws,
    _huber_slope,
    _kept,
    _layout_of,
    _mean_slopes,
    _net,
    _train_loop,
    _Workspace,
    r_squared,
    smooth_l1,
    train_mean,
)
from iterauction.uub import (
    NomuHyper,
    build_exact_uub,
    train_uub,
)

from _gradcheck import (
    mean_loss_and_grads,
    nomu_loss_and_grads,
    param_arrays,
    preactivations_kink_free,
    worst_relative_error,
)
from _reference_training import (
    piecewise_smooth_l1,
    piecewise_smooth_l1_grad,
    reference_adam_step,
    reference_train_mean,
    reference_train_uub,
)

# values at and around the smooth-L1 kinks (beta = 1/64), signed zeros,
# infinities and subnormals
EDGE_VALUES = np.array([0.0, -0.0, 1 / 64, -1 / 64, 1 / 128, -1 / 128, 0.5, -0.5, 1.0, -1.0,
                        np.inf, -np.inf, 5e-324, -5e-324, 1e-300])


class TestSmoothL1:
    def test_quadratic_inside_linear_outside(self):
        beta = 0.25
        assert smooth_l1(0.1, 0.0, beta) == pytest.approx(0.5 / beta * 0.01)
        assert smooth_l1(1.0, 0.0, beta) == pytest.approx(1.0 - 0.5 * beta)

    def test_beta_zero_is_absolute_error(self):
        assert smooth_l1(-0.7, 0.0, 0.0) == pytest.approx(0.7)

    def test_gradient_continuity_at_transition(self):
        beta = 1 / 64
        assert _huber_slope(beta, beta) == pytest.approx(1.0)
        assert _huber_slope(beta - 1e-12, beta) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.0, 1 / 64, 0.3])
    def test_bit_equal_to_the_piecewise_forms(self, beta):
        rng = np.random.default_rng(0)
        x = np.concatenate([EDGE_VALUES, rng.normal(scale=0.05, size=200)])
        y = np.concatenate([rng.choice(EDGE_VALUES[:10], size=EDGE_VALUES.size),
                            rng.normal(scale=0.05, size=200)])
        with np.errstate(invalid="ignore"):  # inf - inf
            assert smooth_l1(x, y, beta).tobytes() == piecewise_smooth_l1(x, y, beta).tobytes()
            assert (_huber_slope(x - y, beta).tobytes()
                    == piecewise_smooth_l1_grad(x, y, beta).tobytes())


class TestGradients:
    def test_mean_loss_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        hyper = TrainHyper(trainable_cutoffs=True)
        checked = 0
        seed = 0
        while checked < 10:
            seed += 1
            p = init_params([5, 4, 4, 1], InitHyper(), (0.3, 1.0), seed=seed,
                            skip=bool(seed % 2))
            X = rng.random((8, 5))
            y = rng.random(8)
            if not preactivations_kink_free(p, X):
                continue
            err = worst_relative_error(lambda pp: mean_loss_and_grads(pp, X, y, hyper), p)
            assert err <= 1e-4, f"seed {seed}: rel err {err}"
            checked += 1

    def test_l2_gradients_included(self):
        hyper = TrainHyper(l2_lambda=0.1, trainable_cutoffs=False)
        p = init_params([3, 2, 1], InitHyper(), (0.3, 1.0), seed=3)
        X = np.random.default_rng(1).random((4, 3))
        y = np.zeros(4)
        loss_with, _ = mean_loss_and_grads(p, X, y, hyper)
        loss_without, _ = mean_loss_and_grads(p, X, y, TrainHyper(l2_lambda=0.0))
        assert loss_with > loss_without

    @pytest.mark.parametrize("loss", ["mean", "nomu"])
    def test_l2_adds_its_gradient_and_penalty(self, loss):
        lam = 0.1
        m = 4
        rng = np.random.default_rng(5)
        p = init_params([m, 3, 3, 1], InitHyper(), (0.3, 1.0), seed=6, skip=True)
        X = (rng.random((6, m)) < 0.5).astype(float)
        X[0] = 1.0
        y = rng.random(6)
        if loss == "mean":
            def fn(hyper):
                return mean_loss_and_grads(p, X, y, hyper)
        else:
            _, first = np.unique(X, axis=0, return_index=True)  # one report per bundle
            exact = build_exact_uub(list(zip(X[first], y[first])))
            mean = init_params([m, 3, 1], InitHyper(), (0.3, 1.0), seed=7)
            X_art = rng.random((8, m))

            def fn(hyper):
                return nomu_loss_and_grads(p, mean, exact, X, y, X_art, NomuHyper(), hyper)

        loss_with, g_with = fn(TrainHyper(l2_lambda=lam))
        loss_without, g_without = fn(TrainHyper(l2_lambda=0.0))
        regularised = p.weights + [p.skip] + p.biases
        for gw, go, theta in zip(g_with.weights + [g_with.skip] + g_with.biases,
                                 g_without.weights + [g_without.skip] + g_without.biases,
                                 regularised):
            assert (gw == go + 2 * lam * theta).all()
        for gw, go in zip(g_with.cutoffs, g_without.cutoffs):
            assert (gw == go).all()
        penalty = lam * sum(float((theta * theta).sum()) for theta in regularised)
        assert loss_with - loss_without == pytest.approx(penalty, rel=1e-12)


class TestAdamProjection:
    def test_step_preserves_sign_constraints(self):
        p = init_params([4, 3, 1], InitHyper(), seed=5, skip=True)
        hyper = TrainHyper(learning_rate=0.5, trainable_cutoffs=True)
        opt = Adam(p, hyper)
        rng = np.random.default_rng(2)
        for _ in range(20):
            for arr in opt.grads.arrays():
                arr[...] = rng.normal(size=arr.shape)
            opt.step()
            p.validate()  # weights >= 0, biases <= 0, cutoffs > 0

    def test_norm_adds_the_array_sums_as_a_left_fold(self):
        # squared sums 1e16, 1, 1, 1: a left fold loses each 1, while
        # compensated summation (the builtin sum of floats from Python
        # 3.12 on) keeps them and rounds the norm differently
        p = init_params([4, 3, 1], InitHyper(), seed=5)
        g = Grads.zeros_like(p)
        g.weights[0][0, 0] = 1e8
        for a in g.arrays()[1:]:
            a.flat[0] = 1.0
        sums = [float((a * a).sum()) for a in g.arrays()]
        fold = functools.reduce(operator.add, sums)
        assert math.sqrt(fold) != math.sqrt(math.fsum(sums))
        assert g.global_norm() == math.sqrt(fold)

    def test_gradient_clipping_bounds_step_norm(self):
        p = init_params([4, 3, 1], InitHyper(), seed=5)
        opt = Adam(p, TrainHyper(clip_grad_norm=1.0))
        g = opt.grads
        g.weights[0] += 1e6
        norm_before = g.global_norm()
        opt.step()
        assert norm_before > 1.0 and g.global_norm() <= 1.0 + 1e-9


def param_bytes(p):
    return [a.tobytes() for a in param_arrays(p)]


def _arrays_of(obj):
    """Every array a workspace holds, through its lists, forward buffers
    and gradients: those it writes, and the views of the network it binds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_of(item)
    elif isinstance(obj, ForwardBuffers):
        for name in ForwardBuffers.__slots__:
            yield from _arrays_of(getattr(obj, name))
    elif isinstance(obj, (_Workspace, Grads)):
        for item in vars(obj).values():
            yield from _arrays_of(item)


class TestFlatLayout:
    def test_grads_views_alias_the_flat_buffer(self):
        p = init_params([5, 4, 3, 1], InitHyper(), seed=1, skip=True)
        g = Grads.zeros_like(p)
        for arr in g.arrays():
            assert np.shares_memory(arr, g.flat)
        g.flat[:] = np.arange(g.flat.size)
        in_layout_order = g.weights + [g.skip] + g.biases + g.cutoffs
        assert np.concatenate([a.ravel() for a in in_layout_order]).tolist() == g.flat.tolist()
        g.biases[1][0] = -1.0
        assert -1.0 in g.flat
        assert [a.shape for a in g.arrays()] == [a.shape for a in param_arrays(p)]

    @pytest.mark.parametrize("skip", [False, True])
    def test_adam_rebinds_the_network_as_views_of_one_buffer(self, skip):
        p = init_params([5, 4, 3, 1], InitHyper(), seed=2, skip=skip)
        before = param_bytes(p)
        Adam(p, TrainHyper())
        arrays = param_arrays(p)
        assert len({id(a.base) for a in arrays}) == 1 and arrays[0].base is not None
        assert all(a.base is arrays[0].base for a in arrays)
        assert param_bytes(p) == before
        p.validate()

    @pytest.mark.parametrize("skip", [False, True])
    def test_matrix_views_are_the_stack_of_its_rows(self, skip):
        nets = [init_params([5, 4, 3, 1], InitHyper(), (0.1, 1.0), seed=s, skip=skip)
                for s in range(4)]
        flats = np.stack([Adam(net.copy(), TrainHyper()).theta for net in nets])
        layout = _layout_of(nets[0])
        stack = _net(layout, flats)
        assert all(np.shares_memory(a, flats) for a in param_arrays(stack))
        assert param_bytes(stack) == param_bytes(MvnnParams.stack(nets))
        for flat, net in zip(flats, nets):
            assert _net(layout, flat).to_json() == net.to_json()

    @pytest.mark.parametrize("skip", [False, True])
    def test_backward_overwrites_its_reused_scratch(self, skip):
        # a fit's workspace is reused from epoch to epoch; what its buffers
        # held before must not reach the forward pass or the gradients
        p = init_params([5, 4, 3, 1], InitHyper(), (0.1, 1.0), seed=5, skip=skip)
        X = np.random.default_rng(6).random((9, 5))
        blocks = (2, 3, 4)
        out_grad = np.linspace(-1.0, 1.0, 9)

        def fixed_slopes(out, out_grad_buffer):
            return lambda: np.copyto(out_grad_buffer, out_grad)

        def gradient_bytes(ws):
            ws.data_grads(X)
            return ws.grads.flat.tobytes()

        def written(ws):  # the workspace's own arrays, not the network's
            return [a for a in _arrays_of(ws)
                    if not any(np.shares_memory(a, q) for q in param_arrays(p))]

        fresh = gradient_bytes(_Workspace(p, blocks, fixed_slopes))
        reused = _Workspace(p, blocks, fixed_slopes)
        held = written(reused)
        assert any(a is reused.X for a in held) and len(held) > 20
        for a in held:
            a[...] = True if a.dtype == bool else np.nan
        assert gradient_bytes(reused) == fresh
        assert all(a is b for a, b in zip(written(reused), held))

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("trainable_cutoffs", [False, True])
    def test_step_equals_per_array_reference(self, skip, trainable_cutoffs):
        hyper = TrainHyper(learning_rate=0.05, l2_lambda=1e-3, clip_grad_norm=1.0,
                           trainable_cutoffs=trainable_cutoffs)
        p = init_params([5, 4, 3, 1], InitHyper(), (0.1, 1.0), seed=3, skip=skip)
        ref = p.copy()
        cutoffs_before = [c.tobytes() for c in p.cutoffs]
        opt = Adam(p, hyper)
        g = opt.grads
        state = {"t": 0, "m": {}, "v": {}}
        rng = np.random.default_rng(4)
        for scale in (0.1, 10.0, 0.5):  # the middle step is clipped
            g_ref = Grads.zeros_like(ref)
            for a, b in zip(g.arrays(), g_ref.arrays()):
                a[...] = b[...] = rng.normal(scale=scale, size=a.shape)
            opt.step()
            reference_adam_step(ref, g_ref, state, hyper)
            assert param_bytes(p) == param_bytes(ref)
            assert g.flat.tobytes() == np.concatenate(
                [a.ravel() for a in g_ref.weights + ([g_ref.skip] if skip else [])
                 + g_ref.biases + g_ref.cutoffs]).tobytes()
        if not trainable_cutoffs:
            assert [c.tobytes() for c in p.cutoffs] == cutoffs_before
        p.validate()


class TestTrainMean:
    def _reports(self, seed, m=5, k=12):
        import iterauction as ia

        inst = ia.generate_instance(ia.GeneratorConfig(n=1, m=m), seed)
        rng = np.random.default_rng(seed)
        bundles = {tuple(np.ones(m, dtype=int))}
        while len(bundles) < k:
            b = tuple(rng.integers(0, 2, m))
            if sum(b) > 0:
                bundles.add(b)
        return [
            (np.array(b), float(inst.values[0].value(np.array(b)))) for b in sorted(bundles)
        ]

    def test_fits_training_data(self):
        reports = self._reports(0)
        net = train_mean(reports, [5, 10, 10, 1], InitHyper(), TrainHyper(epochs=80), seed=0)
        X = np.stack([b for b, _ in reports]).astype(float)
        y = np.array([v for _, v in reports])
        assert np.abs(net.forward(X) - y).mean() < 0.05
        assert r_squared(net.forward(X), y) > 0.9

    def test_trained_network_is_monotone(self):
        reports = self._reports(1)
        net = train_mean(reports, [5, 8, 1], InitHyper(), TrainHyper(epochs=40), seed=1)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_containment_pair(5, rng)
            assert net.forward(a.astype(float)) <= net.forward(b.astype(float)) + 1e-12

    def test_best_epoch_is_kept_while_training_continues(self):
        # a score that is lowest after epoch 3: training on to epoch 8 must
        # keep the network of epoch 3, as stopping there does
        reports = self._reports(3)
        X = np.stack([b for b, _ in reports]).astype(float)
        y = np.array([v for _, v in reports])

        def fit(epochs):
            rng = np.random.default_rng(0)
            params = init_params([5, 6, 1], InitHyper(), (0.1, 1.0), rng)
            perms = _epoch_draws(rng, epochs, len(y))
            loss = functools.partial(_mean_slopes, beta=TrainHyper().smooth_l1_beta)
            thetas = _train_loop(params, TrainHyper(epochs=epochs), (len(y),),
                                 zip(X[perms], y[perms]), loss)
            assert thetas.shape == (epochs + 1, _layout_of(params).size)
            assert not any(np.shares_memory(thetas, a) for a in param_arrays(params))
            return thetas, _layout_of(params)

        (long, layout), (short, _) = fit(8), fit(3)
        start = init_params([5, 6, 1], InitHyper(), (0.1, 1.0), np.random.default_rng(0))
        assert _net(layout, long[0]).to_json() == start.to_json()
        best = _best_epoch([3, 2, 1, 0, 1, 2, 3, 4, 5])
        assert best == 3
        assert _net(layout, long[best]).to_json() == _net(layout, short[-1]).to_json()

    def test_deterministic_given_seed(self):
        reports = self._reports(2)
        a = train_mean(reports, [5, 6, 1], InitHyper(), TrainHyper(epochs=20), seed=7)
        b = train_mean(reports, [5, 6, 1], InitHyper(), TrainHyper(epochs=20), seed=7)
        assert a.to_json() == b.to_json()


nan, inf = float("nan"), float("inf")


class TestBestEpoch:
    @pytest.mark.parametrize("scores, best", [
        ([3.0, 2.0, 1.0, 0.0, 1.0], 3),
        ([1.0, 0.5, 0.7, 0.5], 1),  # a tie keeps the first
        ([0.0, -0.0, 0.0], 0),  # so do signed zeros
        ([nan, 1.0, 0.0], 0),  # nothing beats a NaN start
        ([1.0, nan, 0.5, nan, 0.7], 2),  # a later NaN never wins
        ([inf, 2.0, -inf, -inf], 2),
        ([2.0], 0),
    ])
    def test_first_strictly_lowest(self, scores, best):
        assert _best_epoch(scores) == best
        assert _best_epoch(np.array(scores)) == best


class TestTrainHyper:
    @pytest.mark.parametrize("bad", [
        {"clip_grad_norm": -1.0},  # would scale every step by a negative factor
        {"clip_grad_norm": float("nan")},
        {"epochs": 2.5},
        {"epochs": True},
        {"epochs": "3"},
        {"epochs": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": 0.0},
        {"l2_lambda": float("nan")},
        {"cutoff_init_range": 5},
        {"cutoff_init_range": (0.1,)},
        {"cutoff_init_range": (0.1, 0.5, 1.0)},
        {"cutoff_init_range": ("a", 1.0)},
        {"cutoff_init_range": (0.5, 0.1)},
        {"cutoff_init_range": (-0.1, 1.0)},
        {"cutoff_init_range": (float("nan"), 1.0)},
        {"cutoff_init_range": (0.1, float("inf"))},
        # a NaN threshold would turn the retry off (r2 < nan is false), and a
        # string would fail train_mean's comparison
        {"retrain_r2_threshold": float("nan")},
        {"retrain_r2_threshold": "0.9"},
        {"retrain_r2_threshold": None},
        {"retrain_r2_threshold": True},
    ])
    def test_rejects_values_that_break_or_reverse_training(self, bad):
        with pytest.raises(InvalidInputError):
            TrainHyper(**bad)

    def test_accepts_the_boundaries(self):
        h = TrainHyper(epochs=np.int64(3), clip_grad_norm=0.0, cutoff_init_range=[0.0, 0.0])
        assert h.cutoff_init_range == (0.0, 0.0)

    @pytest.mark.parametrize("threshold", [0.9, 0, -1.5, np.float64(0.5), float("-inf"),
                                           float("inf")])
    def test_accepts_any_real_r2_threshold(self, threshold):
        assert TrainHyper(retrain_r2_threshold=threshold).retrain_r2_threshold == threshold


def _random_reports(m, k, seed):
    """The full bundle and k - 1 other distinct bundles, valued by a random
    monotone function."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, m)
    bundles = [np.ones(m, dtype=np.int64)]
    seen = {tuple(bundles[0])}
    while len(bundles) < k:
        b = (rng.random(m) < 0.5).astype(np.int64)
        if b.sum() and tuple(b) not in seen:
            seen.add(tuple(b))
            bundles.append(b)
    return [(b, float((w @ b / w.sum()) ** 0.7)) for b in bundles]


class TestAgainstEpochLoop:
    """``train_mean`` and ``train_uub`` draw every epoch's randomness up
    front, evaluate the frozen networks once per fit, batch the rows of an
    epoch into one forward pass and step Adam on one flat vector.  Each must
    give, byte for byte, the network of the epoch-by-epoch reference loop."""

    # k reports for each architecture: the fan-ins of 40 and 36 of
    # "8-wide" can take OpenBLAS's small-matrix kernel (see
    # mvnn._SMALL_KERNEL_FAN_IN); "40-18" is the fit-m18 benchmark's size,
    # whose exact bound, frozen in train_uub, is 40 wide
    @pytest.mark.parametrize("k, dims", [
        *(pytest.param(k, dims, id=f"{k}-{name}") for k in (1, 2, 7, 20)
          for name, dims in (("5", [5, 10, 10, 1]), ("8", [8, 10, 10, 1]),
                             ("8-wide", [8, 40, 36, 1]))),
        pytest.param(40, [18, 10, 10, 1], id="40-18")])
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("trainable_cutoffs", [False, True])
    def test_fits_equal_the_reference_loop(self, k, dims, skip, trainable_cutoffs):
        m = dims[0]
        reports = _random_reports(m, k, seed=10 * m + k)
        th = TrainHyper(epochs=12, trainable_cutoffs=trainable_cutoffs)
        mean = train_mean(reports, dims, InitHyper(), th, seed=k, skip=skip)
        assert mean.to_json() == reference_train_mean(reports, dims, InitHyper(), th, k,
                                                      skip).to_json()
        exact = build_exact_uub(reports)
        nh = NomuHyper()
        upper = train_uub(reports, mean, exact, nh, th, InitHyper(), dims, seed=k, skip=skip)
        assert upper.to_json() == reference_train_uub(reports, mean, exact, nh, th, InitHyper(),
                                                      dims, k, skip).to_json()


class TestKeptArrays:
    def test_fits_overwrite_the_arrays_kept_from_earlier_fits(self):
        # train_uub keeps its batches and scoring arrays for the next fit;
        # one of another report count and architecture, and arrays filled
        # with NaN, must not change what the same fit gives after them
        def fit(m, k, dims, skip):
            reports = _random_reports(m, k, seed=10 * m + k)
            th = TrainHyper(epochs=12)
            mean = train_mean(reports, dims, InitHyper(), th, seed=k, skip=skip)
            upper = train_uub(reports, mean, build_exact_uub(reports), NomuHyper(), th,
                              InitHyper(), dims, seed=k, skip=skip)
            return upper.to_json()

        first = fit(8, 20, [8, 10, 10, 1], False)
        fit(5, 7, [5, 40, 36, 1], True)  # fewer rows, but wider: some arrays grow
        kept = dict(_kept.flats)
        for a in kept.values():
            a[:] = np.nan
        again = fit(8, 20, [8, 10, 10, 1], False)
        assert _kept.flats.keys() == kept.keys()
        assert all(_kept.flats[name] is a for name, a in kept.items())
        _kept.flats.clear()
        assert first == again == fit(8, 20, [8, 10, 10, 1], False)
