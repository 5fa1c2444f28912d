"""Hand-derived gradients, projection, and mean-network training."""

import numpy as np
import pytest

from iterauction.mvnn import InitHyper, init_params, random_containment_pair
from iterauction.training import (
    CUTOFF_FLOOR,
    Adam,
    Grads,
    TrainHyper,
    mean_loss_and_grads,
    r_squared,
    smooth_l1,
    smooth_l1_grad,
    train_mean,
)
from iterauction.uub import NomuHyper, build_exact_uub, nomu_loss_and_grads

from _gradcheck import param_arrays, preactivations_kink_free, worst_relative_error


class TestSmoothL1:
    def test_quadratic_inside_linear_outside(self):
        beta = 0.25
        assert smooth_l1(0.1, 0.0, beta) == pytest.approx(0.5 / beta * 0.01)
        assert smooth_l1(1.0, 0.0, beta) == pytest.approx(1.0 - 0.5 * beta)

    def test_beta_zero_is_absolute_error(self):
        assert smooth_l1(-0.7, 0.0, 0.0) == pytest.approx(0.7)

    def test_gradient_continuity_at_transition(self):
        beta = 1 / 64
        assert smooth_l1_grad(beta, 0.0, beta) == pytest.approx(1.0)
        assert smooth_l1_grad(beta - 1e-12, 0.0, beta) == pytest.approx(1.0, abs=1e-9)


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
            exact = build_exact_uub(list(zip(X, y)))
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
            g = Grads.zeros_like(p)
            for arr in g.arrays():
                arr += rng.normal(size=arr.shape)
            opt.step(g)
            p.validate()  # weights >= 0, biases <= 0, cutoffs > 0

    def test_gradient_clipping_bounds_step_norm(self):
        p = init_params([4, 3, 1], InitHyper(), seed=5)
        g = Grads.zeros_like(p)
        g.weights[0] += 1e6
        norm_before = g.global_norm()
        Adam(p, TrainHyper(clip_grad_norm=1.0)).step(g)
        assert norm_before > 1.0 and g.global_norm() <= 1.0 + 1e-9


def reference_adam_step(p, grads, state, hyper):
    """The per-array Adam step: L2 gradient, clipping, moments, update and
    projection, one array at a time."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    regularised = list(p.weights) + list(p.biases) + ([] if p.skip is None else [p.skip])
    g_reg = list(grads.weights) + list(grads.biases) + ([] if p.skip is None else [grads.skip])
    if hyper.l2_lambda != 0:
        for g, theta in zip(g_reg, regularised):
            g += 2 * hyper.l2_lambda * theta
    g_all = grads.arrays()  # weights, biases, cutoffs, skip
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in g_all)))
    if hyper.clip_grad_norm and norm > hyper.clip_grad_norm:
        for g in g_all:
            g *= hyper.clip_grad_norm / (norm + 1e-12)
    state["t"] += 1
    t = state["t"]
    thetas = list(p.weights) + list(p.biases) + list(p.cutoffs)
    thetas += [] if p.skip is None else [p.skip]
    frozen = [] if hyper.trainable_cutoffs else [id(c) for c in p.cutoffs]
    for k, (theta, g) in enumerate(zip(thetas, g_all)):
        m = state["m"].setdefault(k, np.zeros_like(g))
        v = state["v"].setdefault(k, np.zeros_like(g))
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        if id(theta) in frozen:
            continue
        theta -= hyper.learning_rate * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    for W in p.weights:
        np.maximum(W, 0.0, out=W)
    for b in p.biases:
        np.minimum(b, 0.0, out=b)
    for c in p.cutoffs:
        np.maximum(c, CUTOFF_FLOOR, out=c)
    if p.skip is not None:
        np.maximum(p.skip, 0.0, out=p.skip)


def param_bytes(p):
    return [a.tobytes() for a in param_arrays(p)]


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
    @pytest.mark.parametrize("trainable_cutoffs", [False, True])
    def test_step_equals_per_array_reference(self, skip, trainable_cutoffs):
        hyper = TrainHyper(learning_rate=0.05, l2_lambda=1e-3, clip_grad_norm=1.0,
                           trainable_cutoffs=trainable_cutoffs)
        p = init_params([5, 4, 3, 1], InitHyper(), (0.1, 1.0), seed=3, skip=skip)
        ref = p.copy()
        cutoffs_before = [c.tobytes() for c in p.cutoffs]
        opt = Adam(p, hyper)
        state = {"t": 0, "m": {}, "v": {}}
        rng = np.random.default_rng(4)
        for scale in (0.1, 10.0, 0.5):  # the middle step is clipped
            g, g_ref = Grads.zeros_like(p), Grads.zeros_like(ref)
            for a, b in zip(g.arrays(), g_ref.arrays()):
                a[...] = b[...] = rng.normal(scale=scale, size=a.shape)
            opt.step(g)
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

    def test_deterministic_given_seed(self):
        reports = self._reports(2)
        a = train_mean(reports, [5, 6, 1], InitHyper(), TrainHyper(epochs=20), seed=7)
        b = train_mean(reports, [5, 6, 1], InitHyper(), TrainHyper(epochs=20), seed=7)
        assert a.to_json() == b.to_json()
