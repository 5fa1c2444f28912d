"""Monotone network structure, evaluation, and initialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterauction.errors import InvalidInputError
from iterauction.mvnn import (
    InitHyper,
    MvnnParams,
    init_params,
    init_params_generic,
    mixture_params,
    random_containment_pair,
    sample_mixture,
)


class TestParams:
    def test_validate_rejects_negative_weight(self):
        p = init_params([3, 2, 1], InitHyper(), seed=0)
        p.weights[0][0, 0] = -0.1
        with pytest.raises(InvalidInputError):
            p.validate()

    def test_validate_rejects_positive_bias(self):
        p = init_params([3, 2, 1], InitHyper(), seed=0)
        p.biases[0][0] = 0.1
        with pytest.raises(InvalidInputError):
            p.validate()

    def test_output_nonnegative_and_zero_at_empty_without_skip(self):
        p = init_params([4, 3, 3, 1], InitHyper(), seed=1)
        assert p.forward(np.zeros(4)) >= 0.0
        X = np.random.default_rng(0).random((50, 4))
        assert (p.forward(X) >= 0).all()

    def test_forward_clips_at_zero_and_cutoff(self):
        # one hidden neuron o = x with cutoff 0.5 and output weight 1
        net = MvnnParams(weights=[np.ones((1, 1)), np.ones((1, 1))],
                         biases=[np.zeros(1)], cutoffs=[np.array([0.5])])
        assert net.forward(np.array([-1.0])) == 0.0
        assert net.forward(np.array([0.3])) == 0.3
        assert net.forward(np.array([2.0])) == 0.5

    def test_forward_rechecks_cutoffs_edited_in_place(self):
        p = init_params([3, 2, 1], InitHyper(), seed=1)
        x = np.ones(3)
        assert p.forward(x) >= 0.0
        p.cutoffs[0][1] = 0.0
        with pytest.raises(InvalidInputError):
            p.forward(x)

    def test_json_round_trip(self):
        p = init_params([4, 3, 1], InitHyper(), seed=2, skip=True)
        q = MvnnParams.from_json(p.to_json())
        x = np.array([1.0, 0.0, 1.0, 1.0])
        assert q.forward(x) == p.forward(x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_monotone_on_random_containment_pairs(self, seed, skip):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        p = init_params([m, int(rng.integers(1, 6)), 1], InitHyper(), seed=seed, skip=skip)
        a, b = random_containment_pair(m, rng)
        assert p.forward(a.astype(float)) <= p.forward(b.astype(float)) + 1e-12


class TestInitialization:
    def test_mixture_moments(self):
        # Monte-Carlo check of the designed pre-activation distribution at
        # the full bundle: mean ~ e_init, variance ~ v_init.
        h = InitHyper(e_init=1.0, v_init=0.05, b_init=0.05, bias_init=0.05, eps_little=0.1)
        rng = np.random.default_rng(0)
        for d in (16, 64, 256):
            W = sample_mixture(10**5, d, h, rng)
            bias = -np.random.default_rng(1).uniform(0, h.bias_init, 10**5)
            pre = W.sum(axis=1) + bias
            _, B, _ = mixture_params(d, h)
            assert abs(pre.mean() - h.e_init) <= 0.02 * h.e_init
            assert abs(pre.var(ddof=1) - h.v_init) <= 0.05 * h.v_init
            assert W.min() >= 0.0 and W.max() <= B + 1e-12

    def test_small_fan_in_uses_deterministic_branch(self):
        h = InitHyper(e_init=1.0, v_init=0.05, b_init=0.05, bias_init=0.05, eps_little=0.1)
        d = 2  # d <= M^2 / (3V)
        A, B, p = mixture_params(d, h)
        assert (A, p) == (0.0, 1.0)
        assert abs(B - 2 * h.m_k / d) <= 1e-12

    def test_generic_init_saturates_where_mixture_does_not(self):
        h = InitHyper(e_init=1.0, v_init=0.05, b_init=0.05, bias_init=0.05, eps_little=0.1)
        m = 64
        X = (np.random.default_rng(3).random((500, m)) < 0.5).astype(float)
        generic = init_params_generic([m, 64, 1], seed=4)
        mixture = init_params([m, 64, 1], h, (0.0, 1.0), seed=4)
        def saturation(p):
            o = X @ p.weights[0].T + p.biases[0]
            return float((o >= p.cutoffs[0]).mean())
        assert saturation(generic) >= 0.95
        assert saturation(mixture) < 0.50
