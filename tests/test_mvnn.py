"""Monotone network structure, evaluation, and initialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iterauction.errors import InvalidInputError
from iterauction.mvnn import (
    _WHOLE,
    ForwardBuffers,
    InitHyper,
    MvnnParams,
    _product_spans,
    forward_cache,
    init_params,
    mixture_params,
    random_containment_pair,
    sample_mixture,
)
from iterauction.training import _layout_of, _net

from _oracles import init_params_generic


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

    @pytest.mark.parametrize("where", ["weights", "biases", "cutoffs", "skip"])
    def test_json_with_a_nan_parameter_is_rejected(self, where):
        obj = init_params([3, 2, 1], InitHyper(), seed=0, skip=True).to_json_obj()
        row = {"weights": obj["weights"][0][0], "biases": obj["biases"][0],
               "cutoffs": obj["cutoffs"][0], "skip": obj["skip"]}[where]
        row[0] = float("nan")
        with pytest.raises(InvalidInputError):
            MvnnParams.from_json_obj(obj)

    @pytest.mark.parametrize("where", ["weights", "biases", "cutoffs", "skip"])
    def test_stack_rejects_a_nan_parameter_edited_in_place(self, where):
        nets = [init_params([3, 2, 1], InitHyper(), seed=s, skip=True) for s in range(2)]
        arr = nets[1].skip if where == "skip" else getattr(nets[1], where)[0]
        arr.flat[0] = np.nan
        with pytest.raises(InvalidInputError):
            MvnnParams.stack(nets)

    def test_forward_rejects_a_nan_cutoff_edited_in_place(self):
        p = init_params([3, 2, 1], InitHyper(), seed=1)
        p.cutoffs[0][1] = np.nan
        with pytest.raises(InvalidInputError):
            p.forward(np.ones(3))

    def test_json_without_its_keys_is_rejected_naming_them(self):
        with pytest.raises(InvalidInputError, match=r"network is missing required keys "
                           r"\['weights', 'biases', 'cutoffs'\]"):
            MvnnParams.from_json_obj({"skip": None})

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


class TestStack:
    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_stacked_forward_is_bit_equal_to_each_net(self, n, skip):
        rng = np.random.default_rng(n)
        for hidden in ((5,), (10, 10), (3, 7, 4)):
            m = int(rng.integers(1, 19))
            nets = [init_params([m, *hidden, 1], InitHyper(), (0.1, 1.0),
                                seed=int(rng.integers(10**9)), skip=skip) for _ in range(n)]
            stack = MvnnParams.stack(nets)
            assert stack.weights[0].shape == (n, hidden[0], m)
            assert stack.biases[0].shape == stack.cutoffs[0].shape == (n, hidden[0])
            if skip:
                assert stack.skip.shape == (n, m)
            else:
                assert stack.skip is None
            for rows in (1, 2, m, 33):
                X = rng.random((n, rows, m))
                X[:, ::2] = X[:, ::2] < 0.5  # bundles and points of the cube
                out = stack.forward(X)
                assert out.shape == (n, rows)
                assert out.tobytes() == np.stack([net.forward(x) for net, x in zip(nets, X)]).tobytes()

    @pytest.mark.parametrize("dims, skip", [
        ([4, 6, 1], False),  # another width
        ([4, 5, 5, 1], False),  # another depth
        ([3, 5, 1], False),  # another item count
        ([4, 5, 1], True),  # a skip where the others have none
    ])
    def test_stack_rejects_unequal_architectures(self, dims, skip):
        nets = [init_params([4, 5, 1], InitHyper(), seed=s) for s in range(2)]
        odd = init_params(dims, InitHyper(), seed=2, skip=skip)
        with pytest.raises(InvalidInputError, match="architecture"):
            MvnnParams.stack([*nets, odd])
        with pytest.raises(InvalidInputError):
            MvnnParams.stack([])

    def test_stack_takes_one_batch_per_net(self):
        stack = MvnnParams.stack([init_params([3, 2, 1], InitHyper(), seed=s) for s in range(2)])
        assert stack.forward(np.ones((2, 4, 3))).shape == (2, 4)
        for bad in (np.ones(3), np.ones((4, 3)), np.ones((2, 4, 2))):
            with pytest.raises(InvalidInputError):
                stack.forward(bad)
        with pytest.raises(InvalidInputError):
            init_params([3, 2, 1], InitHyper(), seed=0).forward(np.ones((2, 4, 3)))

    def test_stack_forward_rechecks_cutoffs_edited_in_place(self):
        stack = MvnnParams.stack([init_params([3, 2, 1], InitHyper(), seed=s) for s in range(3)])
        X = np.ones((3, 2, 3))
        assert (stack.forward(X) >= 0.0).all()
        stack.cutoffs[0][2, 1] = 0.0
        with pytest.raises(InvalidInputError):
            stack.forward(X)

    def test_validate_checks_every_member(self):
        stack = MvnnParams.stack([init_params([3, 2, 1], InitHyper(), seed=s) for s in range(3)])
        stack.biases[0][1, 0] = 0.1
        with pytest.raises(InvalidInputError, match="positive bias"):
            stack.validate()


class TestBlockedForward:
    """Training evaluates row blocks in one ``forward_cache`` call.  That is
    bit for bit one call per block only while the BLAS gives a gemm row the
    same bits wherever it sits in the batch, outside the one-row tail of an
    odd row count, and a one-column (gemv) row the same bits wherever its
    position modulo ``_GEMV_ROW_UNROLL`` is kept: the blocked call runs a
    hidden product per block unless every block is even, and every gemv
    product per block, except over equal blocks of a multiple of that many
    rows.  A BLAS that breaks either rule fails here; blocks of 2 and 6
    rows give other bits in one gemv call than per block on OpenBLAS 0.3.31
    (Haswell kernels), and so does a 7-row block in one gemm call."""

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dims", [[5, 10, 10, 1], [8, 10, 10, 1], [18, 10, 10, 1], [8, 3, 1],
                                      [40, 10, 1], [8, 40, 36, 1]])
    @pytest.mark.parametrize("blocks", [(1, 64), (2, 64), (64, 64), (20, 64), (7, 128),
                                        (1, 1, 2), (64,) * 5, (16,) * 4, (32,) * 3, (12,) * 4,
                                        (6,) * 6, (2,) * 8])
    def test_equals_one_call_per_block(self, skip, dims, blocks):
        rng = np.random.default_rng(sum(blocks) + len(dims))
        net = init_params(dims, InitHyper(), (0.1, 1.0), seed=len(blocks), skip=skip)
        m = dims[0]
        X = np.concatenate([(rng.random((blocks[0], m)) < 0.5).astype(float),  # reports
                            rng.random((sum(blocks[1:]), m))])  # artificial points
        out, O, Z = forward_cache(net, X, ForwardBuffers(net, X, blocks))
        start = 0
        for size in blocks:
            rows = slice(start, start + size)
            ref_out, ref_O, ref_Z = forward_cache(net, X[rows].copy())
            assert out[rows].tobytes() == ref_out.tobytes()
            for got, ref in zip(O + Z, ref_O + ref_Z):
                assert got[rows].tobytes() == ref.tobytes()
            start += size
        assert start == X.shape[0] == out.shape[0]

    @pytest.mark.parametrize("blocks, whole", [
        ((64,) * 5, True), ((16,) * 4, True), ((32,) * 3, True), ((48,), True),
        ((64, 64, 32), False), ((20, 64), False), ((12,) * 4, False), ((6,) * 6, False),
        ((8,), False)])
    def test_gemv_products_run_once_only_over_equal_aligned_blocks(self, blocks, whole):
        net = init_params([8, 10, 10, 1], InitHyper(), (0.1, 1.0), seed=0, skip=True)
        buf = ForwardBuffers(net, np.empty((sum(blocks), 8)), blocks)
        assert buf.out_spans == (_WHOLE if whole else buf.spans)
        assert buf.spans == [slice(end - size, end) for size, end
                             in zip(blocks, itertools.accumulate(blocks))]

    @pytest.mark.parametrize("blocks, fan_in, whole", [
        ((2, 64), 10, True), ((64,) * 3, 18, True), ((12, 64), 31, True), ((14,), 8, True),
        ((7, 128), 10, False), ((1, 64), 10, False), ((13,), 8, False), ((12, 64), 32, False),
        ((2, 2, 1), 5, False)])
    def test_gemm_products_run_once_only_over_even_blocks(self, blocks, fan_in, whole):
        spans = ForwardBuffers(init_params([fan_in, 10, 1], InitHyper(), seed=0),
                               np.empty((sum(blocks), fan_in)), blocks).spans
        assert (_product_spans(fan_in, blocks, spans) is _WHOLE) == whole

    @pytest.mark.parametrize("skip", [False, True])
    @pytest.mark.parametrize("dims", [[5, 10, 10, 1], [8, 3, 1], [40, 10, 1], [8, 40, 36, 1]])
    @pytest.mark.parametrize("blocks", [(1, 64), (2, 64), (7, 128), (1, 1, 2), (64,) * 3,
                                        (16,) * 4, (6,) * 6])
    def test_epoch_stack_equals_one_call_per_net_and_block(self, skip, dims, blocks):
        # training scores a fit's epochs as one stack: views of an (E, P)
        # matrix of flat parameter vectors, on a batch shared by every net
        rng = np.random.default_rng(sum(blocks) + len(dims))
        nets = [init_params(dims, InitHyper(), (0.1, 1.0), seed=s, skip=skip) for s in range(6)]
        flats = np.stack([np.concatenate([a.ravel() for a in net.weights
                                          + ([net.skip] if skip else []) + net.biases
                                          + net.cutoffs]) for net in nets])
        stack = _net(_layout_of(nets[0]), flats)
        assert np.shares_memory(stack.weights[0], flats)
        m = dims[0]
        X = np.concatenate([(rng.random((blocks[0], m)) < 0.5).astype(float),
                            rng.random((sum(blocks[1:]), m))])
        out, O, Z = forward_cache(stack, X, ForwardBuffers(stack, X, blocks))
        assert out.shape == (len(nets), X.shape[0]) and Z[0] is X
        for e, net in enumerate(nets):
            start = 0
            for size in blocks:
                rows = slice(start, start + size)
                ref_out, ref_O, ref_Z = forward_cache(net, X[rows].copy())
                assert out[e, rows].tobytes() == ref_out.tobytes()
                for got, ref in zip(O + Z[1:], ref_O + ref_Z[1:]):
                    assert got[e, rows].tobytes() == ref.tobytes()
                start += size


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

    @pytest.mark.parametrize("bad", [
        {"e_init": float("nan")},
        {"e_init": float("inf")},
        {"e_init": 0.0},
        {"v_init": float("nan")},
        {"b_init": float("nan")},
        {"bias_init": float("nan")},
        {"bias_init": -0.1},
        {"eps_little": float("nan")},
        {"eps_little": float("inf")},
    ])
    def test_hyper_rejects_values_that_break_the_mixture(self, bad):
        with pytest.raises(InvalidInputError):
            InitHyper(**bad)

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
