"""Constrained training of monotone networks by hand-derived gradients.

Gradients are derived for this fixed architecture family rather than pulled
from an autodiff framework.  Sign constraints are kept by projection: after
every optimizer step weights are clamped to >= 0, biases to <= 0 and
cutoffs to >= CUTOFF_FLOOR.  The bounded-ReLU subgradient is taken as zero
at exactly 0 and exactly the cutoff.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .domain import report_arrays
from .errors import InvalidInputError
from .mvnn import (
    CUTOFF_FLOOR,
    ForwardBuffers,
    MvnnParams,
    _ZERO,
    _bind_product,
    _operand,
    _product_spans,
    _run,
    forward_cache,
    init_params,
)


@dataclass
class TrainHyper:
    learning_rate: float = 0.01
    l2_lambda: float = 1e-6
    epochs: int = 200
    clip_grad_norm: float = 1.0
    smooth_l1_beta: float = 1.0 / 64.0
    trainable_cutoffs: bool = False
    cutoff_init_range: tuple[float, float] = (0.1, 1.0)
    retrain_r2_threshold: float = 0.9

    def __post_init__(self):
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral):
            raise InvalidInputError(f"epochs must be an int, got {self.epochs!r}")
        # written so that NaN fails every check
        if not (0 < self.learning_rate < math.inf) or self.epochs < 1:
            raise InvalidInputError("learning rate and epochs must be positive and finite")
        if not (self.smooth_l1_beta >= 0 and self.l2_lambda >= 0 and self.clip_grad_norm >= 0):
            raise InvalidInputError("beta, lambda and the clip norm must be non-negative")
        r2 = self.retrain_r2_threshold
        if (isinstance(r2, bool) or not isinstance(r2, numbers.Real)
                or not -math.inf <= r2 <= math.inf):
            raise InvalidInputError(f"retrain_r2_threshold must be a number, got {r2!r}")
        try:
            lo, hi = self.cutoff_init_range
            ok = 0 <= lo <= hi < math.inf
        except (TypeError, ValueError):  # not a pair of numbers
            ok = False
        if not ok:
            raise InvalidInputError("cutoff_init_range must be two values 0 <= lo <= hi, "
                                    f"got {self.cutoff_init_range!r}")
        self.cutoff_init_range = (lo, hi)


def _sum(a: np.ndarray):
    """The sum along the last axis, without numpy's Python-level wrapper: a
    vector's is ``a.sum()`` (the same pairwise sum; divided by the length,
    ``a.mean()`` too), and a matrix's is that sum of each row, bit for bit."""
    return np.add.reduce(a, axis=-1)


def smooth_l1(x, y, beta: float):
    """Smooth L1 loss; beta = 0 degenerates to the absolute error."""
    return _huber(np.abs(np.asarray(x, dtype=np.float64) - y), beta)


def _huber(r, beta: float):
    """``smooth_l1`` of a residual r >= 0 (or -0.0, which gives +0.0 as
    well), without taking |r| again."""
    if beta == 0:
        return np.abs(r)
    return np.where(r <= beta, 0.5 / beta * r * r, r - 0.5 * beta)


_ONE, _MINUS_ONE = _operand(1.0), _operand(-1.0)


def _huber_slope(r, beta, out=None):
    """d/dx ``smooth_l1(x, y)`` at the residual r = x - y: r / beta clipped
    to [-1, 1], bit for bit the piecewise form, as |r| > beta gives
    |r| / beta >= 1.  Written into ``out`` (which may be ``r``) if given;
    beta may be an ``_operand``."""
    if not beta:
        return np.sign(r, out=out)
    s = np.divide(r, beta, out=out)
    return np.minimum(np.maximum(s, _MINUS_ONE, out=out), _ONE, out=out)


# ---------------------------------------------------------------------------
# Backward machinery
#
# A fit binds its epoch once, when ``_train_loop`` starts, after ``Adam``
# has moved the network into its flat vector: the ``_Workspace`` holds the
# input buffer, the forward pass (``ForwardBuffers``), the loss's slope
# call and the backward, and ``Adam`` its moments, slices and bias
# corrections.  An epoch is then one fixed run of numpy calls on those
# arrays: it allocates nothing and takes no view.  Every op writes through
# ``out=``, in the operation order of the expression it replaces, so every
# result keeps its bits.  Five rules keep them:
#
# - products run once per row block, or once over all rows, as
#   ``forward_cache`` says: a gemm over all rows only when every block has
#   an even row count;
# - the clip norm sums each array pairwise, along a contiguous last axis
#   (``np.add.reduceat`` sums in sequence, which differs);
# - each column sum over a block's rows is one reduce per array: one over
#   two arrays side by side sums a width-1 array's column in another order;
# - output gradients start from zeros and take each loss term's slope, in
#   term order;
# - frozen cutoffs skip projection only when all are at or above
#   ``CUTOFF_FLOOR``, where it changes nothing.
# ---------------------------------------------------------------------------


def _optional(skip) -> list:
    return [] if skip is None else [skip]


class _Layout:
    """Where one architecture's parameters sit in a flat float64 vector,
    ordered [weights | skip | biases | cutoffs]: the entries kept >= 0 are
    ``[:n_pos]``, the L2-penalised ones ``[:n_reg]`` and the cutoffs
    ``[n_reg:]``."""

    def __init__(self, weight_shapes: tuple, has_skip: bool):
        hidden = [(shape[0],) for shape in weight_shapes[:-1]]
        skip = [(weight_shapes[0][1],)] if has_skip else []
        self.groups, ends, end = [], [], 0
        for shapes in (weight_shapes, skip, hidden, hidden):
            self.groups.append([])
            for shape in shapes:
                self.groups[-1].append((end, end + math.prod(shape), shape))
                end = self.groups[-1][-1][1]
            ends.append(end)
        _, self.n_pos, self.n_reg, self.size = ends
        # each array's span in the order of ``Grads.arrays``
        self.array_spans = [(a, z) for k in (0, 2, 3, 1) for a, z, _ in self.groups[k]]
        # those arrays as runs of equal-length ones that also lie next to
        # each other in the vector: (start, arrays, length)
        self.norm_runs = []
        for a, z in self.array_spans:
            if self.norm_runs:
                start, count, length = self.norm_runs[-1]
                if start + count * length == a and z - a == length:
                    self.norm_runs[-1] = (start, count + 1, length)
                    continue
            self.norm_runs.append((a, 1, z - a))

    def views(self, flat: np.ndarray):
        """(weights, skip, biases, cutoffs) as views of ``flat``; of a
        matrix, one vector per row, as a stack along a leading axis."""
        lead = flat.shape[:-1]
        w, s, b, c = ([flat[..., a:z].reshape(*lead, *shape) for a, z, shape in g]
                      for g in self.groups)
        return w, s[0] if s else None, b, c


_layout = functools.lru_cache(maxsize=None)(_Layout)  # one layout per architecture


def _layout_of(params: MvnnParams) -> _Layout:
    return _layout(tuple(W.shape for W in params.weights), params.skip is not None)


def _net(layout: _Layout, flat: np.ndarray) -> MvnnParams:
    """The network whose arrays view ``flat``; of an (E, P) matrix, the
    stack of its rows' networks, as ``MvnnParams.stack`` lays it out."""
    weights, skip, biases, cutoffs = layout.views(flat)
    return MvnnParams(weights=weights, biases=biases, cutoffs=cutoffs, skip=skip)


class Grads:
    """Parameter gradients: ``weights``, ``biases``, ``cutoffs`` and ``skip``
    are views of the one buffer ``flat`` (see ``_Layout``), zeros unless
    given."""

    def __init__(self, layout: _Layout, flat: np.ndarray | None = None):
        self.layout = layout
        self.flat = np.zeros(layout.size) if flat is None else flat
        self.weights, self.skip, self.biases, self.cutoffs = layout.views(self.flat)
        # global_norm's squares and per-array sums, viewed run by run
        self._squares = np.empty(layout.size)
        self._sums = np.empty(len(layout.array_spans))
        ends = itertools.accumulate(count for _, count, _ in layout.norm_runs)
        self._norm_runs = [(self._squares[a:a + count * length].reshape(count, length),
                            self._sums[end - count:end])
                           for (a, count, length), end in zip(layout.norm_runs, ends)]

    @classmethod
    def zeros_like(cls, params: MvnnParams) -> "Grads":
        return cls(_layout_of(params))

    def arrays(self):
        return self.weights + self.biases + self.cutoffs + _optional(self.skip)

    def global_norm(self) -> float:
        """The L2 norm over every entry.  Each array's squares are summed
        pairwise, one reduce per run of ``_Layout.norm_runs`` (a matrix's
        row sums are bit for bit each row's own sum); the per-array sums
        are then added one by one in ``arrays`` order, a left fold, which
        the builtin ``sum`` of floats is not from Python 3.12 on."""
        np.multiply(self.flat, self.flat, out=self._squares)
        for rows, sums in self._norm_runs:
            np.add.reduce(rows, axis=-1, out=sums)
        return math.sqrt(functools.reduce(operator.add, self._sums.tolist()))


class _Workspace:
    """One fit's epoch, bound once for ``params`` and batches in row blocks
    of the sizes ``blocks`` (see ``forward_cache``): every array it writes
    and every view its numpy calls take.  These are the input ``X`` each
    batch is copied into, the forward pass on it (``forward``, outputs
    ``out``), the output gradient, the slope call ``loss(out, out_grad)``
    returns, and the backward's arrays; ``grads`` (made unless given) is
    the first block's gradients and their sum.  The backward's views:

    - ``output_blocks``, per row block: its rows of the output gradient,
      of the last layer's input and of the input, and its output-weight
      and skip gradients;
    - ``layers``, per hidden layer: the delta at its output, its
      pre-activations and cutoffs, its masks (above the cutoff, inside,
      below the cutoff), the saturated and the inner part of its delta,
      per row block the views of those parts (the inner one transposed
      too) and of the layer's input, with the block's cutoff, bias and
      weight gradients, and the calls of the product that carries the
      inner part to the delta below (none for the first layer)."""

    def __init__(self, params: MvnnParams, blocks: tuple[int, ...], loss, grads=None):
        rows = sum(blocks)
        self.params = params
        self.X = np.empty((rows, params.m))
        fwd = self.forward = ForwardBuffers(params, self.X, blocks)
        self.out = fwd.result
        self.out_grad = np.empty(rows)
        self.slopes = loss(self.out, self.out_grad)
        layout = _layout_of(params)
        # one gradient per row block, (weights, skip, biases, cutoffs), the
        # first one also their sum
        self.grads = g = Grads(layout) if grads is None else grads
        self._later_flats = list(np.zeros((len(blocks) - 1, layout.size)))
        parts = list(zip(fwd.spans, [(g.weights, g.skip, g.biases, g.cutoffs),
                                     *map(layout.views, self._later_flats)]))
        self.output_blocks = [(self.out_grad[s], fwd.Z[-1][s], self.X[s], w[-1][0], skip)
                              for s, (w, skip, _, _) in parts]
        self._out_grad_column, self._w_out = self.out_grad[:, None], params.weights[-1]
        self.layers = []
        for k, W in enumerate(params.weights[:-1]):
            delta, saturated, inner = np.empty((3, rows, W.shape[0]))
            spans = _product_spans(W.shape[0], blocks, fwd.spans)
            self.layers.append((
                delta, fwd.O[k], params.cutoffs[k],
                tuple(np.empty((3, rows, W.shape[0]), dtype=bool)), saturated, inner,
                [(saturated[s], inner[s], inner[s].T, fwd.Z[k][s], c[k], b[k], w[k])
                 for s, (w, _, b, c) in parts],
                _bind_product(inner, W, spans, self.layers[-1][0]) if k else []))

    def data_grads(self, x: np.ndarray, *targets) -> None:
        """Write into ``grads`` the data-loss gradients of the batch ``x``
        and the loss's ``targets``: copy, forward, slopes, backward."""
        np.copyto(self.X, x)
        forward_cache(self.params, self.X, buffers=self.forward)
        self.slopes(*targets)
        self.backward()

    def backward(self) -> None:
        """Write into ``grads`` the parameter gradients of
        sum_b out_grad[b] * net(X[b]), for ``out_grad`` and the forward pass
        held in ``forward``.

        Every row sum and product runs once per row block (see
        ``forward_cache``), into that block's gradients, and ``grads`` is
        the first block's with each later block's added in order: bit for
        bit the sum of one call per block.  The elementwise work runs once
        over all rows.  Every op writes through ``out=``, into the
        workspace; the products go through ``ndarray.dot``, as
        ``mvnn._bind_product``'s do."""
        for out_grad, z, x, w_grad, skip_grad in self.output_blocks:
            out_grad.dot(z, out=w_grad)
            if skip_grad is not None:
                out_grad.dot(x, out=skip_grad)
        if self.layers:
            np.multiply(self._out_grad_column, self._w_out, out=self.layers[-1][0])
        for delta, o, t, (above, inside, below_t), saturated, inner, blocks, down in reversed(
                self.layers):
            # z = t on the saturated region; subgradient 0 at the kinks themselves
            np.multiply(delta, np.greater(o, t, out=above), out=saturated)
            np.greater(o, _ZERO, out=inside)
            inside &= np.less(o, t, out=below_t)
            np.multiply(delta, inside, out=inner)
            for sat_rows, inner_rows, inner_rows_t, z, c_grad, b_grad, w_grad in blocks:
                np.add.reduce(sat_rows, axis=0, out=c_grad)
                np.add.reduce(inner_rows, axis=0, out=b_grad)
                inner_rows_t.dot(z, out=w_grad)
            _run(down)  # the input's own gradient is not needed
        total = self.grads.flat
        for flat in self._later_flats:
            total += flat


def _regularised(params: MvnnParams) -> np.ndarray:
    """Weights, skip and biases as one vector, the ``[:n_reg]`` of ``_Layout``."""
    return np.concatenate([a.ravel() for a in params.weights + _optional(params.skip)
                           + params.biases])


def _add_l2(g: np.ndarray, theta: np.ndarray, lam: float, scratch=None) -> None:
    """Add 2 * lam * theta, the gradient of the penalty lam * ||theta||^2,
    to ``g``, the same prefix of a gradient vector, for ``theta`` as
    ``_regularised``; ``scratch``, of theta's size, takes the product if
    given."""
    if lam != 0:
        g += np.multiply(theta, 2 * lam, out=scratch)


class Adam:
    """Adam with the L2 penalty ``hyper.l2_lambda`` on weights, biases and
    skip, and projection back onto the sign-constrained set after each step.

    The network's arrays are moved into one flat vector, ``theta``, in
    ``layout`` order and rebound as views of it, so each update is one
    operation on that vector.  The moments m and v are the two rows of one
    (2, P) matrix, stepped together.  ``step`` takes the gradients of the
    data loss alone, in ``grads``, and adds the L2 gradient itself, before
    clipping; every slice it takes is made here.
    """

    def __init__(self, params: MvnnParams, hyper: TrainHyper):
        self.params = params
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.layout = layout = _layout_of(params)
        self.theta = np.concatenate([_regularised(params), *params.cutoffs])
        params.weights, params.skip, params.biases, params.cutoffs = layout.views(self.theta)
        self.grads = Grads(layout)
        self._clip = hyper.clip_grad_norm
        self._lr, self._eps, self._floor = map(_operand, (hyper.learning_rate, self.eps,
                                                         CUTOFF_FLOOR))
        # frozen cutoffs are the vector's tail: only the prefix is stepped
        n = layout.size if hyper.trainable_cutoffs else layout.n_reg
        # the moments, a scratch row for each, and each row's factors
        self._moments, self._scratch = np.zeros((2, n)), np.empty((2, n))
        self._rows = tuple(self._scratch)
        self._decay = np.array([[self.beta1], [self.beta2]])
        self._gain = np.array([[1 - self.beta1], [1 - self.beta2]])
        # step t's (2, 1) corrections [1 - beta1**t, 1 - beta2**t], by that expression
        self._corrections = list(np.array([1 - beta**t for t in range(hyper.epochs + 1)
                                           for beta in (self.beta1, self.beta2)]).reshape(-1, 2, 1))
        self._g, self._stepped = self.grads.flat[:n], self.theta[:n]
        self._l2 = (self.grads.flat[: layout.n_reg], self.theta[: layout.n_reg], hyper.l2_lambda,
                    self._scratch[0, : layout.n_reg])
        self._pos = self.theta[: layout.n_pos]
        self._neg = self.theta[layout.n_pos: layout.n_reg]
        self._cutoffs = self.theta[layout.n_reg:]
        # frozen cutoffs at or above the floor stay there: projecting is a no-op
        self._floor_cutoffs = hyper.trainable_cutoffs or not (self._cutoffs >= CUTOFF_FLOOR).all()

    def step(self) -> None:
        """One step on ``grads``, of at most ``hyper.epochs``."""
        a, b = self._rows
        _add_l2(*self._l2)
        norm = self.grads.global_norm()
        if self._clip and norm > self._clip:
            self.grads.flat *= self._clip / (norm + 1e-12)
        self.t += 1
        # in place, in the operation order of
        #   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        #   theta -= lr (m / b1c) / (sqrt(v / b2c) + eps)
        g = self._g
        self._moments *= self._decay
        np.multiply(g, self._gain, out=self._scratch)
        b *= g
        self._moments += self._scratch
        np.divide(self._moments, self._corrections[self.t], out=self._scratch)
        a *= self._lr
        np.sqrt(b, out=b)
        b += self._eps
        a /= b
        self._stepped -= a
        self.project()

    def project(self) -> None:
        np.maximum(self._pos, _ZERO, out=self._pos)
        np.minimum(self._neg, _ZERO, out=self._neg)
        if self._floor_cutoffs:
            np.maximum(self._cutoffs, self._floor, out=self._cutoffs)


# ---------------------------------------------------------------------------
# Mean-network training
# ---------------------------------------------------------------------------


def _mean_slopes(out: np.ndarray, out_grad: np.ndarray, beta: float):
    """The smooth-L1 batch mean's output slopes, bound to the outputs
    ``out`` and written into ``out_grad``: the call on an epoch's y."""
    n, beta = _operand(len(out_grad)), _operand(beta)

    def slopes(y):
        np.subtract(out, y, out=out_grad)
        _huber_slope(out_grad, beta, out=out_grad)
        np.divide(out_grad, n, out=out_grad)

    return slopes


def r_squared(pred: np.ndarray, y: np.ndarray) -> float:
    ss_res = float(((pred - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _epoch_draws(rng: np.random.Generator, epochs: int, n: int, arts=None) -> np.ndarray:
    """Every epoch's random draws, made up front in the order an
    epoch-by-epoch loop makes them: a permutation of the n reports, then,
    given ``arts`` (epochs, n_art, m), that epoch's Unif[0, 1) artificial
    points, written into it.  Returns the permutations (epochs, n).

    Each permutation is ``rng.permutation(n)``, which shuffles
    ``arange(n)``, and each set of points ``rng.uniform(0.0, 1.0)``'s,
    which are ``random``'s draws times 1.0 plus 0.0: the same draws and
    numbers, written in place.  Without points, one ``rng.permuted`` call
    shuffles the rows in order, as one shuffle per row does."""
    perms = np.empty((epochs, n), dtype=np.intp)
    perms[:] = np.arange(n)
    if arts is None:
        return rng.permuted(perms, axis=1, out=perms)
    for e in range(epochs):
        rng.shuffle(perms[e])
        rng.random(out=arts[e])
    return perms


def _train_loop(params: MvnnParams, hyper: TrainHyper, blocks: tuple[int, ...], batches,
                loss) -> np.ndarray:
    """One full-batch Adam step per item of ``batches``, one item per epoch;
    returns every epoch's flat parameters (``_Layout`` order) as an
    (epochs + 1, P) matrix whose row 0 is the start.  It only optimises:
    the caller scores the rows and keeps the best with ``_best_epoch``,
    and ``_net`` views the matrix as a stack of the epochs' networks.

    Each batch is (x, *targets): x's rows form blocks of the sizes
    ``blocks``, and ``loss(out, out_grad)``, called once per fit, binds the
    loss's output slopes to the network's outputs and the output gradient
    and returns the call that takes an epoch's targets.  The fit's
    ``_Workspace`` and ``Adam`` bind everything else once, so an epoch
    copies x into the workspace's input and runs the bound calls: forward,
    slopes, backward, and the step, which adds the L2 term.

    Draw order: the loop draws nothing.  Each batch carries its epoch's
    draws from ``_epoch_draws``, made before the loop: the reports in a
    fresh permutation (the shuffle leaves the full-batch loss unchanged,
    but it fixes the rows' summation order), then, for the learned bound,
    the artificial points.  A generator gives the same numbers whether they
    are drawn up front or epoch by epoch, so the fit is the same as well.
    """
    opt = Adam(params, hyper)  # rebinds the network's arrays: bind after it
    ws = _Workspace(params, blocks, loss, opt.grads)
    thetas = np.empty((hyper.epochs + 1, opt.layout.size))
    thetas[0] = opt.theta
    for theta, batch in zip(thetas[1:], batches):
        ws.data_grads(*batch)
        opt.step()
        np.copyto(theta, opt.theta)
    return thetas


class _Kept(threading.local):
    """Float64 arrays kept from fit to fit, per thread: one flat array per
    name, grown to the largest size asked for, of which ``take`` views the
    first entries in the shape asked for.  A fit's scoring arrays and
    batches run to hundreds of KB; made afresh, the allocator maps them
    anew, and their pages fault in again, on every fit.  They live here,
    not with a caller, because ``train_uub``'s callers make one call per
    fit; a fit writes every entry it reads, so no fit sees another's."""

    def __init__(self):
        self.flats: dict = {}

    def take(self, name, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self.flats.get(name)
        if flat is None or flat.size < size:
            flat = self.flats[name] = np.empty(size)
        return flat[:size].reshape(shape)

    def empties(self, name):
        """An ``empty`` for ``ForwardBuffers``: its i-th array is kept as
        (name, i)."""
        count = itertools.count()
        return lambda shape: self.take((name, next(count)), shape)


_kept = _Kept()


def _best_epoch(scores) -> int:
    """The first epoch with the strictly lowest score, compared in order as
    ``score < best``: a NaN start keeps epoch 0, and a later NaN never wins."""
    best = 0
    for e in range(1, len(scores)):
        if scores[e] < scores[best]:
            best = e
    return best


def train_mean(
    reports: list[tuple[np.ndarray, float]],
    layer_dims: list[int],
    init_hyper,
    train_hyper: TrainHyper,
    seed: int = 0,
    skip: bool = False,
) -> MvnnParams:
    """Fit a monotone mean network to one bidder's reports.

    Keeps the best epoch by training MAE and retrains once from a fresh seed
    when the training R^2 ends below the configured threshold.  Scoring
    comes after the loop: the epochs' networks, start included, form one
    stack, scored in one forward pass over the reports, each MAE bit for
    bit what one ``forward`` per epoch gives (see ``forward_cache``).
    ``domain.report_arrays`` checks the reports.
    """
    X, y = report_arrays(reports, layer_dims[0])

    def attempt(s):
        rng = np.random.default_rng(s)
        params = init_params(
            layer_dims, init_hyper, train_hyper.cutoff_init_range, rng, skip=skip
        )
        perms = _epoch_draws(rng, train_hyper.epochs, len(y))
        loss = functools.partial(_mean_slopes, beta=train_hyper.smooth_l1_beta)
        thetas = _train_loop(params, train_hyper, (len(y),), zip(X[perms], y[perms]), loss)
        layout = _layout_of(params)
        maes = _sum(np.abs(forward_cache(_net(layout, thetas), X)[0] - y)) / len(y)
        e = _best_epoch(maes)
        return _net(layout, thetas[e].copy()), maes[e]

    best, best_mae = attempt(seed)
    if r_squared(best.forward(X), y) < train_hyper.retrain_r2_threshold:
        retry, retry_mae = attempt(seed + 1)
        if retry_mae < best_mae:
            best = retry
    return best
