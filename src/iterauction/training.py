"""Constrained training of monotone networks by hand-derived gradients.

Gradients are derived for this fixed architecture family rather than pulled
from an autodiff framework.  Sign constraints are kept by projection: after
every optimizer step weights are clamped to >= 0, biases to <= 0 and
cutoffs to >= CUTOFF_FLOOR.  The bounded-ReLU subgradient is taken as zero
at exactly 0 and exactly the cutoff.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .domain import report_arrays
from .errors import InvalidInputError
from .mvnn import CUTOFF_FLOOR, MvnnParams, _per_block, _row_spans, forward_cache, init_params


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


def _huber_slope(r, beta: float):
    """d/dx ``smooth_l1(x, y)`` at the residual r = x - y: r / beta clipped
    to [-1, 1], bit for bit the piecewise form, as |r| > beta gives
    |r| / beta >= 1."""
    if beta == 0:
        return np.sign(r)
    return np.minimum(np.maximum(r / beta, -1.0), 1.0)


# ---------------------------------------------------------------------------
# Backward machinery
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
    are views of the one buffer ``flat`` (see ``_Layout``)."""

    def __init__(self, layout: _Layout):
        self.layout = layout
        self.flat = np.zeros(layout.size)
        self.weights, self.skip, self.biases, self.cutoffs = layout.views(self.flat)
        self._spares: list[Grads] = []

    @classmethod
    def zeros_like(cls, params: MvnnParams) -> "Grads":
        return cls(_layout_of(params))

    def spares(self, k: int) -> list["Grads"]:
        """k more buffers of this layout, made on first use and then reused:
        ``_backward``'s scratch for its later row blocks."""
        while len(self._spares) < k:
            self._spares.append(Grads(self.layout))
        return self._spares[:k]

    def arrays(self):
        return self.weights + self.biases + self.cutoffs + _optional(self.skip)

    def global_norm(self) -> float:
        """The L2 norm over every entry: one squared buffer, summed per
        array in ``arrays`` order."""
        sq = self.flat * self.flat
        return math.sqrt(sum(_sum(sq[a:z]) for a, z in self.layout.array_spans))


def _backward(g: Grads, params: MvnnParams, X, O, Z, out_grad, blocks=None) -> None:
    """Write into ``g`` the parameter gradients of sum_b out_grad[b] * net(X[b]).

    With ``blocks`` (as in ``forward_cache``) every row sum and product runs
    once per block, and ``g`` is the first block's gradients with each later
    block's added in order: bit for bit the sum of one call per block.  The
    later blocks write into ``g.spares``, every entry through ``out=``.  The
    elementwise work runs once over all rows."""
    spans = [slice(None)] if blocks is None else _row_spans(blocks)
    parts = list(zip(spans, [g] + g.spares(len(spans) - 1)))
    for s, d in parts:
        np.matmul(out_grad[s], Z[-1][s], out=d.weights[-1][0])
        if params.skip is not None:
            np.matmul(out_grad[s], X[s], out=d.skip)
    delta = out_grad[:, None] * params.weights[-1]
    for k in range(params.num_hidden - 1, -1, -1):
        o, t = O[k], params.cutoffs[k]
        # z = t on the saturated region; subgradient 0 at the kinks themselves
        sat = delta * (o > t)
        do = delta * ((o > 0) & (o < t))
        for s, d in parts:
            np.add.reduce(sat[s], axis=0, out=d.cutoffs[k])
            np.add.reduce(do[s], axis=0, out=d.biases[k])
            np.matmul(do[s].T, Z[k][s], out=d.weights[k])
        if k:  # the input's own gradient is not needed
            W = params.weights[k]
            delta = do @ W if blocks is None else _per_block(do, W, blocks)
    for _, d in parts[1:]:
        g.flat += d.flat


def _regularised(params: MvnnParams) -> np.ndarray:
    """Weights, skip and biases as one vector, the ``[:n_reg]`` of ``_Layout``."""
    return np.concatenate([a.ravel() for a in params.weights + _optional(params.skip)
                           + params.biases])


def _add_l2(g: Grads, theta: np.ndarray, lam: float) -> None:
    """Add 2 * lam * theta, the gradient of the penalty lam * ||theta||^2,
    to the same prefix of ``g.flat``, for ``theta`` as ``_regularised``."""
    if lam != 0:
        g.flat[: theta.size] += 2 * lam * theta


class Adam:
    """Adam with the L2 penalty ``hyper.l2_lambda`` on weights, biases and
    skip, and projection back onto the sign-constrained set after each step.

    The network's arrays are moved into one flat vector, ``theta``, in
    ``layout`` order and rebound as views of it, so each update is one
    operation on that vector.  ``step`` takes the gradients of the data
    loss alone and adds the L2 gradient itself, before clipping.
    """

    def __init__(self, params: MvnnParams, hyper: TrainHyper):
        self.params = params
        self.hyper = hyper
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.layout = _layout_of(params)
        self.theta = np.concatenate([_regularised(params), *params.cutoffs])
        params.weights, params.skip, params.biases, params.cutoffs = self.layout.views(self.theta)
        # frozen cutoffs are the vector's tail: only the prefix is stepped
        self._n_step = self.layout.size if hyper.trainable_cutoffs else self.layout.n_reg
        # the moments and two scratch buffers
        self._m, self._v, self._a, self._b = np.zeros((4, self._n_step))

    def step(self, grads: Grads) -> None:
        h, n = self.hyper, self._n_step
        _add_l2(grads, self.theta[: self.layout.n_reg], h.l2_lambda)
        norm = grads.global_norm()
        if h.clip_grad_norm and norm > h.clip_grad_norm:
            grads.flat *= h.clip_grad_norm / (norm + 1e-12)
        self.t += 1
        b1c = 1 - self.beta1**self.t
        b2c = 1 - self.beta2**self.t
        # in place, in the operation order of
        #   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        #   theta -= lr (m / b1c) / (sqrt(v / b2c) + eps)
        g, m, v, a, b = grads.flat[:n], self._m, self._v, self._a, self._b
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=a)
        np.multiply(g, 1 - self.beta2, out=a)
        a *= g
        v *= self.beta2
        v += a
        np.divide(m, b1c, out=a)
        a *= h.learning_rate
        np.divide(v, b2c, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.theta[:n] -= a
        self.project()

    def project(self) -> None:
        theta, n_pos, n_reg = self.theta, self.layout.n_pos, self.layout.n_reg
        np.maximum(theta[:n_pos], 0.0, out=theta[:n_pos])
        np.minimum(theta[n_pos:n_reg], 0.0, out=theta[n_pos:n_reg])
        np.maximum(theta[n_reg:], CUTOFF_FLOOR, out=theta[n_reg:])


# ---------------------------------------------------------------------------
# Mean-network training
# ---------------------------------------------------------------------------


def _mean_data_grads(g: Grads, params: MvnnParams, X, y, hyper: TrainHyper):
    """Write into ``g`` the gradients of the smooth-L1 batch mean; return
    the network's outputs."""
    out, O, Z = forward_cache(params, X)
    out_grad = _huber_slope(out - y, hyper.smooth_l1_beta) / X.shape[0]
    _backward(g, params, X, O, Z, out_grad)
    return out


def r_squared(pred: np.ndarray, y: np.ndarray) -> float:
    ss_res = float(((pred - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _epoch_draws(rng: np.random.Generator, epochs: int, n: int, art_shape=None):
    """Every epoch's random draws, made up front in the order an
    epoch-by-epoch loop makes them: a permutation of the n reports, then,
    given ``art_shape``, that many Unif[0, 1) artificial points.  Returns
    the permutations (epochs, n) and the points (epochs, *art_shape), or
    None for them."""
    perms = np.empty((epochs, n), dtype=np.intp)
    arts = None if art_shape is None else np.empty((epochs, *art_shape))
    for e in range(epochs):
        perms[e] = rng.permutation(n)
        if arts is not None:
            arts[e] = rng.uniform(0.0, 1.0, size=art_shape)
    return perms, arts


def _train_loop(params: MvnnParams, hyper: TrainHyper, batches, batch_grads) -> np.ndarray:
    """One full-batch Adam step per item of ``batches``, one item per epoch;
    returns every epoch's flat parameters (``_Layout`` order) as an
    (epochs + 1, P) matrix whose row 0 is the start.  It only optimises:
    the caller scores the rows and keeps the best with ``_best_epoch``,
    and ``_net`` views the matrix as a stack of the epochs' networks.
    ``batch_grads(g, params, *batch)`` writes into ``g`` the data-loss
    gradients of that epoch's batch; ``Adam.step`` adds the L2 term.

    Draw order: the loop draws nothing.  Each batch carries its epoch's
    draws from ``_epoch_draws``, made before the loop: the reports in a
    fresh permutation (the shuffle leaves the full-batch loss unchanged,
    but it fixes the rows' summation order), then, for the learned bound,
    the artificial points.  A generator gives the same numbers whether they
    are drawn up front or epoch by epoch, so the fit is the same as well.
    """
    opt = Adam(params, hyper)
    g = Grads.zeros_like(params)
    thetas = [opt.theta.copy()]
    for batch in batches:
        batch_grads(g, params, *batch)
        opt.step(g)
        thetas.append(opt.theta.copy())
    return np.stack(thetas)


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
        perms, _ = _epoch_draws(rng, train_hyper.epochs, X.shape[0])
        batch_grads = functools.partial(_mean_data_grads, hyper=train_hyper)
        thetas = _train_loop(params, train_hyper, zip(X[perms], y[perms]), batch_grads)
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
