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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mvnn import MvnnParams, forward_cache, init_params

CUTOFF_FLOOR = 1e-3


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
        self.cutoff_init_range = tuple(self.cutoff_init_range)
        if self.learning_rate <= 0 or self.epochs < 1:
            raise InvalidInputError("learning rate and epochs must be positive")
        if self.smooth_l1_beta < 0 or self.l2_lambda < 0:
            raise InvalidInputError("beta and lambda must be non-negative")


def smooth_l1(x, y, beta: float):
    """Smooth L1 loss; beta = 0 degenerates to the absolute error."""
    r = np.abs(np.asarray(x, dtype=np.float64) - y)
    if beta == 0:
        return r
    return np.where(r <= beta, 0.5 / beta * r * r, r - 0.5 * beta)


def smooth_l1_grad(x, y, beta: float):
    """d/dx smooth_l1(x, y)."""
    r = np.asarray(x, dtype=np.float64) - y
    if beta == 0:
        return np.sign(r)
    return np.where(np.abs(r) <= beta, r / beta, np.sign(r))


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

    def views(self, flat: np.ndarray):
        """(weights, skip, biases, cutoffs) as views of ``flat``."""
        w, s, b, c = ([flat[a:z].reshape(shape) for a, z, shape in g] for g in self.groups)
        return w, s[0] if s else None, b, c


_layout = functools.lru_cache(maxsize=None)(_Layout)  # one layout per architecture


def _layout_of(params: MvnnParams) -> _Layout:
    return _layout(tuple(W.shape for W in params.weights), params.skip is not None)


class Grads:
    """Parameter gradients: ``weights``, ``biases``, ``cutoffs`` and ``skip``
    are views of the one buffer ``flat`` (see ``_Layout``)."""

    def __init__(self, layout: _Layout):
        self.flat = np.zeros(layout.size)
        self.weights, self.skip, self.biases, self.cutoffs = layout.views(self.flat)

    @classmethod
    def zeros_like(cls, params: MvnnParams) -> "Grads":
        return cls(_layout_of(params))

    def arrays(self):
        return self.weights + self.biases + self.cutoffs + _optional(self.skip)

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float((g * g).sum()) for g in self.arrays())))


def _backward(g: Grads, params: MvnnParams, X, O, Z, out_grad, add: bool) -> None:
    """Write into ``g`` (or, with ``add``, add to it) the parameter gradients
    of sum_b out_grad[b] * net(X[b])."""
    put = (lambda dst, val: np.add(dst, val, out=dst)) if add else np.copyto
    put(g.weights[-1], (out_grad @ Z[-1]).reshape(1, -1))
    if params.skip is not None:
        put(g.skip, out_grad @ X)
    delta = out_grad[:, None] * params.weights[-1]
    for k in range(params.num_hidden - 1, -1, -1):
        o, t = O[k], params.cutoffs[k]
        # z = t on the saturated region; subgradient 0 at the kinks themselves
        put(g.cutoffs[k], (delta * (o > t)).sum(axis=0))
        do = delta * ((o > 0) & (o < t))
        put(g.biases[k], do.sum(axis=0))
        put(g.weights[k], do.T @ Z[k])
        delta = do @ params.weights[k]


def _regularised(params: MvnnParams) -> np.ndarray:
    """Weights, skip and biases as one vector, the ``[:n_reg]`` of ``_Layout``."""
    return np.concatenate([a.ravel() for a in params.weights + _optional(params.skip)
                           + params.biases])


def _add_l2(g: Grads, theta: np.ndarray, lam: float) -> float:
    """Add 2 * lam * theta, the gradient of lam * ||theta||^2, to the same
    prefix of ``g.flat``, for ``theta`` as ``_regularised``; return the penalty."""
    if lam == 0:
        return 0.0
    g.flat[: theta.size] += 2 * lam * theta
    return lam * float(theta @ theta)


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
        self._m = np.zeros(self._n_step)
        self._v = np.zeros(self._n_step)

    def step(self, grads: Grads) -> None:
        h, n = self.hyper, self._n_step
        _add_l2(grads, self.theta[: self.layout.n_reg], h.l2_lambda)
        norm = grads.global_norm()
        if h.clip_grad_norm and norm > h.clip_grad_norm:
            grads.flat *= h.clip_grad_norm / (norm + 1e-12)
        self.t += 1
        b1c = 1 - self.beta1**self.t
        b2c = 1 - self.beta2**self.t
        g, m, v = grads.flat[:n], self._m, self._v
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * g * g
        self.theta[:n] -= h.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
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
    out_grad = smooth_l1_grad(out, y, hyper.smooth_l1_beta) / X.shape[0]
    _backward(g, params, X, O, Z, out_grad, add=False)
    return out


def mean_loss_and_grads(params: MvnnParams, X, y, hyper: TrainHyper):
    """Smooth-L1 data loss (batch mean) plus L2 penalty, with gradients."""
    g = Grads.zeros_like(params)
    out = _mean_data_grads(g, params, X, y, hyper)
    data = float(smooth_l1(out, y, hyper.smooth_l1_beta).mean())
    return data + _add_l2(g, _regularised(params), hyper.l2_lambda), g


def r_squared(pred: np.ndarray, y: np.ndarray) -> float:
    ss_res = float(((pred - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _train_loop(params: MvnnParams, X, y, hyper: TrainHyper, rng, batch_grads, score):
    """One full-batch Adam step per epoch on (X, y); returns the parameters
    and score of the epoch (the start counting as epoch 0) with the lowest
    ``score(params)``.  ``batch_grads(g, params, X, y)`` writes into ``g``
    the data-loss gradients; ``Adam.step`` adds the L2 term."""
    n = X.shape[0]
    opt = Adam(params, hyper)
    g = Grads.zeros_like(params)
    best = opt.theta.copy()  # the best epoch's flat vector; the network is built once, at the end
    best_loss = score(params)
    for _ in range(hyper.epochs):
        # The shuffle leaves the full-batch loss unchanged, but it fixes the
        # rows' summation order and the random stream the callbacks share.
        idx = rng.permutation(n)
        batch_grads(g, params, X[idx], y[idx])
        opt.step(g)
        cur = score(params)
        if cur < best_loss:
            best_loss = cur
            np.copyto(best, opt.theta)
    weights, skip, biases, cutoffs = opt.layout.views(best)
    return MvnnParams(weights=weights, biases=biases, cutoffs=cutoffs, skip=skip), best_loss


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
    when the training R^2 ends below the configured threshold.
    """
    if not reports:
        raise InvalidInputError("cannot train on an empty report list")
    X = np.stack([np.asarray(b, dtype=np.float64) for b, _ in reports])
    y = np.asarray([v for _, v in reports], dtype=np.float64)

    def train_mae(p):
        return float(np.abs(p.forward(X) - y).mean())

    def attempt(s):
        rng = np.random.default_rng(s)
        params = init_params(
            layer_dims, init_hyper, train_hyper.cutoff_init_range, rng, skip=skip
        )
        batch_grads = functools.partial(_mean_data_grads, hyper=train_hyper)
        return _train_loop(params, X, y, train_hyper, rng, batch_grads, train_mae)

    best, best_mae = attempt(seed)
    if r_squared(best.forward(X), y) < train_hyper.retrain_r2_threshold:
        retry, retry_mae = attempt(seed + 1)
        if retry_mae < best_mae:
            best = retry
    best.validate()
    return best
