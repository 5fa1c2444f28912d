"""Constrained training of monotone networks by hand-derived gradients.

Gradients are derived for this fixed architecture family rather than pulled
from an autodiff framework.  Sign constraints are kept by projection: after
every optimizer step weights are clamped to >= 0, biases to <= 0 and
cutoffs to >= CUTOFF_FLOOR.  The bounded-ReLU subgradient is taken as zero
at exactly 0 and exactly the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mvnn import MvnnParams, init_params

CUTOFF_FLOOR = 1e-3


@dataclass
class TrainHyper:
    learning_rate: float = 0.01
    l2_lambda: float = 1e-6
    epochs: int = 200
    batch_size: int | None = None  # None = full batch
    dropout_p: float = 0.0
    dropout_decay: float = 1.0
    clip_grad_norm: float = 1.0
    smooth_l1_beta: float = 1.0 / 64.0
    trainable_cutoffs: bool = False
    cutoff_init_range: tuple[float, float] = (0.1, 1.0)
    retrain_r2_threshold: float = 0.9

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1:
            raise InvalidInputError("learning rate and epochs must be positive")
        if not (0 <= self.dropout_p <= 0.8):
            raise InvalidInputError("dropout probability must lie in [0, 0.8]")
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
# Forward / backward machinery
# ---------------------------------------------------------------------------


def forward_cache(params: MvnnParams, X: np.ndarray, masks=None):
    """Forward pass keeping pre- and post-activations for backprop.

    ``masks`` are optional inverted-dropout multipliers per hidden layer.
    """
    Z = [X]
    O = []
    z = X
    for k in range(params.num_hidden):
        o = z @ params.weights[k].T + params.biases[k]
        z = np.clip(o, 0.0, params.cutoffs[k])
        if masks is not None:
            z = z * masks[k]
        O.append(o)
        Z.append(z)
    out = (z @ params.weights[-1].T).ravel()
    if params.skip is not None:
        out = out + X @ params.skip
    return out, O, Z


@dataclass
class Grads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    cutoffs: list[np.ndarray]
    skip: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, params: MvnnParams) -> "Grads":
        return cls(
            weights=[np.zeros_like(W) for W in params.weights],
            biases=[np.zeros_like(b) for b in params.biases],
            cutoffs=[np.zeros_like(t) for t in params.cutoffs],
            skip=None if params.skip is None else np.zeros_like(params.skip),
        )

    def add(self, other: "Grads") -> None:
        for a, b in zip(self.weights, other.weights):
            a += b
        for a, b in zip(self.biases, other.biases):
            a += b
        for a, b in zip(self.cutoffs, other.cutoffs):
            a += b
        if self.skip is not None and other.skip is not None:
            self.skip += other.skip

    def arrays(self):
        out = self.weights + self.biases + self.cutoffs
        if self.skip is not None:
            out = out + [self.skip]
        return out

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float((g * g).sum()) for g in self.arrays())))

    def scale(self, c: float) -> None:
        for g in self.arrays():
            g *= c


def backward(params: MvnnParams, X, O, Z, out_grad, masks=None) -> Grads:
    """Parameter gradients of sum_b out_grad[b] * net(X[b])."""
    g = Grads.zeros_like(params)
    zz = Z[-1]
    g.weights[-1][:] = (out_grad @ zz).reshape(1, -1)
    if params.skip is not None:
        g.skip[:] = out_grad @ X
    delta = out_grad[:, None] * params.weights[-1]
    for k in range(params.num_hidden - 1, -1, -1):
        if masks is not None:
            delta = delta * masks[k]
        o, t = O[k], params.cutoffs[k]
        # z = t on the saturated region; subgradient 0 at the kinks themselves
        g.cutoffs[k][:] = (delta * (o > t)).sum(axis=0)
        do = delta * ((o > 0) & (o < t))
        g.biases[k][:] = do.sum(axis=0)
        g.weights[k][:] = do.T @ Z[k]
        delta = do @ params.weights[k]
    return g


def add_l2_grads(g: Grads, params: MvnnParams, lam: float) -> float:
    """Add gradients of lam * ||theta||^2 (weights, biases, skip); return the
    penalty value."""
    if lam == 0:
        return 0.0
    val = 0.0
    for gw, W in zip(g.weights, params.weights):
        gw += 2 * lam * W
        val += float((W * W).sum())
    for gb, b in zip(g.biases, params.biases):
        gb += 2 * lam * b
        val += float((b * b).sum())
    if params.skip is not None:
        g.skip += 2 * lam * params.skip
        val += float((params.skip * params.skip).sum())
    return lam * val


class Adam:
    """Adam over the parameter list, with projection back onto the
    sign-constrained set after each step."""

    def __init__(self, params: MvnnParams, hyper: TrainHyper):
        self.params = params
        self.hyper = hyper
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self._m = Grads.zeros_like(params)
        self._v = Grads.zeros_like(params)

    def _param_arrays(self):
        p = self.params
        out = list(p.weights) + list(p.biases)
        if self.hyper.trainable_cutoffs:
            out += list(p.cutoffs)
        else:
            out += [None] * len(p.cutoffs)
        if p.skip is not None:
            out.append(p.skip)
        return out

    def step(self, grads: Grads) -> None:
        h = self.hyper
        norm = grads.global_norm()
        if h.clip_grad_norm and norm > h.clip_grad_norm:
            grads.scale(h.clip_grad_norm / (norm + 1e-12))
        self.t += 1
        lr = h.learning_rate
        b1c = 1 - self.beta1**self.t
        b2c = 1 - self.beta2**self.t
        for theta, g, m, v in zip(
            self._param_arrays(), grads.arrays(), self._m.arrays(), self._v.arrays()
        ):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            if theta is None:
                continue  # frozen cutoffs
            theta -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        self.project()

    def project(self) -> None:
        p = self.params
        for W in p.weights:
            np.maximum(W, 0.0, out=W)
        for b in p.biases:
            np.minimum(b, 0.0, out=b)
        for t in p.cutoffs:
            np.maximum(t, CUTOFF_FLOOR, out=t)
        if p.skip is not None:
            np.maximum(p.skip, 0.0, out=p.skip)


# ---------------------------------------------------------------------------
# Mean-network training
# ---------------------------------------------------------------------------


def mean_loss_and_grads(params: MvnnParams, X, y, hyper: TrainHyper, masks=None):
    """Smooth-L1 data loss (batch mean) plus L2 penalty, with gradients;
    ``masks`` are optional dropout multipliers as in :func:`forward_cache`."""
    out, O, Z = forward_cache(params, X, masks)
    B = X.shape[0]
    data = float(smooth_l1(out, y, hyper.smooth_l1_beta).mean())
    out_grad = smooth_l1_grad(out, y, hyper.smooth_l1_beta) / B
    g = backward(params, X, O, Z, out_grad, masks)
    reg = add_l2_grads(g, params, hyper.l2_lambda)
    return data + reg, g


def r_squared(pred: np.ndarray, y: np.ndarray) -> float:
    ss_res = float(((pred - y) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _dropout_masks(params: MvnnParams, B: int, p: float, rng) -> list[np.ndarray] | None:
    if p <= 0:
        return None
    masks = []
    for k in range(params.num_hidden):
        d = params.weights[k].shape[0]
        masks.append((rng.random((B, d)) >= p) / (1.0 - p))
    return masks


def _train_loop(params: MvnnParams, X, y, hyper: TrainHyper, rng, batch_grads, score):
    """Adam over shuffled mini-batches of (X, y); returns the parameters and
    score of the epoch (the start counting as epoch 0) with the lowest
    ``score(params)``.  ``batch_grads(params, xb, yb, p_drop)`` returns one
    batch's gradients at the current, decayed dropout probability."""
    n = X.shape[0]
    bs = hyper.batch_size or n
    opt = Adam(params, hyper)
    best = params.copy()
    best_loss = score(params)
    p_drop = hyper.dropout_p
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for s in range(0, n, bs):
            idx = order[s : s + bs]
            opt.step(batch_grads(params, X[idx], y[idx], p_drop))
        p_drop *= hyper.dropout_decay
        cur = score(params)
        if cur < best_loss:
            best_loss = cur
            best = params.copy()
    return best, best_loss


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

        def batch_grads(p, xb, yb, p_drop):
            masks = _dropout_masks(p, xb.shape[0], p_drop, rng)
            return mean_loss_and_grads(p, xb, yb, train_hyper, masks)[1]

        return _train_loop(params, X, y, train_hyper, rng, batch_grads, train_mae)

    best, best_mae = attempt(seed)
    if r_squared(best.forward(X), y) < train_hyper.retrain_r2_threshold:
        retry, retry_mae = attempt(seed + 1)
        if retry_mae < best_mae:
            best = retry
    best.validate()
    return best
