"""The epoch-by-epoch training loop, written term by term, as the reference
that ``train_mean`` and ``train_uub`` must match bit for bit.

Every epoch draws its permutation (and, for the learned bound, its
artificial points) from the generator as it goes, evaluates the frozen
networks on that epoch's points, runs one forward and one backward pass per
block of rows, and steps Adam one array at a time.  The loss terms use the
piecewise smooth-L1 forms.  Only ``forward_cache`` on a single block,
``init_params`` and the NOMU gate come from the library.
"""

import functools
import operator

import numpy as np

from iterauction.mvnn import CUTOFF_FLOOR, forward_cache, init_params
from iterauction.training import Grads, r_squared
from iterauction.uub import g_gate


def piecewise_smooth_l1(x, y, beta):
    r = np.abs(np.asarray(x, dtype=np.float64) - y)
    if beta == 0:
        return r
    return np.where(r <= beta, 0.5 / beta * r * r, r - 0.5 * beta)


def piecewise_smooth_l1_grad(x, y, beta):
    r = np.asarray(x, dtype=np.float64) - y
    if beta == 0:
        return np.sign(r)
    return np.where(np.abs(r) <= beta, r / beta, np.sign(r))


def piecewise_gate_grad(x):
    return np.where(x >= 0, 1.0, np.exp(np.minimum(x, 0.0)))


def reference_loss_terms(out_tr, out_art, y, mean_art, exact_art, hyper, beta):
    """Each NOMU term as (value, d/d out_tr, d/d out_art), in summation order."""
    n_art = out_art.shape[0]

    def hinge(excess, pi, sign):
        c = hyper.mu_exp * hyper.c_exp * pi
        pos = np.maximum(excess, 0.0)
        return (c * float(piecewise_smooth_l1(pos, 0.0, beta).mean()), 0.0,
                sign * c / n_art * piecewise_smooth_l1_grad(pos, 0.0, beta) * (excess > 0))

    terms = {"data": (hyper.mu_sqr * float(piecewise_smooth_l1(out_tr, y, beta).sum()),
                      hyper.mu_sqr * piecewise_smooth_l1_grad(out_tr, y, beta), 0.0)}
    s = np.minimum(out_art, exact_art) - mean_art
    arg = 0.01 - hyper.c_exp * s
    terms["push_up"] = (
        hyper.mu_exp * float(g_gate(arg).mean()), 0.0,
        hyper.mu_exp * piecewise_gate_grad(arg) / n_art * (-hyper.c_exp) * (out_art < exact_art))
    terms["below_exact"] = hinge(out_art - exact_art, hyper.pi_uub, 1.0)
    terms["above_mean"] = hinge(mean_art - out_art, hyper.pi_mean, -1.0)
    over = np.maximum(out_tr - y, 0.0)
    terms["stability"] = (
        hyper.mu_sqr * float((0.001 * over + 0.5 * piecewise_smooth_l1(over, 0.0, beta)).sum()),
        hyper.mu_sqr * (0.001 + 0.5 * piecewise_smooth_l1_grad(over, 0.0, beta)) * (out_tr > y),
        0.0)
    return terms


def reference_backward(params, X, O, Z, out_grad) -> Grads:
    """The parameter gradients of sum_b out_grad[b] * net(X[b]) for one
    block of rows."""
    g = Grads.zeros_like(params)
    g.weights[-1][...] = (out_grad @ Z[-1]).reshape(1, -1)
    if params.skip is not None:
        g.skip[...] = out_grad @ X
    delta = out_grad[:, None] * params.weights[-1]
    for k in range(params.num_hidden - 1, -1, -1):
        o, t = O[k], params.cutoffs[k]
        g.cutoffs[k][...] = (delta * (o > t)).sum(axis=0)
        do = delta * ((o > 0) & (o < t))
        g.biases[k][...] = do.sum(axis=0)
        g.weights[k][...] = do.T @ Z[k]
        delta = do @ params.weights[k]
    return g


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
    # the per-array sums added one by one, a left fold on any Python version
    norm = float(np.sqrt(functools.reduce(operator.add, [float((g * g).sum()) for g in g_all])))
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


def _reference_loop(p, X, y, hyper, rng, grads, score):
    state = {"t": 0, "m": {}, "v": {}}
    best, best_loss = p.copy(), score(p)
    for _ in range(hyper.epochs):
        idx = rng.permutation(X.shape[0])
        reference_adam_step(p, grads(p, X[idx], y[idx]), state, hyper)
        cur = score(p)
        if cur < best_loss:
            best, best_loss = p.copy(), cur
    return best, best_loss


def _arrays(reports):
    X = np.stack([np.asarray(b, dtype=np.float64) for b, _ in reports])
    return X, np.asarray([v for _, v in reports], dtype=np.float64)


def reference_train_mean(reports, layer_dims, init_hyper, hyper, seed=0, skip=False):
    X, y = _arrays(reports)

    def grads(p, xb, yb):
        out, O, Z = forward_cache(p, xb)
        slope = piecewise_smooth_l1_grad(out, yb, hyper.smooth_l1_beta) / xb.shape[0]
        return reference_backward(p, xb, O, Z, slope)

    def attempt(s):
        rng = np.random.default_rng(s)
        p = init_params(layer_dims, init_hyper, hyper.cutoff_init_range, rng, skip=skip)
        return _reference_loop(p, X, y, hyper, rng, grads,
                               lambda q: float(np.abs(q.forward(X) - y).mean()))

    best, best_mae = attempt(seed)
    if r_squared(best.forward(X), y) < hyper.retrain_r2_threshold:
        retry, retry_mae = attempt(seed + 1)
        if retry_mae < best_mae:
            best = retry
    return best


def reference_train_uub(reports, mean_net, exact_net, nomu_hyper, hyper, init_hyper, layer_dims,
                        seed=0, skip=False):
    rng = np.random.default_rng(seed)
    X, y = _arrays(reports)
    m = X.shape[1]
    p = init_params(layer_dims, init_hyper, hyper.cutoff_init_range, rng, skip=skip)
    X_eval = rng.uniform(0.0, 1.0, size=(max(nomu_hyper.n_art, 128), m))
    beta = hyper.smooth_l1_beta
    mean_eval, exact_eval = mean_net.forward(X_eval), exact_net.forward(X_eval)

    def score(q):
        terms = reference_loss_terms(q.forward(X), q.forward(X_eval), y, mean_eval, exact_eval,
                                     nomu_hyper, beta)
        return functools.reduce(operator.add, [value for value, _, _ in terms.values()])

    def grads(q, xb, yb):
        X_art = rng.uniform(0.0, 1.0, size=(nomu_hyper.n_art, m))
        out_tr, O_tr, Z_tr = forward_cache(q, xb)
        out_art, O_art, Z_art = forward_cache(q, X_art)
        terms = reference_loss_terms(out_tr, out_art, yb, mean_net.forward(X_art),
                                     exact_net.forward(X_art), nomu_hyper, beta)
        gout_tr, gout_art = np.zeros_like(out_tr), np.zeros_like(out_art)
        for _, d_tr, d_art in terms.values():
            gout_tr += d_tr
            gout_art += d_art
        g = Grads.zeros_like(q)
        g.flat[:] = (reference_backward(q, xb, O_tr, Z_tr, gout_tr).flat
                     + reference_backward(q, X_art, O_art, Z_art, gout_art).flat)
        return g

    return _reference_loop(p, X, y, hyper, rng, grads, score)[0]
