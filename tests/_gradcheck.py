"""Shared finite-difference gradient checking utilities for the tests, and
the loss-with-gradient entry points they check: the library computes loss
values and gradients in separate passes, and these put the two together."""

import functools

import numpy as np

from iterauction.training import (
    _add_l2,
    _mean_slopes,
    _regularised,
    _Workspace,
    smooth_l1,
)
from iterauction.uub import _loss_slopes, nomu_loss_terms

FD_EPS = 1e-6
KINK_MARGIN = 1e-4

# where ``uub._loss_slopes`` writes each term's slope: (part, row), part 0
# the reports' rows and part 1 the artificial points'
SLOPE_ROWS = {"data": (0, 0), "push_up": (1, 0), "below_exact": (1, 1), "above_mean": (1, 2),
              "stability": (0, 1)}


def param_arrays(p):
    arrs = list(p.weights) + list(p.biases) + list(p.cutoffs)
    if p.skip is not None:
        arrs.append(p.skip)
    return arrs


def worst_relative_error(loss_fn, params) -> float:
    """Max relative error between analytic and central finite-difference
    gradients over every parameter entry."""
    _, g = loss_fn(params)
    g_arrays = g.arrays()
    worst = 0.0
    for arr, garr in zip(param_arrays(params), g_arrays):
        flat = arr.reshape(-1)
        gflat = garr.reshape(-1)
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + FD_EPS
            lp, _ = loss_fn(params)
            flat[k] = old - FD_EPS
            lm, _ = loss_fn(params)
            flat[k] = old
            fd = (lp - lm) / (2 * FD_EPS)
            rel = abs(fd - gflat[k]) / max(1.0, abs(fd), abs(gflat[k]))
            worst = max(worst, rel)
    return worst


def preactivations_kink_free(params, X) -> bool:
    """All hidden pre-activations at least KINK_MARGIN away from 0 and from
    the cutoff, so finite differences never cross an activation kink."""
    z = X
    for k in range(params.num_hidden):
        o = z @ params.weights[k].T + params.biases[k]
        t = params.cutoffs[k]
        if (np.abs(o) < KINK_MARGIN).any() or (np.abs(o - t) < KINK_MARGIN).any():
            return False
        z = np.clip(o, 0.0, t)
    return True


def residuals_kink_free(values, targets, beta) -> bool:
    """Residuals away from the smooth-L1 transition and from zero (the kink
    of the one-sided penalties)."""
    r = np.asarray(values) - np.asarray(targets)
    if (np.abs(np.abs(r) - beta) < KINK_MARGIN).any():
        return False
    return not (np.abs(r) < KINK_MARGIN).any()


def _l2_penalty(theta, lam: float) -> float:
    """lam * ||theta||^2, the penalty whose gradient ``_add_l2`` adds."""
    return 0.0 if lam == 0 else lam * float(theta @ theta)


def mean_loss_and_grads(params, X, y, hyper):
    """Smooth-L1 data loss (batch mean) plus L2 penalty, with gradients."""
    beta = hyper.smooth_l1_beta
    ws = _Workspace(params, (X.shape[0],), functools.partial(_mean_slopes, beta=beta))
    ws.data_grads(X, y)
    g = ws.grads
    data = float(smooth_l1(ws.out, y, beta).mean())
    theta = _regularised(params)
    _add_l2(g.flat[: theta.size], theta, hyper.l2_lambda)
    return data + _l2_penalty(theta, hyper.l2_lambda), g


def nomu_loss_and_grads(uub_net, mean_net, exact_net, X, y, X_art, hyper, train_hyper,
                        only_term=None):
    """Learned-bound loss and its gradients for ``uub_net`` alone: the total
    with L2, or the one term ``only_term`` without it.  The total's
    gradients come from the training pass, ``_loss_slopes`` in a
    ``_Workspace``; one term's from its row of ``_loss_slopes``' rows (see
    ``SLOPE_ROWS``) through the same workspace's backward."""
    beta = train_hyper.smooth_l1_beta
    terms = nomu_loss_terms(uub_net, mean_net, exact_net, X, y, X_art, hyper, beta)
    XA, n = np.concatenate([X, X_art]), X.shape[0]
    mean_art, exact_art = mean_net.forward(X_art), exact_net.forward(X_art)

    def one_term(out, out_grad):
        rows = np.empty((2, n)), np.empty((3, len(X_art)))
        write_slopes = _loss_slopes(out, out_grad, n, hyper, beta, rows)
        part, row = SLOPE_ROWS[only_term]
        grad_part, slope = (out_grad[:n], out_grad[n:])[part], rows[part][row]

        def slopes(*targets):
            write_slopes(*targets)
            out_grad[:] = 0.0
            np.add(grad_part, slope, out=grad_part)

        return slopes

    if only_term is None:
        loss = functools.partial(_loss_slopes, n=n, hyper=hyper, beta=beta)
    else:
        loss = one_term
    ws = _Workspace(uub_net, (n, len(X_art)), loss)
    ws.data_grads(XA, y, mean_art, exact_art)
    if only_term is not None:
        return terms[only_term], ws.grads
    theta = _regularised(uub_net)
    _add_l2(ws.grads.flat[: theta.size], theta, train_hyper.l2_lambda)
    return sum(terms.values()) + _l2_penalty(theta, train_hyper.l2_lambda), ws.grads
