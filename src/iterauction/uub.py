"""Upper-uncertainty-bound machinery.

Two bounds per bidder:

* the exact upper bound -- the pointwise maximum over all monotone
  normalized functions consistent with the reports, written down in closed
  form as a two-hidden-layer monotone network, and
* a learned upper bound -- a monotone network trained with a multi-term
  loss that pushes it up toward the exact bound while fitting the data and
  staying above the trained mean network.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .domain import report_arrays
from .errors import InvalidInputError
from .mvnn import _ZERO, ForwardBuffers, MvnnParams, _operand, forward_cache, init_params
from .training import (
    TrainHyper,
    _best_epoch,
    _epoch_draws,
    _huber,
    _huber_slope,
    _kept,
    _layout_of,
    _net,
    _sum,
    _train_loop,
)

# Training evaluates the frozen networks on every epoch's artificial points
# in calls of whole epochs whose widest product stays under this many
# multiply-adds, where OpenBLAS runs a gemm on one thread (see forward_cache).
_FROZEN_CALL_MACS = 2**18


def elu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


def g_gate(x):
    """1 + elu: convex, increasing, g(0) = 1, vanishing for very negative x."""
    return 1.0 + elu(x)


def g_gate_grad(x, out):
    """The gate's slope at x, written into ``out`` (which may be x); exp(0)
    is exactly 1, the slope for x >= 0."""
    return np.exp(np.minimum(x, _ZERO, out=out), out=out)


# ---------------------------------------------------------------------------
# Exact upper bound
# ---------------------------------------------------------------------------


def build_exact_uub(reports: list[tuple[np.ndarray, float]]) -> MvnnParams:
    """Closed-form exact upper bound over monotone normalized functions.

    The reports must include the full bundle; the empty bundle at value 0 is
    implied.  With the L nonempty reports' values sorted ascending,
    w_0=0 <= w_1 <= ... <= w_L, the network output at x equals w_k for the
    smallest k whose bundle contains x.  Both hidden layers have width L, one
    step per nonempty report, so every bidder with L reports gets the same
    architecture; a zero-height step (a value equal to the one before it)
    gets output weight 0.
    """
    X, y = report_arrays(reports)
    m = X.shape[1]
    sizes = X.sum(axis=1)
    if not (sizes == m).any():
        raise InvalidInputError("reports must include the full bundle")
    keep = sizes > 0  # the empty bundle's implied point is re-added below
    X, y, sizes = X[keep], y[keep], sizes[keep]
    # by value, ties to the larger bundle, then by the bundle's entries
    order = np.lexsort((*X.T[::-1], -sizes, y))
    w = np.concatenate([[0.0], y[order]])
    L = len(order)
    # with bundle 0 the empty one, first-layer neuron j is 1 where x has an
    # item outside bundle j, and step k where x has one outside each of 0..k
    W1 = 1.0 - np.concatenate([np.zeros((1, m)), X[order[:-1]]])
    W2 = np.tril(np.ones((L, L)))
    b2 = -np.arange(L, dtype=np.float64)
    W3 = np.diff(w).reshape(1, -1)
    return MvnnParams(weights=[W1, W2, W3], biases=[np.zeros(L), b2],
                      cutoffs=[np.ones(L), np.ones(L)])


def max_monotone_extension(reports: list[tuple[np.ndarray, float]], x) -> float:
    """Brute-force lattice oracle: the largest value any monotone normalized
    function consistent with the reports can take at x, i.e. the minimum
    reported value over reported supersets of x (the empty bundle counts as
    a report at 0)."""
    xb = np.asarray(x, dtype=np.int64).ravel()
    if xb.sum() == 0:
        return 0.0
    best = None
    for b, v in reports:
        bb = np.asarray(b, dtype=np.int64).ravel()
        if (xb <= bb).all():
            best = v if best is None else min(best, v)
    if best is None:
        raise InvalidInputError("reports must include the full bundle")
    return float(best)


# ---------------------------------------------------------------------------
# Learned upper bound (NOMU-style loss)
# ---------------------------------------------------------------------------


@dataclass
class NomuHyper:
    mu_sqr: float = 1.0
    mu_exp: float = 0.05
    c_exp: float = 64.0
    pi_uub: float = 0.25
    pi_mean: float = 64.0
    n_art: int = 64

    def __post_init__(self):
        # written so that NaN fails the check
        if not all(0 <= v < math.inf
                   for v in (self.mu_sqr, self.mu_exp, self.c_exp, self.pi_uub, self.pi_mean)):
            raise InvalidInputError("loss hyperparameters must be finite and non-negative")
        n_art = self.n_art
        if isinstance(n_art, bool) or not isinstance(n_art, numbers.Integral) or n_art < 1:
            raise InvalidInputError(f"n_art must be a positive int, got {n_art!r}")


def _loss_values(out_tr, out_art, y, mean_art, exact_art, hyper: NomuHyper, beta: float) -> dict:
    """Each loss term's value, in summation order.  Outputs with a leading
    stack axis, (E, n) and (E, n_art), give each value as (E,): sums run
    along the last axis."""
    n_art = out_art.shape[-1]

    def hinge(excess, pi):
        # soft penalty on the positive part of `excess`
        return hyper.mu_exp * hyper.c_exp * pi * (
            _sum(_huber(np.maximum(excess, 0.0), beta)) / n_art)

    r_tr = out_tr - y
    arg = 0.01 - hyper.c_exp * (np.minimum(out_art, exact_art) - mean_art)
    over = np.maximum(r_tr, 0.0)
    return {
        "data": hyper.mu_sqr * _sum(_huber(np.abs(r_tr), beta)),
        "push_up": hyper.mu_exp * (_sum(g_gate(arg)) / n_art),
        "below_exact": hinge(out_art - exact_art, hyper.pi_uub),
        "above_mean": hinge(mean_art - out_art, hyper.pi_mean),
        "stability": hyper.mu_sqr * _sum(0.001 * over + 0.5 * _huber(over, beta)),
    }


def _loss_slopes(out, out_grad, n: int, hyper: NomuHyper, beta: float, rows=None):
    """The output slopes of the loss without L2, bound to the learned
    bound's outputs ``out`` on the n reports followed by the artificial
    points and written into ``out_grad``: returns the call that takes an
    epoch's y, mean_art and exact_art.  Each term's slope goes first to
    its row of ``rows``, a (2, n) and a (3, n_art) array (made unless
    given): [data, stability], d/d out_tr, and [push_up, below_exact,
    above_mean], d/d out_art, each part's terms in summation order.  Every
    op writes in place, in the operation order of the terms' formulas; the
    two hinge terms run as one (2, n_art) pass."""
    out_tr, out_art, tr_grad, art_grad = out[:n], out[n:], out_grad[:n], out_grad[n:]
    n_art = len(out_art)
    tr, art = rows or (np.empty((2, n)), np.empty((3, n_art)))
    (data, stability), (push_up, below_exact, above_mean), hinges = tr, art, art[1:]
    tr_flag, art_flags = np.empty(n, dtype=bool), np.empty((3, n_art), dtype=bool)
    below_flag, hinge_flags = art_flags[0], art_flags[1:]
    # every number an op takes, as an operand; the hinges' factors as written
    (mu_sqr, mu_exp, c_exp, neg_c_exp, n_art, beta, half, thousandth, hundredth,
     below_exact_factor, above_mean_factor) = map(_operand, (
        hyper.mu_sqr, hyper.mu_exp, hyper.c_exp, -hyper.c_exp, n_art, beta, 0.5, 0.001, 0.01,
        *(sign * (hyper.mu_exp * hyper.c_exp * pi) / n_art
          for pi, sign in ((hyper.pi_uub, 1.0), (hyper.pi_mean, -1.0)))))

    def slopes(y, mean_art, exact_art):
        # each ufunc writes in place, as its augmented assignment would
        _huber_slope(np.subtract(out_tr, y, out=stability), beta, out=stability)
        np.multiply(stability, mu_sqr, out=data)
        # where r > 0 the slope at max(r, 0) is the data slope; elsewhere the mask zeroes it
        np.maximum(stability, _ZERO, out=stability)
        np.multiply(stability, half, out=stability)
        np.add(stability, thousandth, out=stability)
        np.multiply(stability, mu_sqr, out=stability)
        np.multiply(stability, np.greater(out_tr, y, out=tr_flag), out=stability)

        np.minimum(out_art, exact_art, out=push_up)
        np.subtract(push_up, mean_art, out=push_up)
        np.multiply(push_up, c_exp, out=push_up)
        g_gate_grad(np.subtract(hundredth, push_up, out=push_up), out=push_up)
        np.multiply(push_up, mu_exp, out=push_up)
        np.divide(push_up, n_art, out=push_up)
        np.multiply(push_up, neg_c_exp, out=push_up)
        # the soft penalties on the positive part of the excess over the exact
        # bound (d excess/d out_art = 1) and of the shortfall below the mean (-1)
        np.subtract(out_art, exact_art, out=below_exact)
        np.subtract(mean_art, out_art, out=above_mean)
        np.less(out_art, exact_art, out=below_flag)
        np.greater(hinges, _ZERO, out=hinge_flags)
        _huber_slope(np.maximum(hinges, _ZERO, out=hinges), beta, out=hinges)
        np.multiply(below_exact, below_exact_factor, out=below_exact)
        np.multiply(above_mean, above_mean_factor, out=above_mean)
        np.multiply(art, art_flags, out=art)  # each point term's last factor: its mask
        # each part starts from +0.0 and takes its rows one by one (a reduce
        # over three rows or fewer runs in row order)
        np.add.reduce(tr, axis=0, initial=0.0, out=tr_grad)
        np.add.reduce(art, axis=0, initial=0.0, out=art_grad)

    return slopes


def nomu_loss_terms(uub_net: MvnnParams, mean_net: MvnnParams, exact_net: MvnnParams, X, y, X_art,
                    hyper: NomuHyper, beta: float, empty=np.empty) -> dict[str, float]:
    """The individual loss terms; mean and exact networks are frozen.

    Keys: ``data`` (fit through the reports), ``push_up`` (raise the bound
    where it is still below the exact bound), ``below_exact`` and
    ``above_mean`` (soft sandwich penalties) and ``stability`` (asymmetric
    data penalty).  The net is evaluated in one forward pass over
    [X; X_art], into arrays from ``empty`` (see ``ForwardBuffers``).  For
    a stack of E learned bounds (``MvnnParams.stack``) each value is an
    (E,) array, bit for bit the values of one call per net.
    """
    n = X.shape[0]
    if n == 0:
        raise InvalidInputError("empty training batch")
    XA = np.concatenate([X, X_art])
    out = forward_cache(uub_net, XA, buffers=ForwardBuffers(uub_net, XA, (n, len(X_art)), empty))[0]
    return _loss_values(out[..., :n], out[..., n:], y, mean_net.forward(X_art),
                        exact_net.forward(X_art), hyper, beta)


def nomu_loss(
    uub_net, mean_net, exact_net, X, y, X_art, hyper: NomuHyper, beta: float, empty=np.empty
) -> float | np.ndarray:
    """The terms' sum, added one by one in term order, without L2; per net
    for a stack."""
    terms = nomu_loss_terms(uub_net, mean_net, exact_net, X, y, X_art, hyper, beta, empty)
    return functools.reduce(operator.add, terms.values())


def _frozen_outputs(net: MvnnParams, arts: np.ndarray) -> np.ndarray:
    """``net`` on every epoch's artificial points ``arts`` (epochs, n_art,
    m), as (epochs, n_art): bit for bit one ``forward`` per epoch, in calls
    of whole epochs sized to keep OpenBLAS on one thread, whose arrays are
    kept for the next call (see ``training._Kept``)."""
    epochs, n_art, m = arts.shape
    per_call = max(1, _FROZEN_CALL_MACS // (n_art * max(W.size for W in net.weights)))
    outs = np.empty((epochs, n_art))
    for start in range(0, epochs, per_call):
        chunk = arts[start:start + per_call].reshape(-1, m)
        blocks = (n_art,) * (len(chunk) // n_art)
        buffers = ForwardBuffers(net, chunk, blocks, _kept.empties("frozen"))
        outs[start:start + per_call] = forward_cache(net, chunk, buffers=buffers)[0].reshape(-1, n_art)
    return outs


def train_uub(reports: list[tuple[np.ndarray, float]], mean_net: MvnnParams, exact_net: MvnnParams,
              nomu_hyper: NomuHyper, train_hyper: TrainHyper, init_hyper, layer_dims: list[int],
              seed: int = 0, skip: bool = False) -> MvnnParams:
    """Train the learned upper bound against frozen mean and exact networks.

    Artificial comparison points are drawn fresh from Unif([0,1]^m) every
    epoch; best-epoch parameters are kept, scored on a fixed
    artificial sample so the selection criterion is not itself noisy.

    Draw order: the generator seeded with ``seed`` initialises the network,
    draws the scoring sample, then, per epoch, a permutation of the reports
    and the epoch's ``n_art`` points (see ``_train_loop``).  All are drawn
    before the first epoch, so the frozen networks are evaluated once per
    fit on every epoch's points, in calls that keep OpenBLAS on one thread
    (a second one would spin for the rest of the fit).  Each epoch is then
    one forward pass over [permuted reports; its points].

    Scoring comes after the loop: the epochs' networks, start included,
    form one stack, scored in one forward pass over [reports; scoring
    sample] against the frozen networks' outputs on that sample (one
    ``forward`` each per fit).  ``forward_cache``'s row rules and per-row
    sums keep every score bit for bit what one ``nomu_loss`` per epoch
    gives, and ``_best_epoch`` keeps the first lowest.  The batches and
    the scoring pass's arrays are kept for the next fit (see
    ``training._Kept``).
    """
    X, y = report_arrays(reports, layer_dims[0])
    n, m = X.shape
    epochs, n_art = train_hyper.epochs, nomu_hyper.n_art
    rng = np.random.default_rng(seed)
    params = init_params(layer_dims, init_hyper, train_hyper.cutoff_init_range, rng, skip=skip)

    X_eval = rng.uniform(0.0, 1.0, size=(max(n_art, 128), m))
    arts = np.empty((epochs, n_art, m))
    perms = _epoch_draws(rng, epochs, n, arts)
    beta = train_hyper.smooth_l1_beta

    XA = _kept.take("batches", (epochs, n + n_art, m))
    XA[:, :n] = X[perms]
    XA[:, n:] = arts
    batches = zip(XA, y[perms], _frozen_outputs(mean_net, arts), _frozen_outputs(exact_net, arts))

    loss = functools.partial(_loss_slopes, n=n, hyper=nomu_hyper, beta=beta)
    thetas = _train_loop(params, train_hyper, (n, n_art), batches, loss)
    stack = _net(_layout_of(params), thetas)
    scores = nomu_loss(stack, mean_net, exact_net, X, y, X_eval, nomu_hyper, beta,
                       _kept.empties("scores"))
    return _net(_layout_of(params), thetas[_best_epoch(scores)].copy())
