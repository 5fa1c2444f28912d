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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mvnn import MvnnParams, init_params
from .training import (
    Grads,
    TrainHyper,
    _add_l2,
    _backward,
    _regularised,
    _train_loop,
    forward_cache,
    smooth_l1,
    smooth_l1_grad,
)


def elu(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, x, np.expm1(np.minimum(x, 0.0)))


def g_gate(x):
    """1 + elu: convex, increasing, g(0) = 1, vanishing for very negative x."""
    return 1.0 + elu(x)


def g_gate_grad(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0, np.exp(np.minimum(x, 0.0)))


# ---------------------------------------------------------------------------
# Exact upper bound
# ---------------------------------------------------------------------------


def build_exact_uub(reports: list[tuple[np.ndarray, float]]) -> MvnnParams:
    """Closed-form exact upper bound over monotone normalized functions.

    The reports must include the full bundle; the empty bundle at value 0 is
    implied.  With values sorted ascending w_0=0 <= w_1 <= ... <= w_L, the
    network output at x equals w_k for the smallest k whose bundle contains
    x.  Zero-height steps (exactly equal consecutive values) are dropped
    from the second hidden layer, which leaves the represented function
    unchanged.
    """
    if not reports:
        raise InvalidInputError("need at least the full-bundle report")
    m = len(np.asarray(reports[0][0]).ravel())
    pairs = []
    has_full = False
    for b, v in reports:
        arr = np.asarray(b, dtype=np.float64).ravel()
        if arr.shape[0] != m:
            raise InvalidInputError("inconsistent bundle lengths in reports")
        if v < 0:
            raise InvalidInputError("negative reported value")
        if arr.sum() == m:
            has_full = True
        if arr.sum() == 0:
            if v != 0:
                raise InvalidInputError("empty bundle must be worth 0")
            continue  # implied point, re-added below
        pairs.append((arr, float(v)))
    if not has_full:
        raise InvalidInputError("reports must include the full bundle")

    pairs.sort(key=lambda p: (p[1], -p[0].sum(), tuple(p[0])))
    bundles = [np.zeros(m)] + [p[0] for p in pairs]
    w = np.array([0.0] + [p[1] for p in pairs])
    L = len(pairs)

    W1 = np.stack([1.0 - bundles[j] for j in range(L)])  # rows j = 0..L-1
    b1 = np.zeros(L)
    t1 = np.ones(L)

    keep = [k for k in range(L) if w[k + 1] - w[k] > 0]
    if not keep:  # all reported values are 0; constant-zero network
        keep = [L - 1]
    W2 = np.zeros((len(keep), L))
    b2 = np.zeros(len(keep))
    for row, k in enumerate(keep):
        W2[row, : k + 1] = 1.0
        b2[row] = -float(k)
    t2 = np.ones(len(keep))
    W3 = (w[np.array(keep) + 1] - w[np.array(keep)]).reshape(1, -1)

    return MvnnParams(weights=[W1, W2, W3], biases=[b1, b2], cutoffs=[t1, t2])


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

LOSS_VARIANTS = ("main-paper", "appendix-detailed")


@dataclass
class NomuHyper:
    mu_sqr: float = 1.0
    mu_exp: float = 0.05
    c_exp: float = 64.0
    pi_uub: float = 0.25
    pi_mean: float = 64.0
    n_art: int = 64
    loss_variant: str = "appendix-detailed"

    def __post_init__(self):
        if min(self.mu_sqr, self.mu_exp, self.c_exp, self.pi_uub, self.pi_mean) < 0:
            raise InvalidInputError("loss hyperparameters must be non-negative")
        if self.n_art < 1:
            raise InvalidInputError("need at least one artificial point per batch")
        if self.loss_variant not in LOSS_VARIANTS:
            raise InvalidInputError(f"unknown loss variant {self.loss_variant!r}")


@dataclass
class UubTriple:
    """Mean network, learned upper bound, and exact upper bound for one
    bidder over the same item count."""

    mean_net: MvnnParams
    uub_net: MvnnParams
    exact_uub_net: MvnnParams

    def __post_init__(self):
        if not (self.mean_net.m == self.uub_net.m == self.exact_uub_net.m):
            raise InvalidInputError("the three networks must share the item count")

    def to_json_obj(self) -> dict:
        return {
            "mean_net": self.mean_net.to_json_obj(),
            "uub_net": self.uub_net.to_json_obj(),
            "exact_uub_net": self.exact_uub_net.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "UubTriple":
        return cls(
            mean_net=MvnnParams.from_json_obj(obj["mean_net"]),
            uub_net=MvnnParams.from_json_obj(obj["uub_net"]),
            exact_uub_net=MvnnParams.from_json_obj(obj["exact_uub_net"]),
        )


def _loss_terms(out_tr, out_art, y, mean_art, exact_art, hyper: NomuHyper, beta: float,
                grads: bool = True, values: bool = True) -> dict:
    """Each loss term as (value, d/d out_tr, d/d out_art), in summation
    order.  A gradient is 0.0 where the term does not depend on that
    output; every gradient is 0.0 when ``grads`` is false, and every value
    0.0 when ``values`` is false."""
    n_art = out_art.shape[0]

    def hinge(excess, pi, sign):
        # soft penalty on the positive part of `excess`; d excess/d out_art = sign
        c = hyper.mu_exp * hyper.c_exp * pi
        pos = np.maximum(excess, 0.0)
        return (c * float(smooth_l1(pos, 0.0, beta).mean()) if values else 0.0, 0.0,
                sign * c / n_art * smooth_l1_grad(pos, 0.0, beta) * (excess > 0) if grads else 0.0)

    terms = {"data": (hyper.mu_sqr * float(smooth_l1(out_tr, y, beta).sum()) if values else 0.0,
                      hyper.mu_sqr * smooth_l1_grad(out_tr, y, beta) if grads else 0.0, 0.0)}
    s = np.minimum(out_art, exact_art) - mean_art
    if hyper.loss_variant == "main-paper":
        arg = -hyper.c_exp * s
    else:
        arg = 0.01 - hyper.c_exp * s
    d_push = (hyper.mu_exp * g_gate_grad(arg) / n_art * (-hyper.c_exp) * (out_art < exact_art)
              if grads else 0.0)
    terms["push_up"] = (hyper.mu_exp * float(g_gate(arg).mean()) if values else 0.0, 0.0, d_push)
    terms["below_exact"] = hinge(out_art - exact_art, hyper.pi_uub, 1.0)
    terms["above_mean"] = hinge(mean_art - out_art, hyper.pi_mean, -1.0)
    if hyper.loss_variant == "appendix-detailed":
        over = np.maximum(out_tr - y, 0.0)
        terms["stability"] = (
            hyper.mu_sqr * float((0.001 * over + 0.5 * smooth_l1(over, 0.0, beta)).sum())
            if values else 0.0,
            hyper.mu_sqr * (0.001 + 0.5 * smooth_l1_grad(over, 0.0, beta)) * (out_tr > y)
            if grads else 0.0,
            0.0,
        )
    return terms


def nomu_loss_terms(uub_net: MvnnParams, mean_net: MvnnParams, exact_net: MvnnParams, X, y, X_art,
                    hyper: NomuHyper, beta: float) -> dict[str, float]:
    """The individual loss terms; mean and exact networks are frozen.

    Keys: ``data`` (fit through the reports), ``push_up`` (raise the bound
    where it is still below the exact bound), ``below_exact`` and
    ``above_mean`` (soft sandwich penalties), and in the detailed variant
    ``stability`` (asymmetric data penalty).
    """
    if X.shape[0] == 0:
        raise InvalidInputError("empty training batch")
    return _frozen_terms(mean_net, exact_net, X, y, X_art, hyper, beta)(uub_net)


def nomu_loss(
    uub_net, mean_net, exact_net, X, y, X_art, hyper: NomuHyper, beta: float
) -> float:
    return sum(nomu_loss_terms(uub_net, mean_net, exact_net, X, y, X_art, hyper, beta).values())


def _frozen_terms(mean_net, exact_net, X, y, X_art, hyper: NomuHyper, beta: float):
    """``nomu_loss_terms`` as a function of the learned bound alone; the
    frozen networks are evaluated on ``X_art`` once, here."""
    mean_art, exact_art = mean_net.forward(X_art), exact_net.forward(X_art)

    def terms(uub_net: MvnnParams) -> dict[str, float]:
        t = _loss_terms(uub_net.forward(X), uub_net.forward(X_art), y, mean_art, exact_art,
                        hyper, beta, grads=False)
        return {name: value for name, (value, _, _) in t.items()}

    return terms


def _nomu_grads(g: Grads, uub_net, mean_net, exact_net, X, y, X_art, hyper: NomuHyper,
                beta: float, values: bool, only_term: str | None = None) -> float:
    """Write into ``g`` the loss gradients without L2 (of ``only_term``
    alone if given); return the loss, or 0.0 unless ``values``."""
    out_tr, O_tr, Z_tr = forward_cache(uub_net, X)
    out_art, O_art, Z_art = forward_cache(uub_net, X_art)
    terms = _loss_terms(out_tr, out_art, y, mean_net.forward(X_art), exact_net.forward(X_art),
                        hyper, beta, values=values)
    loss = 0.0
    gout_tr = np.zeros_like(out_tr)
    gout_art = np.zeros_like(out_art)
    for name, (value, d_tr, d_art) in terms.items():
        if only_term and name != only_term:
            continue
        loss += value
        gout_tr += d_tr
        gout_art += d_art
    _backward(g, uub_net, X, O_tr, Z_tr, gout_tr, add=False)
    _backward(g, uub_net, X_art, O_art, Z_art, gout_art, add=True)
    return loss


def nomu_loss_and_grads(uub_net: MvnnParams, mean_net: MvnnParams, exact_net: MvnnParams, X, y,
                        X_art, hyper: NomuHyper, train_hyper: TrainHyper,
                        only_term: str | None = None):
    """Loss and parameter gradients for the learned upper bound.

    Only ``uub_net`` receives gradients.  ``only_term`` restricts the result
    to a single named term (no L2), used by the finite-difference checks.
    """
    g = Grads.zeros_like(uub_net)
    loss = _nomu_grads(g, uub_net, mean_net, exact_net, X, y, X_art, hyper,
                       train_hyper.smooth_l1_beta, True, only_term)
    if only_term is None:
        loss += _add_l2(g, _regularised(uub_net), train_hyper.l2_lambda)
    return loss, g


def train_uub(reports: list[tuple[np.ndarray, float]], mean_net: MvnnParams, exact_net: MvnnParams,
              nomu_hyper: NomuHyper, train_hyper: TrainHyper, init_hyper, layer_dims: list[int],
              seed: int = 0, skip: bool = False) -> MvnnParams:
    """Train the learned upper bound against frozen mean and exact networks.

    Artificial comparison points are drawn fresh from Unif([0,1]^m) every
    epoch; best-epoch parameters are kept, scored on a fixed
    artificial sample so the selection criterion is not itself noisy.
    """
    if not reports:
        raise InvalidInputError("cannot train on an empty report list")
    rng = np.random.default_rng(seed)
    X = np.stack([np.asarray(b, dtype=np.float64) for b, _ in reports])
    y = np.asarray([v for _, v in reports], dtype=np.float64)
    m = X.shape[1]
    params = init_params(layer_dims, init_hyper, train_hyper.cutoff_init_range, rng, skip=skip)

    X_eval = rng.uniform(0.0, 1.0, size=(max(nomu_hyper.n_art, 128), m))
    beta = train_hyper.smooth_l1_beta

    def batch_grads(g, p, xb, yb):
        X_art = rng.uniform(0.0, 1.0, size=(nomu_hyper.n_art, m))
        _nomu_grads(g, p, mean_net, exact_net, xb, yb, X_art, nomu_hyper, beta, values=False)

    eval_terms = _frozen_terms(mean_net, exact_net, X, y, X_eval, nomu_hyper, beta)
    best, _ = _train_loop(params, X, y, train_hyper, rng, batch_grads,
                          lambda p: sum(eval_terms(p).values()))
    best.validate()
    return best
