"""Reference constructions the tests compare the library against: a check of
the MILP encoding at one bundle, and the generic initialiser the mixture
initialisation is measured against."""

import numpy as np

from iterauction import wdp
from iterauction.mvnn import CUTOFF_FLOOR, MvnnParams, forward_cache

FEASIBILITY_TOL = 1e-9


def lemma_assignment(o: float, t: float) -> tuple[int, int]:
    """Feasible binary pair for a neuron with pre-activation o and cutoff t:
    below zero both off, in the linear band only the upper indicator on,
    saturated both on."""
    if o < 0:
        return 0, 0
    if o <= t:
        return 1, 0
    return 1, 1


def check_encoding_at(net: MvnnParams, bundle: np.ndarray) -> bool:
    """Check the unpruned encoding of ``net`` at one bundle: with the
    allocation set to the bundle, each neuron's z to its clipped
    pre-activation and its indicators to :func:`lemma_assignment`, every row
    and every variable bound of ``encode_milp([net], prune=False)`` holds
    within FEASIBILITY_TOL."""
    # through the module, so that a test can patch the encoder it checks
    model = wdp.encode_milp([net], prune=False)
    _, O, Z = forward_cache(net, np.asarray(bundle, dtype=np.float64).reshape(1, -1))
    values = list(Z[0][0])
    for k, (o, z) in enumerate(zip(O, Z[1:])):
        for j in range(o.shape[1]):
            # unpruned, each neuron adds its columns z, alpha, beta in order
            values += [z[0, j], *lemma_assignment(float(o[0, j]), float(net.cutoffs[k][j]))]
    x = np.array(values)
    _, A, row_lb, row_ub = wdp._matrix(model)
    vals = np.concatenate([A @ x, x])
    lo = np.concatenate([row_lb, model.var_lb]) - FEASIBILITY_TOL
    hi = np.concatenate([row_ub, model.var_ub]) + FEASIBILITY_TOL
    return bool(((vals >= lo) & (vals <= hi)).all())


def init_params_generic(
    layer_dims: list[int],
    cutoff_range: tuple[float, float] = (0.0, 1.0),
    seed: int | np.random.Generator = 0,
) -> MvnnParams:
    """Fan-in 1/sqrt(d) uniform initialization folded onto the non-negative
    axis; the classic scaling whose pre-activations blow past the cutoffs."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo, hi = cutoff_range
    weights, biases, cutoffs = [], [], []
    for k in range(1, len(layer_dims)):
        d_out, d_prev = layer_dims[k], layer_dims[k - 1]
        weights.append(rng.uniform(0.0, 2.0 / np.sqrt(d_prev), size=(d_out, d_prev)))
        if k < len(layer_dims) - 1:
            biases.append(np.zeros(d_out))
            cutoffs.append(np.maximum(rng.uniform(lo, hi, size=d_out), CUTOFF_FLOOR))
    return MvnnParams(weights=weights, biases=biases, cutoffs=cutoffs)
