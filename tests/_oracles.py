"""Reference constructions the tests compare the library against: a check of
the MILP encoding at one bundle, a reader of the LP text the library
writes, and the generic initialiser the mixture initialisation is measured
against."""

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


def read_emitted_lp(text: str) -> wdp.WdpModel:
    """The model in LP text that ``wdp.emit_lp_file`` wrote, for the
    round-trip tests.  Not a parser of LP files: it relies on that writer's
    layout (its section headers, ``sign coefficient name`` terms, one-sided
    rows and two-sided bounds) and checks none of it.  Columns are made in
    name order."""

    def terms(expr):
        tokens = expr.split()
        if len(tokens) == 2:  # an empty objective, ``0 name``
            tokens.insert(0, "+")
        return {name: float(sign + value) for sign, value, name in zip(*[iter(tokens)] * 3)}

    model, section, objective, rows, columns = wdp.WdpModel(), None, {}, [], {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("\\ objective_constant "):
            model.objective_const = float(line.split()[-1])
        elif line in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
            section = line
        elif section == "Maximize":
            objective = terms(line.split(":", 1)[1])
        elif section == "Subject To":
            name, rest = line.split(":", 1)
            sense = "<=" if "<=" in rest else ">="
            body, rhs = rest.rsplit(sense, 1)
            lb, ub = (-np.inf, float(rhs)) if sense == "<=" else (float(rhs), np.inf)
            rows.append((name, terms(body), lb, ub))
        elif section == "Bounds":
            lo, name, hi = line.split(" <= ")
            columns[name] = (float(lo), float(hi), False)
        elif section == "Binary":
            columns[line] = (0.0, 1.0, True)
    col = {name: model.add_var(name, *columns[name]) for name in sorted(columns)}
    for name, coeffs, lb, ub in rows:
        model.add_constraint(name, {col[v]: w for v, w in coeffs.items()}, lb, ub)
    model.objective = {col[v]: w for v, w in objective.items()}
    return model


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
