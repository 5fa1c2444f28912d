"""Winner determination: who gets which items to maximize total value.

Three solving routes, used to check each other:

* ``brute_force_wdp`` -- exhaustive enumeration of every assignment of
  items to bidders, the ground-truth oracle at desk scale,
* ``solve_wdp`` -- a native branch-and-bound over item-to-bidder decisions
  whose admissible bound exploits monotonicity of the value functions,
* ``encode_milp`` / ``solve_model`` -- an exact mixed-integer encoding of
  winner determination over monotone networks, solvable with scipy's HiGHS
  backend and exportable to / re-importable from LP text files.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError
from .mvnn import MvnnParams

INTEGRALITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-9
WELFARE_TIE_TOL = 1e-9
BRUTE_FORCE_LIMIT = 10**7
BRUTE_FORCE_CHUNK = 1 << 16  # assignments enumerated per vectorised batch


@dataclass
class SolveBudget:
    relative_gap: float = 0.005
    time_limit_secs: float = 600.0

    def __post_init__(self):
        if self.relative_gap < 0 or self.time_limit_secs <= 0:
            raise InvalidInputError("gap must be >= 0 and time limit positive")


@dataclass
class WdpSolution:
    allocation: np.ndarray  # (n, m) 0/1
    objective: float
    status: str = "optimal"  # optimal | gap_limit | time_limit
    proven_gap: float = 0.0
    nodes: int = 0


def _better(w, alloc_flat, best_w, best_flat):
    """Incumbent comparison: higher welfare wins; welfare ties within
    WELFARE_TIE_TOL go to the lexicographically smallest flattened
    allocation."""
    if best_w is None or w > best_w + WELFARE_TIE_TOL:
        return True
    if w >= best_w - WELFARE_TIE_TOL and tuple(alloc_flat) < tuple(best_flat):
        return True
    return False


def _excluded(bundle: np.ndarray, excl) -> bool:
    return excl is not None and tuple(int(v) for v in bundle) in excl


def _exclusion_sets(n: int, exclusions):
    if exclusions is None:
        return [None] * n
    out = []
    for bundles in exclusions:
        if bundles is None:
            out.append(None)
        else:
            out.append({tuple(int(v) for v in np.asarray(b).ravel()) for b in bundles})
    return out


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def brute_force_wdp(evaluators, m: int, exclusions=None) -> WdpSolution:
    """Enumerate all (n+1)^m assignments of each item to a bidder or nobody.

    ``evaluators[i]`` maps a (B, m) 0/1 array to (B,) values.  ``exclusions``
    is an optional per-bidder collection of forbidden bundles.
    """
    n = len(evaluators)
    total = (n + 1) ** m
    if total > BRUTE_FORCE_LIMIT:
        raise UnsupportedSizeError(
            f"{total} assignments exceed the brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    excl = _exclusion_sets(n, exclusions)
    radix = (n + 1) ** np.arange(m, dtype=np.int64)
    best_w, best_alloc = None, None
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        codes = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        digits = (codes[:, None] // radix[None, :]) % (n + 1)  # (B, m), 0 = nobody
        welfare = np.zeros(len(codes))
        bundles = []
        feasible = np.ones(len(codes), dtype=bool)
        for i in range(n):
            X = (digits == i + 1).astype(np.float64)
            bundles.append(X)
            welfare += np.asarray(evaluators[i](X), dtype=np.float64)
            if excl[i] is not None:
                for e in excl[i]:
                    feasible &= ~(X == np.asarray(e, dtype=np.float64)).all(axis=1)
        welfare[~feasible] = -np.inf
        if not feasible.any():
            continue
        if best_w is not None and welfare.max() < best_w - WELFARE_TIE_TOL:
            continue
        cutoff = welfare.max() if best_w is None else max(welfare.max(), best_w)
        for idx in np.flatnonzero(welfare >= cutoff - WELFARE_TIE_TOL):
            alloc = np.stack([b[idx] for b in bundles]).astype(np.int64)
            flat = alloc.ravel()
            if _better(welfare[idx], flat, best_w, None if best_alloc is None else best_alloc.ravel()):
                best_w, best_alloc = float(welfare[idx]), alloc
    if best_alloc is None:
        raise InvalidInputError("exclusions rule out every assignment")
    return WdpSolution(allocation=best_alloc, objective=best_w, nodes=total)


# ---------------------------------------------------------------------------
# Native branch and bound
# ---------------------------------------------------------------------------


class _TimeUp(Exception):
    pass


def solve_wdp(evaluators, m: int, budget: SolveBudget | None = None, exclusions=None) -> WdpSolution:
    """Branch and bound over item-to-bidder-or-nobody decisions.

    The bound at a node is sum_i v_i(S_i | U), where S_i is bidder i's
    assigned items and U the undecided ones; it is admissible because every
    value function is monotone.  The children's bounds are computed
    together: deciding item j, each bidder i evaluates one 2-row batch,
    S_i | U and S_i | U - {j}.  Child c (bidder c takes j) then has bound
    v_c(S_c | U) + sum_{i != c} v_i(S_i | U - {j}), and the "nobody" child
    sum_i v_i(S_i | U - {j}): n evaluator calls per node instead of one per
    bidder per child.  Each child's bound is passed down; at depth m the
    undecided set is empty, so the bound is the leaf's exact welfare and
    leaves evaluate nothing.

    Items are branched in order of decreasing total single-item value;
    children are explored best-bound first.  With a zero relative gap, nodes
    whose bound ties the incumbent are still explored so the lexicographic
    tie-break matches the brute-force oracle.  On a time limit the search
    stops at the first node entered once an incumbent exists (so it goes on
    past the deadline until the first feasible leaf), and the proven gap
    covers that node and every unexplored sibling on the path to it.
    """
    if m < 1:
        raise InvalidInputError("need at least one item")
    budget = budget or SolveBudget()
    n = len(evaluators)
    excl = _exclusion_sets(n, exclusions)
    deadline = time.monotonic() + budget.time_limit_secs

    singles = np.eye(m)
    marginal = np.zeros(m)
    for ev in evaluators:
        marginal += np.asarray(ev(singles), dtype=np.float64)
    order = sorted(range(m), key=lambda j: (-marginal[j], j))

    bundles = np.zeros((n, m))
    undecided = np.ones(m)
    pair = np.empty((n, 2, m))  # per bidder: S_i | U, S_i | U - {j}
    # best bound among the not-yet-explored siblings at each depth
    frontier = [-np.inf] * m
    state = {"best_w": None, "best_alloc": None, "nodes": 0}

    def leaf(w: float):
        for i in range(n):
            if _excluded(bundles[i], excl[i]):
                return
        alloc = bundles.astype(np.int64)
        bf = None if state["best_alloc"] is None else state["best_alloc"].ravel()
        if _better(w, alloc.ravel(), state["best_w"], bf):
            state["best_w"], state["best_alloc"] = w, alloc

    def child_bounds(j: int) -> list[tuple[float, int]]:
        pair[:, 0] = bundles + undecided
        pair[:, 1] = pair[:, 0]
        pair[:, 1, j] = 0.0
        with_j, without_j = [], []
        for i, ev in enumerate(evaluators):
            hi, lo = np.asarray(ev(pair[i]), dtype=np.float64).tolist()
            with_j.append(hi)
            without_j.append(lo)
        children = []
        for choice in range(n + 1):  # bidders 0..n-1, then nobody
            b = 0.0
            for i in range(n):  # summed in bidder order
                b += with_j[i] if i == choice else without_j[i]
            children.append((b, choice))
        return children

    def recurse(depth: int, node_bound: float):
        state["nodes"] += 1
        # past the deadline with no incumbent, keep diving to a feasible leaf
        if time.monotonic() > deadline and state["best_w"] is not None:
            state["abandoned"] = max([node_bound, *frontier[:depth]])
            raise _TimeUp
        if depth == m:
            leaf(node_bound)
            return
        j = order[depth]
        children = child_bounds(j)
        undecided[j] = 0.0
        children.sort(key=lambda c: (-c[0], c[1]))
        for k, (b, choice) in enumerate(children):
            bw = state["best_w"]
            if bw is not None:
                if budget.relative_gap > 0 and b <= bw * (1 + budget.relative_gap):
                    continue
                if budget.relative_gap == 0 and b <= bw - WELFARE_TIE_TOL:
                    continue
            frontier[depth] = children[k + 1][0] if k + 1 < len(children) else -np.inf
            if choice < n:
                bundles[choice, j] = 1.0
            recurse(depth + 1, b)
            if choice < n:
                bundles[choice, j] = 0.0
        undecided[j] = 1.0

    status = "optimal" if budget.relative_gap == 0 else "gap_limit"
    proven_gap = budget.relative_gap
    try:
        recurse(0, np.inf)  # the root's bound is never read: no incumbent, no leaf
    except _TimeUp:
        status = "time_limit"
        w = state["best_w"]
        proven_gap = (
            float("inf") if not w
            else max(budget.relative_gap, state["abandoned"] / w - 1.0)
        )
    if state["best_alloc"] is None:
        raise InvalidInputError("exclusions rule out every assignment")
    return WdpSolution(
        allocation=state["best_alloc"],
        objective=state["best_w"],
        status=status,
        proven_gap=proven_gap,
        nodes=state["nodes"],
    )


# ---------------------------------------------------------------------------
# Reported-bundle winner determination
# ---------------------------------------------------------------------------


def solve_reported_wdp(reports) -> WdpSolution:
    """Each bidder receives one of their reported bundles or nothing; bundles
    must be item-disjoint.  Exhaustive search over the report choices."""
    n, m = reports.n, reports.m
    options = []
    for i in range(n):
        opts = [(np.zeros(m, dtype=np.int64), 0.0)]
        for b, v in reports.per_bidder[i]:
            if b.sum() > 0:
                opts.append((b, v))
        options.append(opts)
    best = {"w": None, "alloc": None}
    alloc = np.zeros((n, m), dtype=np.int64)
    nodes = 0

    def recurse(i: int, used: np.ndarray, w: float):
        nonlocal nodes
        nodes += 1
        if i == n:
            bf = None if best["alloc"] is None else best["alloc"].ravel()
            if _better(w, alloc.ravel(), best["w"], bf):
                best["w"], best["alloc"] = w, alloc.copy()
            return
        for b, v in options[i]:
            if (used + b).max() <= 1:
                alloc[i] = b
                recurse(i + 1, used + b, w + v)
        alloc[i] = 0

    recurse(0, np.zeros(m, dtype=np.int64), 0.0)
    return WdpSolution(allocation=best["alloc"], objective=best["w"], nodes=nodes)


# ---------------------------------------------------------------------------
# Mixed-integer encoding over monotone networks
# ---------------------------------------------------------------------------


def box_bounds(params: MvnnParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tight pre-activation bounds (l, u) per hidden layer, attained at the
    empty and full bundles respectively because the network is monotone."""
    lo_z = np.zeros(params.m)
    hi_z = np.ones(params.m)
    out = []
    for k in range(params.num_hidden):
        lo_o = params.weights[k] @ lo_z + params.biases[k]
        hi_o = params.weights[k] @ hi_z + params.biases[k]
        out.append((lo_o, hi_o))
        lo_z = np.clip(lo_o, 0.0, params.cutoffs[k])
        hi_z = np.clip(hi_o, 0.0, params.cutoffs[k])
    return out


def lemma_assignment(o: float, t: float) -> tuple[int, int]:
    """Feasible binary pair for a neuron with pre-activation o and cutoff t:
    below zero both off, in the linear band only the upper indicator on,
    saturated both on."""
    if o < 0:
        return 0, 0
    if o <= t:
        return 1, 0
    return 1, 1


@dataclass
class WdpModel:
    """A mixed-integer maximization over indexed columns: rows and the
    objective map column index -> coefficient."""

    var_names: list = field(default_factory=list)  # unique; used in LP text
    var_lb: list = field(default_factory=list)
    var_ub: list = field(default_factory=list)
    var_int: list = field(default_factory=list)
    # constraints: (name, {column: coeff}, lb, ub), exactly one side finite
    constraints: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)
    objective_const: float = 0.0
    prune_log: list = field(default_factory=list)

    def add_var(self, name, lb, ub, integer=False) -> int:
        self.var_names.append(name)
        self.var_lb.append(float(lb))
        self.var_ub.append(float(ub))
        self.var_int.append(bool(integer))
        return len(self.var_names) - 1

    def add_constraint(self, name, coeffs, lb, ub):
        lb, ub = float(lb), float(ub)
        if math.isfinite(lb) == math.isfinite(ub):
            raise InvalidInputError(f"row {name} must have exactly one finite side")
        coeffs = {v: float(c) for v, c in coeffs.items() if c != 0.0}
        self.constraints.append((name, coeffs, lb, ub))


def _affine_sum(terms, const=0.0):
    """Sum of scaled affine expressions; terms: iterable of (scale, (coeffs,
    const)) with coeffs a {column: coeff} dict."""
    out: dict = {}
    c = float(const)
    for scale, (coeffs, k) in terms:
        if scale == 0.0:
            continue
        c += scale * k
        for v, w in coeffs.items():
            out[v] = out.get(v, 0.0) + scale * w
    return (out, c)


def encode_milp(nets: list[MvnnParams], exclusions=None, prune: bool = True) -> WdpModel:
    """Exact winner-determination MILP over monotone networks.

    Each hidden neuron's clipped activation z = min(t, max(0, o)) is encoded
    with two indicator binaries and four linear constraints; ``prune``
    replaces neurons whose box bounds pin them down (always saturated,
    always off, always linear, or reachable from one side only) by fixed
    values, affine identities, or a single binary.  Optional per-bidder
    ``exclusions`` add cuts making each listed bundle infeasible for that
    bidder.
    """
    if not nets:
        raise InvalidInputError("need at least one bidder network")
    m = nets[0].m
    if any(net.m != m for net in nets):
        raise InvalidInputError("all networks must share the item count")
    model = WdpModel()
    # allocation columns first, bidder-major: a_i_j is column i * m + j
    for i in range(len(nets)):
        for j in range(m):
            model.add_var(f"a_{i}_{j}", 0, 1, integer=True)
    for j in range(m):
        model.add_constraint(f"item_{j}", {i * m + j: 1.0 for i in range(len(nets))}, -np.inf, 1.0)

    obj = ({}, 0.0)
    for i, net in enumerate(nets):
        bounds = box_bounds(net)
        inputs = zexpr = [({i * m + j: 1.0}, 0.0) for j in range(m)]
        for k in range(net.num_hidden):
            lo, hi = bounds[k]
            new_z = []
            for j in range(net.weights[k].shape[0]):
                o = _affine_sum(zip(net.weights[k][j], zexpr), const=net.biases[k][j])
                t = float(net.cutoffs[k][j])
                l, u = float(lo[j]), float(hi[j])
                tag = f"{i}_{k}_{j}"
                if prune and t < l:
                    model.prune_log.append((i, k, j, "fixed-saturated"))
                    new_z.append(({}, t))
                    continue
                if prune and u < 0:
                    model.prune_log.append((i, k, j, "fixed-off"))
                    new_z.append(({}, 0.0))
                    continue
                if prune and 0 <= l and u <= t:
                    model.prune_log.append((i, k, j, "affine-identity"))
                    new_z.append(o)
                    continue
                z = model.add_var(f"z_{tag}", max(0.0, l), min(t, u))
                # indicators alpha = [o > 0], beta = [o > t]; prune fixes
                # alpha = 1 when only the linear band and saturation are
                # reachable, beta = 0 when only off and the linear band are
                alpha = beta = None
                if prune and 0 <= l <= t < u:
                    model.prune_log.append((i, k, j, "alpha-fixed"))
                else:
                    alpha = model.add_var(f"alpha_{tag}", 0, 1, integer=True)
                if prune and l <= 0 < u <= t:
                    model.prune_log.append((i, k, j, "beta-fixed"))
                else:
                    beta = model.add_var(f"beta_{tag}", 0, 1, integer=True)
                z_minus_o, k_zo = _affine_sum([(1.0, ({z: 1.0}, 0.0)), (-1.0, o)])
                # z <= alpha t and z <= o - l (1 - alpha)
                ub2, rhs2 = dict(z_minus_o), -k_zo
                if alpha is not None:
                    model.add_constraint(f"n{tag}_ub1", {z: 1.0, alpha: -t}, -np.inf, 0.0)
                    ub2[alpha], rhs2 = -l, rhs2 - l
                model.add_constraint(f"n{tag}_ub2", ub2, -np.inf, rhs2)
                # z >= beta t and z >= o + (t - u) beta
                lb2 = dict(z_minus_o)
                if beta is not None:
                    model.add_constraint(f"n{tag}_lb1", {z: 1.0, beta: -t}, 0.0, np.inf)
                    lb2[beta] = -(t - u)
                model.add_constraint(f"n{tag}_lb2", lb2, -k_zo, np.inf)
                new_z.append(({z: 1.0}, 0.0))
            zexpr = new_z
        terms = [(float(net.weights[-1][0, j]), zexpr[j]) for j in range(len(zexpr))]
        if net.skip is not None:
            terms += zip(net.skip.tolist(), inputs)
        obj = _affine_sum([(1.0, obj)] + terms)

    if exclusions is not None:
        for i, bundles in enumerate(exclusions):
            for idx, b in enumerate(bundles or []):
                x = np.asarray(b, dtype=np.int64).ravel()
                coeffs = {i * m + j: (1.0 if x[j] == 0 else -1.0) for j in range(m)}
                model.add_constraint(f"excl_{i}_{idx}", coeffs, 1.0 - float(x.sum()), np.inf)

    model.objective, model.objective_const = obj
    return model


def _matrix(model: WdpModel):
    """``(c, A, row_lb, row_ub)``: the objective as a dense vector, the rows
    as a CSR array and their bounds."""
    from scipy.sparse import csr_array

    c = np.zeros(len(model.var_names))
    c[list(model.objective)] = list(model.objective.values())
    indptr, indices, data = [0], [], []
    for _, coeffs, _, _ in model.constraints:
        indices += coeffs
        data += coeffs.values()
        indptr.append(len(indices))
    A = csr_array((data, indices, indptr), shape=(len(model.constraints), len(c)))
    row_lb, row_ub = np.array([row[2:] for row in model.constraints]).reshape(-1, 2).T
    return c, A, row_lb, row_ub


def check_encoding_at(net: MvnnParams, bundle: np.ndarray) -> bool:
    """Check the unpruned encoding of ``net`` at one bundle: with the
    allocation set to the bundle, each neuron's z to its clipped
    pre-activation and its indicators to :func:`lemma_assignment`, every row
    and every variable bound of ``encode_milp([net], prune=False)`` holds
    within FEASIBILITY_TOL."""
    model = encode_milp([net], prune=False)
    z = np.asarray(bundle, dtype=np.float64)
    values = list(z)
    for k in range(net.num_hidden):
        o = net.weights[k] @ z + net.biases[k]
        z = np.clip(o, 0.0, net.cutoffs[k])
        for j in range(len(o)):
            # unpruned, each neuron adds its columns z, alpha, beta in order
            values += [z[j], *lemma_assignment(float(o[j]), float(net.cutoffs[k][j]))]
    x = np.array(values)
    _, A, row_lb, row_ub = _matrix(model)
    vals = np.concatenate([A @ x, x])
    lo = np.concatenate([row_lb, model.var_lb]) - FEASIBILITY_TOL
    hi = np.concatenate([row_ub, model.var_ub]) + FEASIBILITY_TOL
    return bool(((vals >= lo) & (vals <= hi)).all())


def solve_model(model: WdpModel) -> tuple[np.ndarray, float]:
    """Solve a WdpModel with scipy's HiGHS mixed-integer backend; returns
    the column values and the objective."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, A, row_lb, row_ub = _matrix(model)
    res = milp(
        -c,  # HiGHS minimizes
        constraints=LinearConstraint(A, row_lb, row_ub),
        bounds=Bounds(np.asarray(model.var_lb), np.asarray(model.var_ub)),
        integrality=np.asarray(model.var_int, dtype=np.int64),
    )
    if res.status != 0:
        raise InvalidInputError(f"MILP solve failed: {res.message}")
    return res.x, model.objective_const + sum(w * float(res.x[v]) for v, w in model.objective.items())


def milp_wdp(nets: list[MvnnParams], exclusions=None, prune: bool = True) -> WdpSolution:
    """Winner determination over monotone networks via the MILP encoding."""
    model = encode_milp(nets, exclusions=exclusions, prune=prune)
    x, _ = solve_model(model)
    n, m = len(nets), nets[0].m
    a = x[: n * m].reshape(n, m)
    off = np.minimum(np.abs(a), np.abs(a - 1)) > INTEGRALITY_TOL
    if off.any():
        i, j = np.argwhere(off)[0]
        raise InvalidInputError(f"non-integral allocation variable a_{i}_{j}={a[i, j]}")
    alloc = np.round(a).astype(np.int64)
    if (alloc.sum(axis=0) > 1).any():
        raise InvalidInputError("MILP solution assigns an item twice")
    true_obj = float(sum(net.forward(alloc[i].astype(np.float64)) for i, net in enumerate(nets)))
    return WdpSolution(allocation=alloc, objective=true_obj)


# ---------------------------------------------------------------------------
# LP text round trip
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _terms(model: WdpModel, coeffs: dict) -> str:
    names = model.var_names
    return " ".join(
        f"{'-' if w < 0 else '+'} {_fmt(abs(w))} {names[v]}"
        for v, w in sorted(coeffs.items(), key=lambda vw: names[vw[0]])
    )


def emit_lp_file(model: WdpModel) -> str:
    """Serialize to CPLEX-style LP text (deterministic ordering).

    The objective constant, which the LP format cannot carry, travels in a
    structured comment read back by :func:`parse_lp_file`.
    """
    lines = [
        "\\ winner-determination model",
        f"\\ objective_constant {_fmt(model.objective_const)}",
        "Maximize",
    ]
    lines.append(f" obj: {_terms(model, model.objective) or '0 ' + model.var_names[0]}")
    lines.append("Subject To")
    for name, coeffs, lb, ub in model.constraints:
        sense, rhs = ("<=", ub) if math.isfinite(ub) else (">=", lb)
        lines.append(f" {name}: {_terms(model, coeffs)} {sense} {_fmt(rhs)}")
    lines.append("Bounds")
    for k, name in enumerate(model.var_names):
        if not model.var_int[k]:
            lines.append(f" {_fmt(model.var_lb[k])} <= {name} <= {_fmt(model.var_ub[k])}")
    binaries = [name for k, name in enumerate(model.var_names) if model.var_int[k]]
    if binaries:
        lines.append("Binary")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_lp_file(text: str) -> WdpModel:
    """Parse LP text produced by :func:`emit_lp_file` back into a model;
    every row must be one-sided (``<=`` or ``>=``)."""
    model = WdpModel()
    section = None
    obj_const = 0.0
    objective = {}
    rows = []  # (name, coeffs by variable name, lb, ub)
    bounds = {}
    binaries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            parts = line[1:].split()
            if parts and parts[0] == "objective_constant":
                obj_const = float(parts[1])
            continue
        low = line.lower()
        if low in ("maximize", "minimize", "subject to", "bounds", "binary", "end"):
            section = low
            continue
        if section == "maximize":
            _, expr = line.split(":", 1)
            objective = _parse_terms(expr)
        elif section == "subject to":
            name, rest = line.split(":", 1)
            sense = next((s for s in ("<=", ">=") if s in rest), None)
            if sense is None:
                raise InvalidInputError(f"row {name.strip()} is not a <= or >= row")
            body, rhs = rest.rsplit(sense, 1)
            side = (-np.inf, float(rhs)) if sense == "<=" else (float(rhs), np.inf)
            rows.append((name.strip(), _parse_terms(body), *side))
        elif section == "bounds":
            lo, name, hi = line.split("<=")
            bounds[name.strip()] = (float(lo), float(hi))
        elif section == "binary":
            binaries.append(line)
    names = set(objective).union(bounds, binaries, *(row[1] for row in rows))
    col = {}
    for name in sorted(names):
        lo, hi = (0, 1) if name in binaries else bounds.get(name, (0.0, np.inf))
        col[name] = model.add_var(name, lo, hi, integer=name in binaries)
    for name, coeffs, lb, ub in rows:
        model.add_constraint(name, {col[v]: w for v, w in coeffs.items()}, lb, ub)
    model.objective = {col[v]: w for v, w in objective.items()}
    model.objective_const = obj_const
    return model


def _parse_terms(expr: str) -> dict:
    coeffs: dict[str, float] = {}
    tokens = expr.split()
    sign = 1.0
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if tok == "+":
            sign = 1.0
            k += 1
        elif tok == "-":
            sign = -1.0
            k += 1
        else:
            value = float(tok)
            name = tokens[k + 1]
            coeffs[name] = coeffs.get(name, 0.0) + sign * value
            sign = 1.0
            k += 2
    return coeffs
