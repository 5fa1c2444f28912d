"""Winner determination: who gets which items to maximize total value.

Three solving routes, used to check each other:

* ``brute_force_wdp`` -- exhaustive enumeration of every assignment of
  items to bidders, the ground-truth oracle at desk scale.  It values each
  bidder once per bundle, into a table of its 2^m values, and reads every
  assignment's welfare from the tables,
* ``solve_wdp`` -- a native branch-and-bound over item-to-bidder decisions.
  Each node evaluates every bidder on its undecided items with none, one
  or two of them removed, in one call; it branches on the item whose
  "nobody" child has the lowest bound, and bounds each child by the
  tighter of a single-removal and a pair look-ahead bound, both admissible
  because the value functions are monotone,
* ``encode_milp`` / ``solve_model`` -- an exact mixed-integer encoding of
  winner determination over monotone networks, solvable with scipy's HiGHS
  backend and exportable as LP text for other solvers.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .domain import as_bundle
from .errors import InvalidInputError, UnsupportedSizeError
from .mvnn import MvnnParams

INTEGRALITY_TOL = 1e-6
WELFARE_TIE_TOL = 1e-9
BRUTE_FORCE_LIMIT = 10**7
# Rows per vectorised block, both when a bidder's bundles are valued into
# its table and when the assignments are walked.  A valuation block holds a
# (B, m) bundle matrix and the evaluator's scratch; a walk block holds a few
# (B,) code and value arrays per bidder.  On a 2-vCPU VM, peak RSS after the
# `fit-m18` benchmark's set-up (three n=1, m=18 instances, so no table;
# 30.9 MB after import) was 37.2 MB for blocks of 1,024 rows, 37.5 MB for
# 4,096, 39.7 MB for 16,384 and 50.9 MB for 65,536, and 4,096 rows was the
# fastest.  A value kernel's result for a row can depend on the row's
# position in its batch, so the block is a power of two: bundle code c sits
# at position c mod B, which keeps its position modulo the kernels' unroll
# widths whatever the block size, and so the optimum is bit-identical
# across block sizes.
BRUTE_FORCE_CHUNK = 1 << 12


@dataclass
class SolveBudget:
    relative_gap: float = 0.0
    time_limit_secs: float = 600.0

    def __post_init__(self):
        # written so that NaN fails both checks
        if not (self.relative_gap >= 0 and self.time_limit_secs > 0):
            raise InvalidInputError("gap must be >= 0 and time limit positive")


@dataclass
class WdpSolution:
    allocation: np.ndarray  # (n, m) 0/1
    objective: float
    status: str = "optimal"  # optimal | gap_limit | time_limit
    proven_gap: float = 0.0
    nodes: int = 0
    # the optimum with no exclusions, proven by the same search; set by
    # ``solve_wdp`` only when its status is "optimal" at gap 0
    unconstrained: WdpSolution | None = None


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


def _exclusion_sets(n: int, m: int, exclusions) -> list[dict | None]:
    """Per bidder, its excluded bundles as tuples, or None: the keys of a
    dict, so lookups are O(1) and the MILP adds its cuts in the given
    order.  ``exclusions`` holds one entry per bidder; another length, or
    a bundle that is not m 0s and 1s, raises ``InvalidInputError``."""
    if exclusions is None:
        return [None] * n
    if len(exclusions) != n:
        raise InvalidInputError(f"exclusions hold {len(exclusions)} entries for {n} bidders")
    return [None if bundles is None else
            dict.fromkeys(tuple(as_bundle(b, m).tolist()) for b in bundles)
            for bundles in exclusions]


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def _bundle_rows(codes: np.ndarray, m: int) -> np.ndarray:
    """The (B, m) float64 0/1 bundles of B bundle codes (item j is bit j)."""
    octets = codes.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=m, bitorder="little").astype(np.float64)


def _code_blocks(total: int):
    """0 .. total-1 in blocks of ``BRUTE_FORCE_CHUNK``."""
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        yield np.arange(start, min(start + BRUTE_FORCE_CHUNK, total), dtype=np.int64)


def _value_table(evaluate, m: int) -> np.ndarray:
    """A bidder's values of all 2^m bundles, in bundle-code order."""
    return np.concatenate([np.asarray(evaluate(_bundle_rows(c, m)), dtype=np.float64)
                           for c in _code_blocks(1 << m)])


def _half_codes(n: int, items: range) -> list[np.ndarray]:
    """Per bidder, its bundle code within ``items`` under each assignment of
    those items, indexed by the assignment's base-(n+1) code."""
    digits = (np.arange((n + 1) ** len(items), dtype=np.int64)[:, None]
              // (n + 1) ** np.arange(len(items), dtype=np.int64)) % (n + 1)
    weights = 1 << np.array(items, dtype=np.int64)
    return [((digits == i + 1) * weights).sum(axis=1) for i in range(n)]


def _banned_codes(n: int, m: int, exclusions) -> list[np.ndarray | None]:
    """Per bidder, the codes of its excluded bundles, or None without
    exclusions."""
    weights = 1 << np.arange(m, dtype=np.int64)
    return [None if s is None else np.array(list(s), dtype=np.int64).reshape(-1, m) @ weights
            for s in _exclusion_sets(n, m, exclusions)]


def brute_force_wdp(evaluators, m: int, exclusions=None) -> WdpSolution:
    """Enumerate all (n+1)^m assignments of each item to a bidder or nobody.

    ``evaluators[i]`` maps a (B, m) 0/1 array to (B,) values.  ``exclusions``
    is an optional per-bidder collection of forbidden bundles.

    Each bidder is valued once per bundle.  Its 2^m values, and its
    excluded bundles as a boolean mask, are tables in bundle-code order
    (code = sum_j x_j 2^j), valued in blocks of ``BRUTE_FORCE_CHUNK``.  The
    assignments are walked in base-(n+1) code order, in blocks of the same
    size.  Assignment a splits at P = (n+1)^(m//2) into its low and high
    items, so bidder i's bundle code is ``lo_i[a % P] | hi_i[a // P]``, and
    the welfare sums the bidders' table entries in bidder order, from 0.0.
    The tables hold n 2^m floats (2^m <= 16,384 once n >= 2 under
    ``BRUTE_FORCE_LIMIT``).  With one bidder the assignments are the
    bundles, so each block is valued as it is walked and no table is held.
    """
    n = len(evaluators)
    total = (n + 1) ** m
    if total > BRUTE_FORCE_LIMIT:
        raise UnsupportedSizeError(
            f"{total} assignments exceed the brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    banned = _banned_codes(n, m, exclusions)
    if n == 1:
        def bundles(a):  # a block's bundle codes, values and exclusion masks
            return ([a], [evaluators[0](_bundle_rows(a, m))],
                    [np.isin(a, b) for b in banned if b is not None])
    else:
        tables = [_value_table(ev, m) for ev in evaluators]
        masks = [None if b is None else np.isin(np.arange(1 << m), b) for b in banned]
        lo, hi = _half_codes(n, range(m // 2)), _half_codes(n, range(m // 2, m))

        def bundles(a):
            high, low = np.divmod(a, (n + 1) ** (m // 2))
            codes = [l[low] | h[high] for l, h in zip(lo, hi)]
            return (codes, [t[c] for t, c in zip(tables, codes)],
                    [mask[c] for mask, c in zip(masks, codes) if mask is not None])
    best_w, best_alloc = None, None
    for a in _code_blocks(total):
        codes, values, excluded = bundles(a)
        welfare = np.zeros(len(a))
        for v in values:
            welfare += np.asarray(v, dtype=np.float64)
        if excluded:
            infeasible = np.logical_or.reduce(excluded)
            welfare[infeasible] = -np.inf
            if infeasible.all():
                continue
        if best_w is not None and welfare.max() < best_w - WELFARE_TIE_TOL:
            continue
        cutoff = welfare.max() if best_w is None else max(welfare.max(), best_w)
        for idx in np.flatnonzero(welfare >= cutoff - WELFARE_TIE_TOL):
            alloc = (np.array([c[idx] for c in codes], dtype=np.int64)[:, None] >> np.arange(m)) & 1
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


def _batched(evaluators):
    """One callable over (n, k, m) from n per-bidder callables over (k, m)."""
    def evaluate(X):
        values = [np.asarray(ev(x), dtype=np.float64) for ev, x in zip(evaluators, X)]
        return np.array(values).reshape(np.shape(X)[:2])  # (0, k) with no bidders too
    return evaluate


@functools.lru_cache(maxsize=None)
def _node_rows(m: int):
    """The batch layout of a B&B node over m items, before it keeps the
    rows whose removed items are all undecided: row 0 removes nothing, row
    1 + k removes item k, then the row of each pair k < l, in lexicographic
    order, removes both.

    Returns the (R, m) 0/1 removal matrix; ``keeps``, where ``keeps[j]``
    marks the rows that leave item j in; and ``term_rows``, where
    ``term_rows[j, o, k]``, for branching item j and another item k, is the
    row that a bidder's pair-bound term reads when it gets neither item
    (o = 0), j only (1), k only (2) or both (3)."""
    k, l = np.triu_indices(m, 1)
    pairs = 1 + m + np.arange(len(k))
    items = np.arange(m)
    removed = np.zeros((1 + m + len(k), m))
    removed[1 + items, items] = removed[pairs, k] = removed[pairs, l] = 1.0
    keeps = removed.T == 0
    term_rows = np.zeros((m, 4, m), dtype=np.intp)
    term_rows[k, 0, l] = term_rows[l, 0, k] = pairs
    term_rows[:, 1] = 1 + items
    term_rows[:, 2] = 1 + items[:, None]
    for a in (removed, keeps, term_rows):
        a.flags.writeable = False  # shared by every solve over m items
    return removed, keeps, term_rows


def solve_wdp(evaluators, m: int, budget: SolveBudget | None = None, exclusions=None,
              prior: WdpSolution | None = None) -> WdpSolution:
    """Branch and bound over item-to-bidder-or-nobody decisions.

    ``evaluators`` is a stack of n networks (``MvnnParams.stack``), whose
    ``forward`` maps (n, k, m) to (n, k), or a list of n per-bidder
    callables from (k, m) to (k,).

    A node has assigned bundles S_i and a set U of u undecided items.  It
    makes one evaluator call, on an (n, 1 + u + u(u-1)/2, m) batch (a list
    of callables gets one call per bidder on its rows), whose rows per
    bidder i are S_i | U, then S_i | U - {k} for each undecided k, then
    S_i | U - {k, l} for each undecided pair, items and pairs in increasing
    order (``_node_rows``, cached per m).  From these values the node

    * branches on the undecided item j whose "nobody" child has the lowest
      single-removal bound sum_i v_i(S_i | U - {j}), ties to the lowest j;
    * bounds each child by the lower of two bounds.  The single-removal
      bound of child c (bidder c takes j) is v_c(S_c | U) +
      sum_{i != c} v_i(S_i | U - {j}), of the nobody child
      sum_i v_i(S_i | U - {j}), summed in bidder order.  The pair bound is
      the minimum over the other undecided items k of the maximum, over
      k's taker (a bidder or nobody), of sum_i v_i(S_i | U - R_i), where
      R_i holds the items of {j, k} that bidder i does not get.

    Both bounds are admissible because every value function is monotone:
    in every leaf below the child, each bidder's bundle lies inside the
    set its term evaluates, and k goes to one of the takers the maximum
    ranges over.  At u = 1 there is no pair, so the bound is the
    single-removal sum from an (n, 2, m) batch; at depth m that is the
    leaf's exact welfare, so leaves evaluate nothing.

    At GSVM scale (n=7, m=18, 10-10 nets) the root call is 1,204 rows; its
    widest product, about 2.2e5 multiply-adds over the stack, stays under
    the threading threshold that ``forward_cache`` documents.

    Children are explored best-bound first.  With a zero relative gap,
    nodes whose bound ties the incumbent are still explored so the
    lexicographic tie-break matches the brute-force oracle.  With a positive
    gap, the status is "gap_limit" with the budget's gap only if the gap
    rule pruned a child whose bound beats the final incumbent by more than
    WELFARE_TIE_TOL; otherwise the optimum is proven, "optimal" at gap 0
    (its tie-break may still differ from the oracle's).  On a time limit
    the search stops at the first node entered once an incumbent exists (so
    it goes on past the deadline until the first feasible leaf), and the
    proven gap covers that node and every unexplored sibling on the path to
    it.

    At gap 0, node bounds do not depend on the exclusions, which only
    leaves check, and nothing pruned can beat the incumbent.  So the best
    leaf the search reaches by ``_better``, excluded or not, is the optimum
    with no exclusions.  A solve with status "optimal" at gap 0 returns it
    as ``unconstrained``; any other solve sets that field to None.

    ``prior`` takes such an ``unconstrained`` optimum from an earlier solve
    of the same evaluators (the caller's contract: the same nets in the same
    order).  It is used only when the budget's gap is 0, and only if no
    bidder's bundle in it is excluded: it is then this solve's answer too,
    returned at once, with ``nodes=0`` and no evaluator call.  Otherwise the
    search runs as if no prior were given.
    """
    if m < 1:
        raise InvalidInputError("need at least one item")
    budget = budget or SolveBudget()
    if isinstance(evaluators, MvnnParams):
        n, evaluate = evaluators.weights[0].shape[0], evaluators.forward  # n stacked nets
    else:
        n, evaluate = len(evaluators), _batched(evaluators)
    excl = _exclusion_sets(n, m, exclusions)
    if prior is not None and budget.relative_gap == 0:
        if prior.allocation.shape != (n, m):
            raise InvalidInputError("prior allocation does not match the evaluators")
        if not any(_excluded(b, e) for b, e in zip(prior.allocation, excl)):
            return WdpSolution(allocation=prior.allocation.copy(), objective=prior.objective,
                               unconstrained=prior)
    deadline = time.monotonic() + budget.time_limit_secs

    removed, keeps, term_rows = _node_rows(m)
    # term_index[j][c, t, i, k] indexes the flat (n, R) node values: bidder
    # i's pair-bound term when child c takes j and t takes k (n is nobody)
    is_taker = np.arange(n + 1)[:, None] == np.arange(n)  # (taker, bidder)
    option = is_taker[:, None] * 1 + is_taker[None] * 2  # the o of term_rows, per (c, t, i)
    term_index = term_rows[:, option] + (np.arange(n) * len(removed))[:, None]
    bundles = np.zeros((n, m))
    undecided = np.ones(m)
    # best bound among the not-yet-explored siblings at each depth
    frontier = [-np.inf] * m
    # the incumbent; apart from it, the best leaf an exclusion rejected; and
    # the highest bound the gap rule pruned
    state = {"best_w": None, "best_alloc": None, "rejected_w": None, "rejected_alloc": None,
             "nodes": 0, "gap_pruned": -np.inf}

    def leaf(w: float):
        kind = "rejected" if any(_excluded(b, e) for b, e in zip(bundles, excl)) else "best"
        alloc, held = bundles.astype(np.int64), state[kind + "_alloc"]
        if _better(w, alloc.ravel(), state[kind + "_w"], None if held is None else held.ravel()):
            state[kind + "_w"], state[kind + "_alloc"] = w, alloc

    def branch(rows: np.ndarray) -> tuple[int, list[tuple[float, int]]]:
        """The branching item and its children's (bound, taker) pairs."""
        values = np.zeros((n, len(removed)))  # by row of the full layout
        values[:, rows] = evaluate((bundles + undecided)[:, None, :] - removed[rows])
        # the rows of decided items are not evaluated; closed masks them out
        closed = np.where(undecided > 0, 0.0, np.inf)
        j = int(np.argmin(values[:, 1 : m + 1].sum(axis=0) + closed))  # ties to the lowest item
        hi_lo = list(zip(values[:, 0].tolist(), values[:, 1 + j].tolist()))  # S_i | U, S_i | U - {j}
        singles = []
        for choice in range(n + 1):  # bidders 0..n-1, then nobody
            b = 0.0
            for i, (hi, lo) in enumerate(hi_lo):  # summed in bidder order
                b += hi if i == choice else lo
            singles.append(b)
        closed[j] = np.inf  # k ranges over the other undecided items
        pair = (values.take(term_index[j]).sum(axis=2).max(axis=1) + closed).min(axis=1)
        return j, [(min(b, p), c) for c, (b, p) in enumerate(zip(singles, pair.tolist()))]

    def recurse(depth: int, node_bound: float, rows: np.ndarray):
        state["nodes"] += 1
        # past the deadline with no incumbent, keep diving to a feasible leaf
        if time.monotonic() > deadline and state["best_w"] is not None:
            state["abandoned"] = max([node_bound, *frontier[:depth]])
            raise _TimeUp
        if depth == m:
            leaf(node_bound)
            return
        j, children = branch(rows)
        undecided[j] = 0.0
        rows = rows[keeps[j, rows]]
        children.sort(key=lambda c: (-c[0], c[1]))
        for k, (b, choice) in enumerate(children):
            bw = state["best_w"]
            if bw is not None:
                if budget.relative_gap > 0 and b <= bw * (1 + budget.relative_gap):
                    state["gap_pruned"] = max(state["gap_pruned"], b)
                    continue
                if budget.relative_gap == 0 and b <= bw - WELFARE_TIE_TOL:
                    continue
            frontier[depth] = children[k + 1][0] if k + 1 < len(children) else -np.inf
            if choice < n:
                bundles[choice, j] = 1.0
            recurse(depth + 1, b, rows)
            if choice < n:
                bundles[choice, j] = 0.0
        undecided[j] = 1.0

    timed_out = False
    try:
        recurse(0, np.inf, np.arange(len(removed)))  # the root's bound is never read: no incumbent, no leaf
    except _TimeUp:
        timed_out = True
    best_w, best_alloc = state["best_w"], state["best_alloc"]
    if best_alloc is None:
        raise InvalidInputError("exclusions rule out every assignment")
    # the gap holds only if the gap rule pruned a bound that beats the incumbent
    proven_gap = budget.relative_gap if state["gap_pruned"] > best_w + WELFARE_TIE_TOL else 0.0
    status = "optimal" if proven_gap == 0 else "gap_limit"
    if timed_out:
        status = "time_limit"
        proven_gap = float("inf") if not best_w else max(proven_gap, state["abandoned"] / best_w - 1.0)
    unconstrained = None
    if status == "optimal" and budget.relative_gap == 0:
        w, alloc = best_w, best_alloc
        rejected = state["rejected_alloc"]
        if rejected is not None and _better(state["rejected_w"], rejected.ravel(), w, alloc.ravel()):
            w, alloc = state["rejected_w"], rejected
        unconstrained = WdpSolution(allocation=alloc.copy(), objective=w)
    return WdpSolution(
        allocation=best_alloc,
        objective=best_w,
        status=status,
        proven_gap=proven_gap,
        nodes=state["nodes"],
        unconstrained=unconstrained,
    )


# ---------------------------------------------------------------------------
# Reported-bundle winner determination
# ---------------------------------------------------------------------------


def _bit_code(bundle: np.ndarray) -> int:
    """A 0/1 bundle as a Python int, item 0 the most significant of its m
    bits: codes of one length compare as their bundles do, item by item."""
    return int.from_bytes(np.packbits(bundle).tobytes(), "big") >> (-len(bundle) % 8)


def solve_reported_wdp(reports) -> WdpSolution:
    """Each bidder receives one of their reported bundles or nothing; bundles
    must be item-disjoint.

    A depth-first search over the report choices: bidders in index order,
    each taking nothing first, then its nonempty reports in report order.
    A leaf's welfare is its values added in bidder order from 0.0, and
    ``_better`` decides whether it becomes the incumbent.  Bundles are
    ``_bit_code``s, so a conflict is ``code & used``, and a list of the
    bidders' codes compares as the flattened allocation does.

    A node's bound is its welfare plus, bidder by bidder, each later
    bidder's largest value among nothing and its reports disjoint from the
    items used.  Float addition is monotone, so no leaf below the node sums
    above its bound.  A node whose bound is below ``best -
    WELFARE_TIE_TOL`` is cut off: ``_better`` would reject each of its
    leaves, whatever their allocations, and leave the incumbent as it is.
    So the search takes the incumbents of the exhaustive search, in the
    same order, and returns its allocation and objective bit for bit;
    ``nodes`` counts the nodes visited."""
    n, m = reports.n, reports.m
    options = [[(0, 0.0)] + [(_bit_code(b), v) for b, v in pairs if b.any()]
               for pairs in reports.per_bidder]
    # per bidder, its options by value, highest first, for the bound
    ranked = [sorted(opts, key=operator.itemgetter(1), reverse=True) for opts in options]
    codes = [0] * n
    best_w, best_codes, nodes = None, None, 0

    def visit(i: int, used: int, w: float):
        nonlocal best_w, best_codes, nodes
        nodes += 1
        if i == n:
            if _better(w, codes, best_w, best_codes):
                best_w, best_codes = w, tuple(codes)
            return
        if best_w is not None:
            bound = w
            for rank in ranked[i:]:
                for code, v in rank:  # ends at the empty bundle at the latest
                    if not code & used:
                        bound += v
                        break
            if bound < best_w - WELFARE_TIE_TOL:
                return
        for code, v in options[i]:
            if not code & used:
                codes[i] = code
                visit(i + 1, used | code, w + v)

    visit(0, 0, 0.0)
    allocation = np.array([[code >> (m - 1 - j) & 1 for j in range(m)] for code in best_codes],
                          dtype=np.int64)
    return WdpSolution(allocation=allocation, objective=best_w, nodes=nodes)


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
    excl = _exclusion_sets(len(nets), m, exclusions)
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
                # the clipped box; unpruned, an always-off or saturated z is pinned
                z = model.add_var(f"z_{tag}", min(t, max(0.0, l)), min(t, max(0.0, u)))
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

    for i, bundles in enumerate(excl):
        for idx, x in enumerate(bundles or ()):
            coeffs = {i * m + j: (1.0 if x[j] == 0 else -1.0) for j in range(m)}
            model.add_constraint(f"excl_{i}_{idx}", coeffs, 1.0 - float(sum(x)), np.inf)

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


def solve_model(model: WdpModel) -> tuple[np.ndarray, float, float]:
    """Solve a WdpModel with scipy's HiGHS mixed-integer backend; returns
    the column values, the objective and the relative gap HiGHS proved
    (0.0 for a proven optimum; HiGHS stops at its default gap of 1e-4)."""
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
    # a left fold, which the builtin sum of floats is not from Python 3.12 on
    objective = model.objective_const + functools.reduce(
        operator.add, [w * float(res.x[v]) for v, w in model.objective.items()], 0.0)
    return res.x, objective, float(res.mip_gap or 0.0)


def milp_wdp(nets: list[MvnnParams], exclusions=None, prune: bool = True) -> WdpSolution:
    """Winner determination over monotone networks via the MILP encoding;
    status ``gap_limit`` with HiGHS's gap unless it proved the optimum."""
    model = encode_milp(nets, exclusions=exclusions, prune=prune)
    x, _, gap = solve_model(model)
    n, m = len(nets), nets[0].m
    a = x[: n * m].reshape(n, m)
    off = np.minimum(np.abs(a), np.abs(a - 1)) > INTEGRALITY_TOL
    if off.any():
        i, j = np.argwhere(off)[0]
        raise InvalidInputError(f"non-integral allocation variable a_{i}_{j}={a[i, j]}")
    alloc = np.round(a).astype(np.int64)
    if (alloc.sum(axis=0) > 1).any():
        raise InvalidInputError("MILP solution assigns an item twice")
    # a left fold, which the builtin sum of floats is not from Python 3.12 on
    true_obj = functools.reduce(
        operator.add, [net.forward(alloc[i].astype(np.float64)) for i, net in enumerate(nets)], 0.0)
    return WdpSolution(alloc, true_obj, "optimal" if gap == 0 else "gap_limit", proven_gap=gap)


# ---------------------------------------------------------------------------
# LP text
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
    structured comment, ``\\ objective_constant <value>``.
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
