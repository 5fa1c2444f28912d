"""Reference winner determination, which the library's solvers must match
bit for bit.

``reference_brute_force_wdp`` is the reference for ``wdp.brute_force_wdp``:
every one of the (n+1)^m assignments is decoded into its base-(n+1)
digits, each bidder's (B, m) bundle matrix is built from them and valued
on every row, and the welfare sums those values in bidder order.  Only
the block size, the size limit, the tie rule (``_better``) and the
reading of exclusions come from the library.

``reference_reported_wdp`` is the reference for
``wdp.solve_reported_wdp``: the exhaustive search over every bidder's
report choices, on 0/1 arrays, with no bound.  ``reference_vcg_payments``
is ``mechanism.vcg_payments`` on it, each marginal economy's reports
re-added one by one into a fresh ``ReportSet``.
"""

import functools
import operator

import numpy as np

from iterauction.domain import ReportSet
from iterauction.errors import InvalidInputError, UnsupportedSizeError
from iterauction.wdp import (
    BRUTE_FORCE_CHUNK,
    BRUTE_FORCE_LIMIT,
    WELFARE_TIE_TOL,
    WdpSolution,
    _better,
    _exclusion_sets,
)


def reference_brute_force_wdp(evaluators, m: int, exclusions=None) -> WdpSolution:
    n = len(evaluators)
    total = (n + 1) ** m
    if total > BRUTE_FORCE_LIMIT:
        raise UnsupportedSizeError(
            f"{total} assignments exceed the brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    excl = _exclusion_sets(n, m, exclusions)
    radix = (n + 1) ** np.arange(m, dtype=np.int64)
    best_w, best_alloc = None, None
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        codes = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total), dtype=np.int64)
        digits = (codes[:, None] // radix[None, :]) % (n + 1)  # (B, m), 0 = nobody
        welfare = np.zeros(len(codes))
        bundles = []
        feasible = None
        for i in range(n):
            X = (digits == i + 1).astype(np.float64)
            bundles.append(X)
            welfare += np.asarray(evaluators[i](X), dtype=np.float64)
            if excl[i] is not None:
                if feasible is None:
                    feasible = np.ones(len(codes), dtype=bool)
                for e in excl[i]:
                    feasible &= ~(X == np.asarray(e, dtype=np.float64)).all(axis=1)
        if feasible is not None:
            welfare[~feasible] = -np.inf
            if not feasible.any():
                continue
        if best_w is not None and welfare.max() < best_w - WELFARE_TIE_TOL:
            continue
        cutoff = welfare.max() if best_w is None else max(welfare.max(), best_w)
        for idx in np.flatnonzero(welfare >= cutoff - WELFARE_TIE_TOL):
            alloc = np.array([b[idx] for b in bundles], dtype=np.int64).reshape(n, m)
            flat = alloc.ravel()
            if _better(welfare[idx], flat, best_w, None if best_alloc is None else best_alloc.ravel()):
                best_w, best_alloc = float(welfare[idx]), alloc
    if best_alloc is None:
        raise InvalidInputError("exclusions rule out every assignment")
    return WdpSolution(allocation=best_alloc, objective=best_w, nodes=total)


def reference_reported_wdp(reports) -> WdpSolution:
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


def reference_vcg_payments(reports) -> tuple[np.ndarray, np.ndarray]:
    n = reports.n
    main = reference_reported_wdp(reports)
    payments = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if not others:
            continue
        marginal = ReportSet(n - 1, reports.m)
        for k, j in enumerate(others):
            for b, v in reports.per_bidder[j]:
                marginal.add(k, b, v)
        without_i = reference_reported_wdp(marginal).objective
        with_i = functools.reduce(
            operator.add, [reports.value_of(j, main.allocation[j]) or 0.0 for j in others], 0.0)
        payments[i] = max(0.0, without_i - with_i)
    return main.allocation, payments
