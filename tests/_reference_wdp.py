"""Brute-force winner determination, row by row, as the reference that
``wdp.brute_force_wdp`` must match bit for bit.

Every one of the (n+1)^m assignments is decoded into its base-(n+1)
digits, each bidder's (B, m) bundle matrix is built from them and valued
on every row, and the welfare sums those values in bidder order.  Only
the block size, the size limit, the tie rule (``_better``) and the
reading of exclusions come from the library.
"""

import numpy as np

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
