"""Auction-domain primitives: bundles, allocations, reports, instances.

A bundle over ``m`` items is a 0/1 indicator vector of length ``m``.  An
allocation is one bundle per bidder; it is feasible when no item is handed
to more than one bidder.  Reported values only count toward welfare for
bundles a bidder has actually reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError

WELFARE_TOL = 1e-9


def dataclass_from_json(cls, obj: dict, what: str):
    """``cls(**obj)``, rejecting the keys that are not fields of the dataclass."""
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidInputError(f"unknown {what} keys {sorted(unknown)}")
    return cls(**obj)


def as_bundle(x, m: int | None = None) -> np.ndarray:
    """Validate and return a bundle as an int ndarray of shape (m,)."""
    b = np.asarray(x, dtype=np.int64).ravel()
    if m is not None and b.shape[0] != m:
        raise InvalidInputError(f"bundle length {b.shape[0]} != item count {m}")
    if not np.isin(b, (0, 1)).all():
        raise InvalidInputError("bundle entries must be 0 or 1")
    return b


def as_allocation(a, n: int | None = None, m: int | None = None) -> np.ndarray:
    """Validate and return an allocation as an int ndarray of shape (n, m)."""
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        raise InvalidInputError("allocation must be a 2-D bidder x item array")
    if n is not None and arr.shape[0] != n:
        raise InvalidInputError(f"allocation has {arr.shape[0]} bidders, expected {n}")
    if m is not None and arr.shape[1] != m:
        raise InvalidInputError(f"allocation has {arr.shape[1]} items, expected {m}")
    if not np.isin(arr, (0, 1)).all():
        raise InvalidInputError("allocation entries must be 0 or 1")
    return arr


def is_feasible(allocation, m: int) -> bool:
    """True iff no item is assigned to more than one bidder."""
    a = as_allocation(allocation, m=m)
    return bool((a.sum(axis=0) <= 1).all())


def empty_allocation(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=np.int64)


class ReportSet:
    """Per-bidder lists of (bundle, reported value) pairs.

    Duplicate bundles within one bidder's list are rejected, values must be
    non-negative, and the empty bundle may only be reported at value 0.
    """

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise InvalidInputError("need n >= 1 bidders and m >= 1 items")
        self.n = n
        self.m = m
        self.per_bidder: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(n)]
        self._index: list[dict[tuple, float]] = [{} for _ in range(n)]

    def add(self, bidder: int, bundle, value: float) -> None:
        b = as_bundle(bundle, self.m)
        key = tuple(int(v) for v in b)
        if key in self._index[bidder]:
            raise InvalidInputError(f"bidder {bidder} already reported bundle {key}")
        if value < 0:
            raise InvalidInputError("reported values must be non-negative")
        if b.sum() == 0 and value != 0:
            raise InvalidInputError("the empty bundle must be reported at value 0")
        self.per_bidder[bidder].append((b, float(value)))
        self._index[bidder][key] = float(value)

    def value_of(self, bidder: int, bundle) -> float | None:
        """Reported value of `bundle` for `bidder`, or None if unreported."""
        key = tuple(int(v) for v in np.asarray(bundle, dtype=np.int64).ravel())
        return self._index[bidder].get(key)

    def bundles_of(self, bidder: int) -> set[tuple]:
        return set(self._index[bidder])

    def count(self, bidder: int) -> int:
        return len(self.per_bidder[bidder])

    def restricted_to(self, bidders: list[int]) -> "ReportSet":
        """A new report set over only `bidders`, re-indexed in the given
        order."""
        out = ReportSet(len(bidders), self.m)
        for k, i in enumerate(bidders):
            for b, v in self.per_bidder[i]:
                out.add(k, b, v)
        return out

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "reports": [
                [[b.tolist(), v] for b, v in self.per_bidder[i]] for i in range(self.n)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ReportSet":
        rs = cls(obj["n"], obj["m"])
        for i, pairs in enumerate(obj["reports"]):
            for b, v in pairs:
                rs.add(i, b, v)
        return rs


def reported_welfare(allocation, reports: ReportSet) -> float:
    """Sum of reported values of each bidder's assigned bundle.

    Bundles a bidder never reported contribute zero.
    """
    a = as_allocation(allocation, n=reports.n, m=reports.m)
    total = 0.0
    for i in range(reports.n):
        v = reports.value_of(i, a[i])
        if v is not None:
            total += v
    return total


@dataclass
class AuctionInstance:
    """A synthetic auction with truthful value models and a cached optimum."""

    n: int
    m: int
    values: list  # one ValueModel per bidder
    optimal_allocation: np.ndarray
    optimal_welfare: float
    seed: int | None = None
    generator_config: dict = field(default_factory=dict)

    def social_welfare(self, allocation) -> float:
        a = as_allocation(allocation, n=self.n, m=self.m)
        return float(sum(self.values[i].value(a[i]) for i in range(self.n)))

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "m": self.m,
            "bidders": [vm.to_json_obj() for vm in self.values],
            "seed": self.seed,
            "generator_config": self.generator_config,
            "optimal_allocation": self.optimal_allocation.tolist(),
            "optimal_welfare": self.optimal_welfare,
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AuctionInstance":
        from .values import ValueModel

        obj = json.loads(text)
        return cls(
            n=obj["n"],
            m=obj["m"],
            values=[ValueModel.from_json_obj(b) for b in obj["bidders"]],
            optimal_allocation=as_allocation(obj["optimal_allocation"]),
            optimal_welfare=float(obj["optimal_welfare"]),
            seed=obj.get("seed"),
            generator_config=obj.get("generator_config", {}),
        )


def efficiency_loss(allocation, instance: AuctionInstance) -> float:
    """1 - V(a) / V(a*), clamped into [0, 1] at numerical tolerance."""
    if instance.optimal_welfare <= 0:
        raise DegenerateInstanceError("instance has zero optimal welfare")
    loss = 1.0 - instance.social_welfare(allocation) / instance.optimal_welfare
    if loss < 0:
        if loss < -WELFARE_TOL:
            raise InvalidInputError(
                f"allocation exceeds cached optimal welfare by {-loss:g}"
            )
        loss = 0.0
    return min(loss, 1.0)
