"""Auction-domain primitives: bundles, allocations, reports, instances.

A bundle over ``m`` items is a 0/1 indicator vector of length ``m``.  An
allocation is one bundle per bidder; it is feasible when no item is handed
to more than one bidder.  Reported values only count toward welfare for
bundles a bidder has actually reported.
"""

from __future__ import annotations

import functools
import json
import operator
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError

WELFARE_TOL = 1e-9


_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str, list: list}


def _json_type_ok(value, hint) -> bool:
    """Whether a JSON value fits a field type: a bool is not an int, an int
    passes as a float, ``tuple[T, T]`` takes a list of exactly that length
    and ``tuple[T, ...]`` a list of any length, item by item.  Other types
    (such as a bare ``tuple``) are left to the dataclass's own checks."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_json_type_ok, value, args))
    if hint not in _JSON_TYPES:
        return True
    return isinstance(value, _JSON_TYPES[hint]) and isinstance(value, bool) == (hint is bool)


def require_keys(obj, keys, what: str) -> None:
    """Check that ``obj`` is a JSON object holding every one of ``keys``;
    otherwise raise ``InvalidInputError`` naming the missing keys."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {obj!r}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InvalidInputError(f"{what} is missing required keys {missing}")


def _require_ints(obj: dict, keys, what: str) -> None:
    """Check that each of ``keys`` holds a JSON int (not a bool)."""
    for key in keys:
        if not _json_type_ok(obj[key], int):
            raise InvalidInputError(f"{what} key {key!r} must be an int, got {obj[key]!r}")


def dataclass_from_json(cls, obj: dict, what: str):
    """``cls(**obj)`` for a JSON object: dataclass-typed fields are read
    recursively, and bool, int, float, str, list and typed tuple fields
    type-checked (see ``_json_type_ok``).  A non-dict, a missing, unknown
    or mistyped key raises ``InvalidInputError`` naming the key."""
    require_keys(obj, [f.name for f in fields(cls)
                       if f.default is MISSING and f.default_factory is MISSING], what)
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidInputError(f"unknown {what} keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    obj = dict(obj)
    for key, value in obj.items():
        hint = hints[key]
        if is_dataclass(hint):
            obj[key] = dataclass_from_json(hint, value, key)
        elif not _json_type_ok(value, hint):
            name = hint if typing.get_origin(hint) else hint.__name__
            raise InvalidInputError(f"{what} key {key!r} must be {name}, got {value!r}")
    return cls(**obj)


def _zero_one(x, what: str) -> np.ndarray:
    """``x`` as an int64 array, checked to hold only exact 0s and 1s before
    the cast, which would truncate 0.5 to 0."""
    raw = np.asarray(x)
    if not ((raw == 0) | (raw == 1)).all():
        raise InvalidInputError(f"{what} entries must be 0 or 1")
    return raw.astype(np.int64, copy=False)


def as_bundle(x, m: int | None = None) -> np.ndarray:
    """Validate and return a bundle as an int ndarray of shape (m,)."""
    b = _zero_one(x, "bundle").ravel()
    if m is not None and b.shape[0] != m:
        raise InvalidInputError(f"bundle length {b.shape[0]} != item count {m}")
    return b


def as_allocation(a, n: int | None = None, m: int | None = None) -> np.ndarray:
    """Validate and return an allocation as an int ndarray of shape (n, m)."""
    arr = _zero_one(a, "allocation")
    if arr.ndim != 2:
        raise InvalidInputError("allocation must be a 2-D bidder x item array")
    if n is not None and arr.shape[0] != n:
        raise InvalidInputError(f"allocation has {arr.shape[0]} bidders, expected {n}")
    if m is not None and arr.shape[1] != m:
        raise InvalidInputError(f"allocation has {arr.shape[1]} items, expected {m}")
    return arr


def report_arrays(reports, m: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One bidder's (bundle, value) reports as a float64 0/1 matrix X (k, m)
    and a value vector y (k,), checked in one pass: at least one report,
    bundles of one length (``m`` if given), finite non-negative values,
    the empty bundle only at 0, and no bundle twice."""
    if len(reports) == 0:
        raise InvalidInputError("no reports: need at least one (bundle, value) pair")
    try:
        X = np.array([b for b, _ in reports], dtype=np.float64)
        y = np.array([v for _, v in reports], dtype=np.float64)
    except (TypeError, ValueError):  # ragged bundles, or not (bundle, number) pairs
        raise InvalidInputError("reports must be (bundle, value) pairs with one bundle length") from None
    if X.ndim != 2 or (m is not None and X.shape[1] != m):
        raise InvalidInputError(f"report bundles have shape {X.shape[1:]}, not ({m or 'm'},)")
    _zero_one(X, "bundle")
    # written so that NaN fails the check
    if not ((0 <= y) & (y < np.inf)).all():
        raise InvalidInputError("reported values must be finite and non-negative")
    if ((X.sum(axis=1) == 0) & (y != 0)).any():
        raise InvalidInputError("the empty bundle must be reported at value 0")
    if len(X) > 1:
        rows = X[np.lexsort(X.T)]  # equal bundles end up side by side
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise InvalidInputError("a bundle is reported more than once")
    return X, y


def is_feasible(allocation, m: int) -> bool:
    """True iff no item is assigned to more than one bidder."""
    a = as_allocation(allocation, m=m)
    return bool((a.sum(axis=0) <= 1).all())


def empty_allocation(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=np.int64)


class ReportSet:
    """Per-bidder lists of (bundle, reported value) pairs.

    Each report is checked as ``report_arrays`` checks one, and a bidder's
    duplicate bundles are rejected.
    """

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise InvalidInputError("need n >= 1 bidders and m >= 1 items")
        self.n = n
        self.m = m
        self.per_bidder: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(n)]
        self._index: list[dict[tuple, float]] = [{} for _ in range(n)]

    def add(self, bidder: int, bundle, value: float) -> None:
        """Check one report and store it; the stored bundle is read-only, so
        report sets may share it (see ``restricted_to``)."""
        X, y = report_arrays([(bundle, value)], self.m)
        b, value = X[0].astype(np.int64), float(y[0])
        key = tuple(int(v) for v in b)
        if key in self._index[bidder]:
            raise InvalidInputError(f"bidder {bidder} already reported bundle {key}")
        b.flags.writeable = False
        self.per_bidder[bidder].append((b, value))
        self._index[bidder][key] = value

    def value_of(self, bidder: int, bundle) -> float | None:
        """Reported value of `bundle` for `bidder`, or None if unreported."""
        key = tuple(int(v) for v in as_bundle(bundle, self.m))
        return self._index[bidder].get(key)

    def bundles_of(self, bidder: int) -> set[tuple]:
        return set(self._index[bidder])

    def count(self, bidder: int) -> int:
        return len(self.per_bidder[bidder])

    def restricted_to(self, bidders: list[int]) -> "ReportSet":
        """A new report set over only `bidders`, re-indexed in the given
        order.  Their reports were checked when added, and their bundles
        are read-only, so the new set copies the lists and shares the
        reports."""
        out = ReportSet(len(bidders), self.m)
        out.per_bidder = [list(self.per_bidder[i]) for i in bidders]
        out._index = [dict(self._index[i]) for i in bidders]
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
        require_keys(obj, ["n", "m", "reports"], "report set")
        _require_ints(obj, ["n", "m"], "report set")
        n, m, reports = obj["n"], obj["m"], obj["reports"]
        if not (isinstance(reports, list) and len(reports) == n
                and all(isinstance(pairs, list) for pairs in reports)):
            raise InvalidInputError(f"report set key 'reports' must be a list of {n} lists")
        rs = cls(n, m)
        for i, pairs in enumerate(reports):
            for pair in pairs:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise InvalidInputError(
                        f"bidder {i}'s report {pair!r} is not a [bundle, value] pair")
                rs.add(i, *pair)
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
        # a left fold, which the builtin sum of floats is not from Python 3.12 on
        return float(functools.reduce(
            operator.add, [self.values[i].value(a[i]) for i in range(self.n)], 0.0))

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
        require_keys(obj, ["n", "m", "bidders", "optimal_allocation", "optimal_welfare"],
                     "instance")
        _require_ints(obj, ["n", "m"], "instance")
        n, m, bidders = obj["n"], obj["m"], obj["bidders"]
        if not (isinstance(bidders, list) and len(bidders) == n):
            raise InvalidInputError(f"instance key 'bidders' must be a list of n={n} value models")
        values = [ValueModel.from_json_obj(b) for b in bidders]
        for i, vm in enumerate(values):
            if vm.m != m:
                raise InvalidInputError(f"bidder {i}'s value model has {vm.m} items, not m={m}")
        return cls(
            n=n,
            m=m,
            values=values,
            optimal_allocation=as_allocation(obj["optimal_allocation"], n=n, m=m),
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
