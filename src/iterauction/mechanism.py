"""Iterative combinatorial auction with machine-learned query generation.

The mechanism elicits a fixed budget of value reports per bidder.  After a
random initialization round, every round fits per-bidder surrogate models
to the reports so far and asks each bidder for the bundle they receive in
welfare-maximizing allocations of the main economy and of sampled marginal
economies (the economy with one other bidder removed), subject to
constraints that force every query to be new.  The final allocation and
payments use reported values only.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .domain import ReportSet, dataclass_from_json, efficiency_loss
from .errors import ExhaustedBidderError, InvalidInputError
from .mvnn import InitHyper, MvnnParams
from .training import TrainHyper, train_mean
from .uub import NomuHyper, build_exact_uub, train_uub
from .wdp import SolveBudget, solve_reported_wdp, solve_wdp

log = logging.getLogger("iterauction.mechanism")

ACQUISITIONS = ("uub", "exact-uub", "mean", "random")


@dataclass
class MechanismConfig:
    q_init: int = 6
    q_round: int = 3
    q_max: int = 18
    acquisition: str = "uub"
    hidden_dims: tuple = (10, 10)
    init_hyper: InitHyper = field(default_factory=InitHyper)
    train_hyper: TrainHyper = field(default_factory=lambda: TrainHyper(epochs=60))
    nomu_hyper: NomuHyper = field(default_factory=NomuHyper)
    budget: SolveBudget = field(default_factory=lambda: SolveBudget(relative_gap=0.0))
    skip: bool = False
    early_stop: bool = True

    def __post_init__(self):
        if self.acquisition not in ACQUISITIONS:
            raise InvalidInputError(f"unknown acquisition {self.acquisition!r}")
        if self.q_init < 1 or self.q_round < 1:
            raise InvalidInputError("q_init and q_round must be positive")
        if self.q_max < self.q_init:
            raise InvalidInputError("q_max must be at least q_init")

    @property
    def rounds(self) -> int:
        return (self.q_max - self.q_init) // self.q_round

    def to_json_obj(self) -> dict:
        from dataclasses import asdict

        obj = asdict(self)
        obj["hidden_dims"] = list(self.hidden_dims)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MechanismConfig":
        obj = dict(obj)
        for key, typ in (
            ("init_hyper", InitHyper),
            ("train_hyper", TrainHyper),
            ("nomu_hyper", NomuHyper),
            ("budget", SolveBudget),
        ):
            if key in obj and isinstance(obj[key], dict):
                obj[key] = dataclass_from_json(typ, obj[key], key)
        if "hidden_dims" in obj:
            obj["hidden_dims"] = tuple(obj["hidden_dims"])
        return dataclass_from_json(cls, obj, "mechanism config")


@dataclass
class RoundLog:
    round_index: int
    queries: list  # (bidder, bundle tuple)
    reported_welfare: float
    efficiency_loss: float | None


@dataclass
class AuctionOutcome:
    allocation: np.ndarray
    payments: np.ndarray
    reports: ReportSet
    efficiency_loss: float | None
    rounds_run: int
    round_logs: list
    elapsed_secs: float
    stopped_early: bool = False
    nonoptimal_queries: int = 0  # query WDPs whose status was not "optimal"


def _random_novel_bundle(m: int, known: set, rng: np.random.Generator) -> np.ndarray:
    if len(known) >= 2**m - 1:
        raise ExhaustedBidderError("every nonempty bundle has already been queried")
    while True:
        b = (rng.random(m) < rng.uniform(0.2, 0.8)).astype(np.int64)
        if b.sum() > 0 and tuple(b) not in known:
            return b


def initial_queries(m: int, q_init: int, rng: np.random.Generator) -> list[np.ndarray]:
    """q_init distinct nonempty random bundles, always including the full
    bundle (needed to anchor the exact upper bound)."""
    if q_init > 2**m - 1:
        raise ExhaustedBidderError("more initial queries than nonempty bundles")
    full = np.ones(m, dtype=np.int64)
    bundles = [full]
    known = {tuple(full)}
    while len(bundles) < q_init:
        b = _random_novel_bundle(m, known, rng)
        bundles.append(b)
        known.add(tuple(b))
    return bundles


def fit_bidder_models(reports_i, config: MechanismConfig, seed: int) -> MvnnParams:
    """Train what the configured acquisition needs and return the network
    whose welfare the bidder's queries maximize."""
    m = len(reports_i[0][0])
    dims = [m, *config.hidden_dims, 1]
    exact = None if config.acquisition == "mean" else build_exact_uub(reports_i)
    if config.acquisition == "exact-uub":
        return exact
    mean = train_mean(
        reports_i, dims, config.init_hyper, config.train_hyper, seed=seed, skip=config.skip,
    )
    if config.acquisition == "mean":
        return mean
    return train_uub(
        reports_i, mean, exact, config.nomu_hyper, config.train_hyper, config.init_hyper,
        dims, seed=seed, skip=config.skip,
    )


def next_query(
    bidder: int,
    economy: list[int],
    nets: dict[int, MvnnParams],
    m: int,
    excluded_bundles: set,
    budget: SolveBudget,
    solves: list | None = None,
) -> np.ndarray:
    """The bundle `bidder` receives in a welfare-maximizing allocation of
    the economy's surrogate models, constrained to differ from everything in
    `excluded_bundles` (which must contain the empty bundle so the query is
    informative).

    A solve that is not proven optimal (gap or time limit) is logged as a
    warning; if `solves` is given, the query's WdpSolution is appended."""
    if bidder not in economy:
        raise InvalidInputError("queried bidder must belong to the economy")
    if len(excluded_bundles) >= 2**m:
        raise ExhaustedBidderError("every bundle of this bidder is excluded")
    evaluators = [nets[i].forward for i in economy]
    exclusions = [excluded_bundles if i == bidder else None for i in economy]
    sol = solve_wdp(evaluators, m, budget=budget, exclusions=exclusions)
    if sol.status != "optimal":
        log.warning("query for bidder %d in economy %s: status %s, proven gap %.4g",
                    bidder, economy, sol.status, sol.proven_gap)
    if solves is not None:
        solves.append(sol)
    return sol.allocation[economy.index(bidder)].astype(np.int64)


def _marginal_schedule(n: int, q_round: int, state: dict) -> list[list[int | None]]:
    """For each bidder, q_round - 1 marginal economies (identified by the
    removed bidder, never the bidder itself).

    Pick t gives bidder i the economy (i + shift_t) mod n with a nonzero
    shift rotating across rounds (`state["shift"]` persists between calls),
    so every marginal economy is used exactly once per pick-wave and global
    usage counts stay exactly balanced.  With a single bidder there is no
    marginal economy and None entries fall back to the main economy."""
    base = state.setdefault("shift", 0)
    schedule = []
    for i in range(n):
        picks = []
        for t in range(q_round - 1):
            if n == 1:
                picks.append(None)
                continue
            shift = (base + t) % (n - 1) + 1
            picks.append((i + shift) % n)
        schedule.append(picks)
    if n > 1:
        state["shift"] = (base + q_round - 1) % (n - 1)
    return schedule


def _reported_value(reports: ReportSet, bidder: int, bundle) -> float:
    v = reports.value_of(bidder, bundle)
    return 0.0 if v is None else v


def vcg_payments(reports: ReportSet) -> tuple[np.ndarray, np.ndarray]:
    """Final allocation over reported bundles and the associated
    marginal-economy payments, clamped to be non-negative."""
    n = reports.n
    main = solve_reported_wdp(reports)
    payments = np.zeros(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if not others:
            continue
        reduced = reports.restricted_to(others)
        marginal = solve_reported_wdp(reduced)
        with_i = sum(_reported_value(reports, j, main.allocation[j]) for j in others)
        without_i = sum(
            _reported_value(reduced, k, marginal.allocation[k]) for k in range(len(others))
        )
        payments[i] = max(0.0, without_i - with_i)
    return main.allocation, payments


def run_mlca(instance, config: MechanismConfig, seed: int = 0) -> AuctionOutcome:
    """Run the full auction against an instance's true value functions.

    The instance's cached optimum is used only for reporting efficiency loss
    and for stopping early once the loss hits zero; the mechanism itself
    sees reported values only.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(seed)
    n, m = instance.n, instance.m
    reports = ReportSet(n, m)

    def ask(i: int, bundle: np.ndarray):
        reports.add(i, bundle, float(instance.values[i].value(bundle)))

    for i in range(n):
        for b in initial_queries(m, config.q_init, rng):
            ask(i, b)

    round_logs = []
    stopped_early = False
    solves: list = []
    schedule_state: dict = {}

    loss = efficiency_loss(solve_reported_wdp(reports).allocation, instance) if config.rounds else None
    for r in range(config.rounds):
        if config.early_stop and loss == 0.0:
            stopped_early = True
            log.info("round %d: zero efficiency loss, stopping early", r)
            break
        pending: dict[int, set] = {i: set() for i in range(n)}
        queries: list[tuple[int, np.ndarray]] = []

        if config.acquisition == "random":
            for i in range(n):
                known = {tuple(b) for b in reports.bundles_of(i)}
                for _ in range(config.q_round):
                    b = _random_novel_bundle(m, known, rng)
                    known.add(tuple(b))
                    queries.append((i, b))
        else:
            nets = {
                i: fit_bidder_models(reports.per_bidder[i], config, seed=seed * 1000 + r * 10 + i)
                for i in range(n)
            }

            def excluded_for(i: int) -> set:
                out = {tuple(np.zeros(m, dtype=np.int64))}
                out |= {tuple(b) for b in reports.bundles_of(i)}
                out |= pending[i]
                return out

            schedule = _marginal_schedule(n, config.q_round, schedule_state)
            # every bidder's marginal economies first, then the main economy
            picks = [(i, removed) for i in range(n) for removed in schedule[i]]
            for i, removed in picks + [(i, None) for i in range(n)]:
                economy = [j for j in range(n) if j != removed]
                b = next_query(i, economy, nets, m, excluded_for(i), config.budget, solves)
                pending[i].add(tuple(b))
                queries.append((i, b))

        for i, b in queries:
            ask(i, b)
        sol = solve_reported_wdp(reports)
        loss = efficiency_loss(sol.allocation, instance)
        round_logs.append(
            RoundLog(
                round_index=r,
                queries=[(i, tuple(int(v) for v in b)) for i, b in queries],
                reported_welfare=float(sol.objective),
                efficiency_loss=loss,
            )
        )
        log.info("round %d: welfare %.4f, efficiency loss %.4f", r, sol.objective, loss)

    allocation, payments = vcg_payments(reports)
    final_loss = efficiency_loss(allocation, instance)
    return AuctionOutcome(
        allocation=allocation,
        payments=payments,
        reports=reports,
        efficiency_loss=final_loss,
        rounds_run=len(round_logs),
        round_logs=round_logs,
        elapsed_secs=time.monotonic() - t0,
        stopped_early=stopped_early,
        nonoptimal_queries=sum(s.status != "optimal" for s in solves),
    )
