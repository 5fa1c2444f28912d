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

import functools
import logging
import operator
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import ReportSet, dataclass_from_json, efficiency_loss
from .errors import ExhaustedBidderError, InvalidInputError
from .mvnn import InitHyper, MvnnParams
from .training import TrainHyper, train_mean
from .uub import NomuHyper, build_exact_uub, train_uub
from .wdp import SolveBudget, WdpSolution, solve_reported_wdp, solve_wdp

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
    budget: SolveBudget = field(default_factory=SolveBudget)
    skip: bool = False
    early_stop: bool = True

    def __post_init__(self):
        if self.acquisition not in ACQUISITIONS:
            raise InvalidInputError(f"unknown acquisition {self.acquisition!r}")
        if self.q_init < 1 or self.q_round < 1:
            raise InvalidInputError("q_init and q_round must be positive")
        if self.q_max < self.q_init:
            raise InvalidInputError("q_max must be at least q_init")
        dims = self.hidden_dims
        if not isinstance(dims, (tuple, list)) or any(type(w) is not int or w < 1 for w in dims):
            raise InvalidInputError(f"hidden_dims must be positive ints, got {dims!r}")
        self.hidden_dims = tuple(dims)

    @property
    def rounds(self) -> int:
        return (self.q_max - self.q_init) // self.q_round

    def to_json_obj(self) -> dict:
        return {**asdict(self), "hidden_dims": list(self.hidden_dims)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MechanismConfig":
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
    nets: list[MvnnParams],
    excluded_bundles: set,
    budget: SolveBudget,
    solves: list | None = None,
    prior: WdpSolution | None = None,
) -> np.ndarray:
    """The bundle `bidder` receives in a welfare-maximizing allocation of
    the economy's surrogate models, constrained to differ from everything in
    `excluded_bundles` (which must contain the empty bundle so the query is
    informative).  The economy's nets must share one architecture, as they
    are stacked (``MvnnParams.stack``); the number of items is theirs.

    `prior` is the ``unconstrained`` optimum of an earlier query's solution
    in the same economy, over the same nets.  It is used only when the
    budget's gap is 0: if the bidder's bundle in it is not excluded, it is
    the answer, and the solution reports ``nodes=0`` (see ``solve_wdp``).

    A solve that is not proven optimal (gap or time limit) is logged as a
    warning; if `solves` is given, the query's WdpSolution is appended."""
    if bidder not in economy:
        raise InvalidInputError("queried bidder must belong to the economy")
    stacked = MvnnParams.stack([nets[i] for i in economy])
    if len(excluded_bundles) >= 2**stacked.m:
        raise ExhaustedBidderError("every bundle of this bidder is excluded")
    exclusions = [excluded_bundles if i == bidder else None for i in economy]
    sol = solve_wdp(stacked, stacked.m, budget=budget, exclusions=exclusions, prior=prior)
    if sol.status != "optimal":
        log.warning("query for bidder %d in economy %s: status %s, proven gap %.4g",
                    bidder, economy, sol.status, sol.proven_gap)
    if solves is not None:
        solves.append(sol)
    return sol.allocation[economy.index(bidder)].astype(np.int64)


def _marginal_schedule(n: int, q_round: int, r: int) -> list[list[int | None]]:
    """For each bidder, q_round - 1 marginal economies (identified by the
    removed bidder, never the bidder itself) for round r.

    Pick t gives bidder i the economy (i + shift) mod n with the nonzero
    shift (r * (q_round - 1) + t) mod (n - 1) + 1, which rotates across
    rounds, so every marginal economy is used exactly once per pick-wave and
    global usage counts stay exactly balanced.  With a single bidder there
    is no marginal economy and None entries fall back to the main economy."""
    if n == 1:
        return [[None] * (q_round - 1)]
    shifts = [(r * (q_round - 1) + t) % (n - 1) + 1 for t in range(q_round - 1)]
    return [[(i + shift) % n for shift in shifts] for i in range(n)]


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
        without_i = solve_reported_wdp(reports.restricted_to(others)).objective
        # a left fold, which the builtin sum of floats is not from Python 3.12 on
        with_i = functools.reduce(
            operator.add, [reports.value_of(j, main.allocation[j]) or 0.0 for j in others], 0.0)
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
    solves: list = []

    # before the first round, only the early-stop check reads the loss
    loss = None
    if config.rounds and config.early_stop:
        loss = efficiency_loss(solve_reported_wdp(reports).allocation, instance)
    for r in range(config.rounds):
        if config.early_stop and loss == 0.0:
            log.info("round %d: zero efficiency loss, stopping early", r)
            break
        queries: list[tuple[int, np.ndarray]] = []

        if config.acquisition == "random":
            for i in range(n):
                known = reports.bundles_of(i)
                for _ in range(config.q_round):
                    b = _random_novel_bundle(m, known, rng)
                    known.add(tuple(b))
                    queries.append((i, b))
        else:
            nets = [
                fit_bidder_models(reports.per_bidder[i], config, seed=seed * 1000 + r * 10 + i)
                for i in range(n)
            ]
            # a query is never empty and never repeats a report or an earlier pick
            excluded = [reports.bundles_of(i) | {(0,) * m} for i in range(n)]
            schedule = _marginal_schedule(n, config.q_round, r)
            # every bidder's marginal economies first, then the main economy
            picks = [(i, removed) for i in range(n) for removed in schedule[i]]
            # per economy, by its removed bidder: the unconstrained optimum
            # of its latest query, which later queries in it may reuse
            priors = {}
            for i, removed in picks + [(i, None) for i in range(n)]:
                economy = [j for j in range(n) if j != removed]
                b = next_query(i, economy, nets, excluded[i], config.budget, solves,
                               prior=priors.get(removed))
                priors[removed] = solves[-1].unconstrained
                excluded[i].add(tuple(b))
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
        stopped_early=len(round_logs) < config.rounds,
        nonoptimal_queries=sum(s.status != "optimal" for s in solves),
    )
