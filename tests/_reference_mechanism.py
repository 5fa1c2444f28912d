"""The auction loop written straight through, as the reference that
``mechanism.run_mlca`` must match byte for byte.

``reference_run_mlca`` follows ``run_mlca`` step by step, with every part
that does the work swapped for its reference: bidders are fitted one at a
time by ``_reference_training``'s epoch-by-epoch fits, every query is
solved by ``reference_brute_force_wdp`` with no reuse of an earlier
optimum, and the reported WDP and the payments are
``reference_reported_wdp`` and ``reference_vcg_payments``.  The draws
(``initial_queries``, ``_random_novel_bundle``), the marginal-economy
schedule and the efficiency loss come from the library.
"""

import numpy as np

from iterauction.domain import ReportSet, efficiency_loss
from iterauction.errors import ExhaustedBidderError
from iterauction.mechanism import (
    AuctionOutcome,
    RoundLog,
    _marginal_schedule,
    _random_novel_bundle,
    initial_queries,
)
from iterauction.uub import build_exact_uub

from _reference_training import reference_train_mean, reference_train_uub
from _reference_wdp import reference_brute_force_wdp, reference_reported_wdp, reference_vcg_payments


def reference_fit(reports_i, config, seed):
    """The network whose welfare a bidder's queries maximize."""
    m = len(reports_i[0][0])
    dims = [m, *config.hidden_dims, 1]
    exact = None if config.acquisition == "mean" else build_exact_uub(reports_i)
    if config.acquisition == "exact-uub":
        return exact
    mean = reference_train_mean(reports_i, dims, config.init_hyper, config.train_hyper, seed,
                                config.skip)
    if config.acquisition == "mean":
        return mean
    return reference_train_uub(reports_i, mean, exact, config.nomu_hyper, config.train_hyper,
                               config.init_hyper, dims, seed, config.skip)


def reference_query(bidder, economy, nets, excluded_bundles):
    """The bundle ``bidder`` gets in the economy's brute-force optimum with
    its excluded bundles ruled out."""
    m = nets[economy[0]].m
    if len(excluded_bundles) >= 2**m:
        raise ExhaustedBidderError("every bundle of this bidder is excluded")
    exclusions = [excluded_bundles if i == bidder else None for i in economy]
    sol = reference_brute_force_wdp([nets[i].forward for i in economy], m, exclusions)
    return sol.allocation[economy.index(bidder)].astype(np.int64)


def reference_run_mlca(instance, config, seed=0) -> AuctionOutcome:
    rng = np.random.default_rng(seed)
    n, m = instance.n, instance.m
    reports = ReportSet(n, m)

    def ask(i, bundle):
        reports.add(i, bundle, float(instance.values[i].value(bundle)))

    for i in range(n):
        for b in initial_queries(m, config.q_init, rng):
            ask(i, b)

    round_logs = []
    loss = None
    if config.rounds and config.early_stop:
        loss = efficiency_loss(reference_reported_wdp(reports).allocation, instance)
    for r in range(config.rounds):
        if config.early_stop and loss == 0.0:
            break
        queries = []
        if config.acquisition == "random":
            for i in range(n):
                known = reports.bundles_of(i)
                for _ in range(config.q_round):
                    b = _random_novel_bundle(m, known, rng)
                    known.add(tuple(b))
                    queries.append((i, b))
        else:
            nets = [reference_fit(reports.per_bidder[i], config, seed * 1000 + r * 10 + i)
                    for i in range(n)]
            excluded = [reports.bundles_of(i) | {(0,) * m} for i in range(n)]
            schedule = _marginal_schedule(n, config.q_round, r)
            picks = [(i, removed) for i in range(n) for removed in schedule[i]]
            for i, removed in picks + [(i, None) for i in range(n)]:
                economy = [j for j in range(n) if j != removed]
                b = reference_query(i, economy, nets, excluded[i])
                excluded[i].add(tuple(b))
                queries.append((i, b))

        for i, b in queries:
            ask(i, b)
        sol = reference_reported_wdp(reports)
        loss = efficiency_loss(sol.allocation, instance)
        round_logs.append(RoundLog(
            round_index=r,
            queries=[(i, tuple(int(v) for v in b)) for i, b in queries],
            reported_welfare=float(sol.objective),
            efficiency_loss=loss,
        ))

    allocation, payments = reference_vcg_payments(reports)
    return AuctionOutcome(
        allocation=allocation,
        payments=payments,
        reports=reports,
        efficiency_loss=efficiency_loss(allocation, instance),
        rounds_run=len(round_logs),
        round_logs=round_logs,
        elapsed_secs=0.0,
        stopped_early=len(round_logs) < config.rounds,
    )
