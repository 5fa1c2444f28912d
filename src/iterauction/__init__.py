"""Machine-learning-powered iterative combinatorial auctions.

Monotone-value neural networks with an uncertainty-aware upper bound drive
the query generation of an iterative auction; winner determination is
solved exactly, and every component has a brute-force oracle counterpart
for verification at desk scale.
"""

from .domain import (
    AuctionInstance,
    ReportSet,
    as_allocation,
    as_bundle,
    efficiency_loss,
    empty_allocation,
    is_feasible,
    reported_welfare,
)
from .errors import (
    DegenerateInstanceError,
    ExhaustedBidderError,
    InvalidInputError,
    IterAuctionError,
    UnsupportedSizeError,
)
from .harness import (
    ExperimentConfig,
    hpo_metric,
    paired_one_sided_ttest,
    run_experiment,
)
from .mechanism import (
    AuctionOutcome,
    MechanismConfig,
    initial_queries,
    next_query,
    run_mlca,
    vcg_payments,
)
from .mvnn import (
    InitHyper,
    MvnnParams,
    init_params,
    mixture_params,
)
from .training import TrainHyper, smooth_l1, train_mean
from .uub import (
    NomuHyper,
    build_exact_uub,
    max_monotone_extension,
    nomu_loss,
    train_uub,
)
from .values import GeneratorConfig, ValueModel, generate_instance
from .wdp import (
    SolveBudget,
    WdpSolution,
    brute_force_wdp,
    emit_lp_file,
    encode_milp,
    milp_wdp,
    solve_model,
    solve_reported_wdp,
    solve_wdp,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionInstance",
    "AuctionOutcome",
    "DegenerateInstanceError",
    "ExhaustedBidderError",
    "ExperimentConfig",
    "GeneratorConfig",
    "InitHyper",
    "InvalidInputError",
    "IterAuctionError",
    "MechanismConfig",
    "MvnnParams",
    "NomuHyper",
    "ReportSet",
    "SolveBudget",
    "TrainHyper",
    "UnsupportedSizeError",
    "ValueModel",
    "WdpSolution",
    "as_allocation",
    "as_bundle",
    "brute_force_wdp",
    "build_exact_uub",
    "efficiency_loss",
    "emit_lp_file",
    "empty_allocation",
    "encode_milp",
    "generate_instance",
    "hpo_metric",
    "init_params",
    "initial_queries",
    "is_feasible",
    "max_monotone_extension",
    "milp_wdp",
    "mixture_params",
    "next_query",
    "nomu_loss",
    "paired_one_sided_ttest",
    "reported_welfare",
    "run_experiment",
    "run_mlca",
    "smooth_l1",
    "solve_model",
    "solve_reported_wdp",
    "solve_wdp",
    "train_mean",
    "train_uub",
    "vcg_payments",
]
