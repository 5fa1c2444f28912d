"""Thin command-line front end over the library.

Subcommands: generate, train, solve-wdp, export-milp, run-mlca, experiment,
hpo-metric.  Log verbosity comes from the BOCA_LOG environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ExperimentConfig,
    configure_logging,
    hpo_metric,
    run_experiment,
)
from .mechanism import MechanismConfig, run_mlca
from .mvnn import InitHyper, MvnnParams
from .training import TrainHyper, train_mean
from .uub import NomuHyper, build_exact_uub, train_uub
from .values import GeneratorConfig, generate_instance
from .wdp import SolveBudget, emit_lp_file, encode_milp, solve_wdp
from .domain import AuctionInstance, dataclass_from_json, require_keys


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    p.add_argument("--out", type=str, default=None)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(n=args.n, m=args.m, bidder_kinds=tuple(args.kinds.split(",")))
    instance = generate_instance(cfg, args.seed)
    _write_or_print(instance.to_json(), args.out)
    return 0


def _cmd_train(args) -> int:
    obj = json.loads(Path(args.reports).read_text())
    require_keys(obj, ["reports"], "reports file")
    reports = obj["reports"]
    exact = build_exact_uub(reports)  # checks the reports
    dims = [exact.m, *(int(d) for d in args.hidden_dims.split(","))] + [1]
    mean = train_mean(reports, dims, InitHyper(), TrainHyper(epochs=args.epochs), seed=args.seed)
    uub = train_uub(reports, mean, exact, NomuHyper(), TrainHyper(epochs=args.epochs),
                    InitHyper(), dims, seed=args.seed)
    obj = {"mean_net": mean.to_json_obj(), "uub_net": uub.to_json_obj(),
           "exact_uub_net": exact.to_json_obj()}
    _write_or_print(json.dumps(obj, indent=2, sort_keys=True), args.out)
    return 0


def _load_instance(path: str) -> AuctionInstance:
    return AuctionInstance.from_json(Path(path).read_text())


def _cmd_solve_wdp(args) -> int:
    instance = _load_instance(args.instance)
    evaluators = [vm.value_batch for vm in instance.values]
    budget = SolveBudget(relative_gap=args.relative_gap, time_limit_secs=args.time_limit_secs)
    sol = solve_wdp(evaluators, instance.m, budget=budget)
    out = {
        "allocation": sol.allocation.tolist(),
        "welfare": sol.objective,
        "status": sol.status,
        "proven_gap": sol.proven_gap if math.isfinite(sol.proven_gap) else None,
        "nodes": sol.nodes,
    }
    _write_or_print(json.dumps(out, indent=2, sort_keys=True, allow_nan=False), args.out)
    return 0


def _cmd_export_milp(args) -> int:
    obj = json.loads(Path(args.networks).read_text())
    require_keys(obj, ["networks"], "networks file")
    nets = [MvnnParams.from_json_obj(doc) for doc in obj["networks"]]
    model = encode_milp(nets, prune=not args.no_prune)
    _write_or_print(emit_lp_file(model), args.out)
    return 0


def _cmd_run_mlca(args) -> int:
    instance = _load_instance(args.instance)
    obj = json.loads(Path(args.config).read_text()) if args.config else {}
    config = MechanismConfig.from_json_obj(obj)
    outcome = run_mlca(instance, config, seed=args.seed)
    outdir = Path(args.out or "mlca-out")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "outcome.json").write_text(json.dumps({
        "allocation": outcome.allocation.tolist(),
        "payments": outcome.payments.tolist(),
        "efficiency_loss": outcome.efficiency_loss,
        "rounds_run": outcome.rounds_run,
        "stopped_early": outcome.stopped_early,
        "nonoptimal_queries": outcome.nonoptimal_queries,
        "elapsed_secs": outcome.elapsed_secs,
        "reports": outcome.reports.to_json_obj(),
    }, indent=2, sort_keys=True))
    with (outdir / "rounds.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "queries", "interim_efficiency_loss", "interim_reported_welfare"])
        for rl in outcome.round_logs:
            w.writerow([rl.round_index, len(rl.queries),
                        f"{rl.efficiency_loss:.10f}", f"{rl.reported_welfare:.10f}"])
    return 0


def _cmd_experiment(args) -> int:
    obj = json.loads(Path(args.config).read_text())
    config = dataclass_from_json(ExperimentConfig, obj, "experiment config")
    if args.out:
        config.out_dir = args.out
    run_experiment(config)
    return 0


def _cmd_hpo_metric(args) -> int:
    obj = json.loads(Path(args.data).read_text())
    require_keys(obj, ["predictions", "targets", "train_mae"], "hpo-metric data file")
    score = hpo_metric(
        np.asarray(obj["predictions"]), np.asarray(obj["targets"]),
        float(obj["train_mae"]), q=args.q,
    )
    _write_or_print(f"{score:.12g}", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterauction",
        description="Machine-learning-powered iterative combinatorial auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic auction instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kinds", type=str, default="additive,pairwise-synergy,coverage")
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit the mean / upper-bound / exact-bound triple")
    p.add_argument("--reports", type=str, required=True)
    p.add_argument("--hidden-dims", type=str, default="10,10")
    p.add_argument("--epochs", type=int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "solve-wdp", help="winner determination on an instance file",
        description="Branch and bound on an instance file's value models. Writes one JSON "
                    "object: allocation, welfare, status, proven_gap and nodes; proven_gap "
                    "is null when no finite gap is proven (for example with --relative-gap inf).")
    p.add_argument("--instance", type=str, required=True)
    p.add_argument("--relative-gap", type=float, default=SolveBudget.relative_gap)
    p.add_argument("--time-limit-secs", type=float, default=SolveBudget.time_limit_secs)
    _add_common(p)
    p.set_defaults(func=_cmd_solve_wdp)

    p = sub.add_parser("export-milp", help="emit the LP file of a network-sum WDP")
    p.add_argument("--networks", type=str, required=True,
                   help='JSON file {"networks": [<network doc>, ...]}')
    p.add_argument("--no-prune", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_export_milp)

    p = sub.add_parser("run-mlca", help="run the full iterative auction")
    p.add_argument("--instance", type=str, required=True)
    p.add_argument("--config", type=str, default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_run_mlca)

    p = sub.add_parser("experiment", help="multi-seed mechanism comparison")
    p.add_argument("--config", type=str, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("hpo-metric", help="quantile-loss model-selection score")
    p.add_argument("--data", type=str, required=True,
                   help='JSON file {"predictions": [...], "targets": [...], "train_mae": x}')
    p.add_argument("--q", type=float, default=0.95)
    _add_common(p)
    p.set_defaults(func=_cmd_hpo_metric)

    return parser


def main(argv=None) -> int:
    configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
