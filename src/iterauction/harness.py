"""Experiment harness: repeated auction runs, aggregation and comparison.

Runs each configured mechanism over a common list of instance seeds,
persisting one JSON file per (mechanism, seed) so interrupted sweeps resume
where they stopped, then writes deterministic CSV summaries and a paired
one-sided t-test comparing mean efficiency loss.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .mechanism import ACQUISITIONS, MechanismConfig, run_mlca
from .values import GeneratorConfig, generate_instance

log = logging.getLogger("iterauction.harness")


def configure_logging() -> None:
    """Honor the BOCA_LOG environment variable (DEBUG/INFO/WARNING/...)."""
    level = os.environ.get("BOCA_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )


def hpo_metric(pred: np.ndarray, y: np.ndarray, train_mae: float, q: float = 0.95) -> float:
    """Pinball-style model-selection score: quantile loss of the upper bound
    on held-out points plus the training mean absolute error."""
    if not 0 < q < 1:
        raise InvalidInputError("quantile must lie strictly between 0 and 1")
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape or pred.size == 0:
        raise InvalidInputError("prediction and target shapes must match and be nonempty")
    pin = np.maximum((y - pred) * q, (pred - y) * (1.0 - q))
    return float(pin.mean()) + float(train_mae)


@dataclass
class TTestResult:
    t_stat: float
    p_value: float
    df: int
    mean_diff: float
    degenerate: bool = False


def paired_one_sided_ttest(baseline_losses, treatment_losses) -> TTestResult:
    """Test whether `treatment` has lower mean loss than `baseline`.

    One-sided alternative: mean(baseline - treatment) > 0.  A zero-variance
    difference vector is flagged degenerate and given p = 1.0 rather than a
    fabricated certainty.
    """
    from scipy.special import stdtr

    a = np.asarray(baseline_losses, dtype=np.float64)
    b = np.asarray(treatment_losses, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise InvalidInputError("need two equally long loss vectors with >= 2 entries")
    d = a - b
    k = d.size
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        return TTestResult(t_stat=float("nan"), p_value=1.0, df=k - 1,
                           mean_diff=float(d.mean()), degenerate=True)
    t = float(d.mean() / (sd / np.sqrt(k)))
    p = float(1.0 - stdtr(k - 1, t))
    return TTestResult(t_stat=t, p_value=p, df=k - 1, mean_diff=float(d.mean()))


def normal_ci95_half_width(xs) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size < 2:
        return 0.0
    return float(1.96 * xs.std(ddof=1) / np.sqrt(xs.size))


@dataclass
class ExperimentConfig:
    generator: GeneratorConfig
    seeds: list
    mechanisms: list  # acquisition names; the first is the baseline
    mechanism_config: MechanismConfig = field(default_factory=MechanismConfig)
    out_dir: str = "experiment-out"

    def __post_init__(self):
        if not self.seeds or not self.mechanisms:
            raise InvalidInputError("need at least one seed and one mechanism")
        if any(type(s) is not int for s in self.seeds):
            raise InvalidInputError(f"seeds must be ints, got {self.seeds!r}")
        if any(m not in ACQUISITIONS for m in self.mechanisms):
            raise InvalidInputError(f"mechanisms must be in {ACQUISITIONS}, got {self.mechanisms!r}")
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise InvalidInputError("duplicate mechanism names")


def _run_one(config: ExperimentConfig, mech: str, seed: int) -> dict:
    instance = generate_instance(config.generator, seed)
    mcfg = replace(config.mechanism_config, acquisition=mech)
    outcome = run_mlca(instance, mcfg, seed=seed)
    revenue = float(outcome.payments.sum())
    return {
        "mechanism": mech,
        "seed": seed,
        "efficiency_loss": outcome.efficiency_loss,
        "relative_revenue": revenue / instance.optimal_welfare,
        "rounds_run": outcome.rounds_run,
        "stopped_early": outcome.stopped_early,
        "nonoptimal_queries": outcome.nonoptimal_queries,
        "elapsed_secs": outcome.elapsed_secs,
        "payments": outcome.payments.tolist(),
        "report_counts": [outcome.reports.count(i) for i in range(instance.n)],
        "rounds": [
            {
                "round": rl.round_index,
                "queries": len(rl.queries),
                "reported_welfare": rl.reported_welfare,
                "efficiency_loss": rl.efficiency_loss,
            }
            for rl in outcome.round_logs
        ],
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the sweep, resuming from any per-seed JSON already on disk, and
    write `summary.csv`, `per_seed.csv` and `comparison.csv`."""
    out = Path(config.out_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)

    def load_or_run(mech, seed):
        path = out / "results" / f"{mech}_seed{seed}.json"
        if path.exists():
            return json.loads(path.read_text())
        t0 = time.monotonic()
        rec = _run_one(config, mech, seed)
        log.info("%s seed %d: loss %.4f in %.1fs", mech, seed,
                 rec["efficiency_loss"], time.monotonic() - t0)
        # an interrupt leaves at most a stale temp file, never a truncated result
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(rec, indent=2, sort_keys=True))
        os.replace(tmp, path)
        return rec

    results = {
        mech: [load_or_run(mech, seed) for seed in config.seeds] for mech in config.mechanisms
    }

    with (out / "paths.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mechanism", "seed", "round", "queries",
                    "interim_reported_welfare", "interim_efficiency_loss"])
        for mech in config.mechanisms:
            for rec in results[mech]:
                for row in rec.get("rounds", []):
                    w.writerow([mech, rec["seed"], row["round"], row["queries"],
                                f"{row['reported_welfare']:.10f}",
                                f"{row['efficiency_loss']:.10f}"])

    with (out / "per_seed.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mechanism", "seed", "efficiency_loss", "relative_revenue",
                    "rounds_run", "stopped_early"])
        for mech in config.mechanisms:
            for rec in results[mech]:
                w.writerow([mech, rec["seed"], f"{rec['efficiency_loss']:.10f}",
                            f"{rec['relative_revenue']:.10f}", rec["rounds_run"],
                            int(rec["stopped_early"])])

    summary = {}
    with (out / "summary.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mechanism", "mean_efficiency_loss", "ci95_half_width",
                    "mean_relative_revenue", "num_seeds"])
        for mech in config.mechanisms:
            losses = [r["efficiency_loss"] for r in results[mech]]
            revs = [r["relative_revenue"] for r in results[mech]]
            summary[mech] = {
                "mean_efficiency_loss": float(np.mean(losses)),
                "ci95_half_width": normal_ci95_half_width(losses),
                "mean_relative_revenue": float(np.mean(revs)),
                "losses": losses,
            }
            w.writerow([mech, f"{np.mean(losses):.10f}",
                        f"{normal_ci95_half_width(losses):.10f}",
                        f"{np.mean(revs):.10f}", len(losses)])

    comparisons = {}
    baseline = config.mechanisms[0]
    with (out / "comparison.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["baseline", "treatment", "mean_diff", "t_stat", "p_value",
                    "df", "degenerate"])
        for mech in config.mechanisms[1:]:
            tt = paired_one_sided_ttest(summary[baseline]["losses"], summary[mech]["losses"])
            comparisons[mech] = tt
            w.writerow([baseline, mech, f"{tt.mean_diff:.10f}",
                        "nan" if np.isnan(tt.t_stat) else f"{tt.t_stat:.6f}",
                        f"{tt.p_value:.6f}", tt.df, int(tt.degenerate)])

    return {"summary": summary, "comparisons": comparisons, "results": results}
