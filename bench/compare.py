"""Compare two result sets written by ``bench/suite.py``.

    python3 bench/compare.py BASE.json NEW.json

For every workload and metric present in both sets it prints each side's
median and quartiles, the ratio NEW/BASE with its base, and a verdict.
Run the two sets alternately, one run of each commit after the other, so
that slow spells of the host hit both.  The verdict is:

* ``better`` -- NEW wins at least nine tenths of the pairs (runs paired in
  seed order; ties count for neither) and the medians differ by
  more than BASE's own spread (its interquartile range), in the metric's
  better direction;
* ``worse`` -- the same rule in the other direction;
* ``unresolved`` -- neither.

For end-to-end metrics it also says whether NEW's median is within the
bound fixed in ``BENCHMARK.json`` (``ok``), worse by more than the bound
(``REGRESSED``), or undecidable because a spread exceeds the bound and not
every NEW run reads better than every BASE run (``noisy``).
Per-layer metrics (traced runs) carry no bound; for them ``better`` means
lower, except throughputs.

The details line of each run adds the raw op times in seconds, which get
a verdict only, and the quality figures, which also get a bound check
against the bounds in ``DETAILS`` below.  The quality figures depend only
on the code and the seed, so their bound check is paired: the median over
seeds of NEW/BASE for one seed.  Same code gives ``unresolved, ok`` with a
ratio of 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from suite import BENCHMARK, quartiles

SPEC = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# Figures of the details line: the direction that is better and, for the
# quality figures, how far (a share of BASE's value) NEW may fall behind
# before it counts as a regression.  wdp_welfare_mean's bound is ten times
# HiGHS's default relative MIP gap, so a loosened gap shows.
DETAILS = {
    "op_p50_s": {"unit": "s", "better": "lower"},
    "ops_per_s": {"unit": "1/s", "better": "higher"},
    "efficiency_loss_pct": {"unit": "%", "better": "lower", "bound": 0.05},
    "wdp_welfare_mean": {"unit": "value", "better": "higher", "bound": 0.001},
    "fit_holdout_mae": {"unit": "value", "better": "lower", "bound": 0.05},
    "uub_sandwich_viol_pct": {"unit": "%", "better": "lower", "bound": 0.1},
}


def value(run, metric):
    """The metric's value in one run (a result metric or a details figure), or None."""
    if metric in DETAILS:
        return run.get("details", {}).get(metric)
    entry = run["result"]["metrics"].get(metric)
    return entry["value"] if entry else None


def series(runs, workload, trace, metric) -> list[float]:
    """The metric's values over the matching runs, in seed order, so that
    two sets run on the same seeds pair up by seed."""
    return [v for _, v in sorted(
        (r["seed"], value(r, metric)) for r in runs
        if r["workload"] == workload and r["trace"] == trace and r["result"]
        and value(r, metric) is not None
    )]


def verdict(base: list[float], new: list[float], paired, higher_is_better: bool) -> str:
    sign = 1 if higher_is_better else -1
    b1, bm, b3 = quartiles(base)
    nm = statistics.median(new)
    wins = sum(sign * (n - b) > 0 for b, n in paired)
    losses = sum(sign * (n - b) < 0 for b, n in paired)
    if paired and wins >= 0.9 * len(paired) and sign * (nm - bm) > b3 - b1:
        return "better"
    if paired and losses >= 0.9 * len(paired) and sign * (bm - nm) > b3 - b1:
        return "worse"
    return "unresolved"


def bound_check(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1 if higher_is_better else -1
    bm, nm = statistics.median(base), statistics.median(new)
    spreads = [(q3 - q1) / abs(m) if m else 0.0
               for q1, m, q3 in (quartiles(base), quartiles(new))]
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spreads) > bound and not all_better:
        return "noisy"
    return "REGRESSED" if sign * (bm - nm) > bound * abs(bm) else "ok"


def paired_bound_check(paired, bound: float, higher_is_better: bool) -> str:
    sign = 1 if higher_is_better else -1
    change = statistics.median(n / b - 1 for b, n in paired if b)
    return "REGRESSED" if -sign * change > bound else "ok"


def compare(base_set: dict, new_set: dict) -> tuple[str, int]:
    lines, regressions = [], 0
    base_runs, new_runs = base_set["runs"], new_set["runs"]
    keys = dict.fromkeys((r["workload"], r["trace"]) for r in base_runs if r["result"])
    for workload, trace in keys:
        lines.append(f"\n{workload} ({'traced' if trace else 'untraced'})")
        lines.append(f"  {'metric':36s} {'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s}"
                     f" {'new/base':>9s}  verdict")
        first_run = next(r for r in base_runs
                         if r["workload"] == workload and r["trace"] == trace and r["result"])
        units = {k: v["unit"] for k, v in first_run["result"]["metrics"].items()}
        units.update({k: v["unit"] for k, v in DETAILS.items() if k in first_run.get("details", {})})
        for metric, unit in units.items():
            bv = series(base_runs, workload, trace, metric)
            nv = series(new_runs, workload, trace, metric)
            if not bv or not nv:
                continue
            spec = SPEC.get(metric) or DETAILS.get(metric, {})
            higher = spec.get("better") == "higher"
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            v = verdict(bv, nv, list(zip(bv, nv)), higher)
            if "bound" in spec:
                check = (paired_bound_check(list(zip(bv, nv)), spec["bound"], higher) if metric in DETAILS
                         else bound_check(bv, nv, spec["bound"], higher))
                regressions += check == "REGRESSED"
                v += f", {check} (bound {spec['bound']:g})"
            lines.append(
                f"  {metric:36s} {bq[1]:12.5g} [{bq[0]:.4g}, {bq[2]:.4g}] {unit:5s}"
                f" {nq[1]:12.5g} [{nq[0]:.4g}, {nq[2]:.4g}] {unit:5s}"
                f" {ratio:9.3f}  {v}"
            )
    return "\n".join(lines), regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    text, regressions = compare(json.loads(args.base.read_text()), json.loads(args.new.read_text()))
    print(text)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
