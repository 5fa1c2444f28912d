"""Run every workload over several seeds and collect one result set.

    python3 bench/suite.py --seeds 1-10 --out bench/results/mine.json
    python3 bench/suite.py --trace --seeds 1,1 --out bench/results/trace.json
    python3 bench/suite.py --alternate BASE NEW --seeds 1-10 --out bench/results/pair.json
    python3 bench/suite.py --smoke

Each run is a separate ``bench/run.py`` process, one after another, at the
``run_seconds`` of ``BENCHMARK.json``.  The table printed at the end gives,
per workload, every metric's median, quartiles and spread (interquartile
range over the median), with its unit; untraced runs also show the tail
latency and the quality breakdown.  The exit code is 1 when any run failed
an output check or crashed.

``--alternate BASE NEW`` takes two checkouts, each holding the benchmark,
and runs them alternately, seed by seed: BASE then NEW on the first seed,
NEW then BASE on the next, and so on.  A slow spell of the host then hits
both sides alike.  It writes two result sets, ``<out>-base.json`` and
``<out>-new.json``, for ``bench/compare.py``.

``--smoke`` runs every workload tiny, traced and untraced, and checks that
each run reports exactly the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, trace: bool, ops: int | None = None, root: Path = ROOT) -> dict:
    """One ``run.py`` process in the checkout at ``root``."""
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(int(trace))]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        details = json.loads(lines[-2])["details"]
        result = json.loads(lines[-1])
    except (IndexError, ValueError, KeyError):
        details, result = {}, None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return {"workload": workload, "seed": seed, "trace": int(trace), "exit": proc.returncode,
            "result": result, "details": details}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def table(runs: list[dict]) -> str:
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for trace in (0, 1):
            group = [r for r in runs if r["workload"] == workload and r["trace"] == trace and r["result"]]
            if not group:
                continue
            seeds = [r["seed"] for r in group]
            out.append(f"\n{workload}  ({'traced' if trace else 'untraced'}, {len(group)} runs, seeds {seeds})")
            metrics = group[0]["result"]["metrics"]
            for name, first in metrics.items():
                vals = [r["result"]["metrics"][name]["value"] for r in group]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                out.append(f"  {name:36s} {med:14.6g} {first['unit']:9s} "
                           f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:6.3f}")
            if not trace:
                for key in [k for k in group[0]["details"] if k not in ("workload", "trace", "env")]:
                    vals = [r["details"].get(key) for r in group]
                    if all(isinstance(v, (int, float)) for v in vals):
                        out.append(f"  {key:36s} {statistics.median(vals):14.6g}   (median; details)")
    return "\n".join(out)


def smoke() -> int:
    """Every workload tiny, untraced and traced; metric names must match."""
    want = {0: {m["name"] for m in BENCHMARK["end_to_end"]},
            1: {m["name"] for m in BENCHMARK["per_layer"]}}
    bad = 0
    for w in BENCHMARK["workloads"]:
        for trace in (0, 1):
            run = run_once(w["name"], 1, bool(trace), ops=2)
            got = set(run["result"]["metrics"]) if run["result"] else set()
            ok = run["exit"] == 0 and run["result"]["correct"] and got == want[trace]
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={trace} "
                  f"missing={sorted(want[trace] - got)} extra={sorted(got - want[trace])}")
    return 1 if bad else 0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def schedule(workloads: list[str], seeds: list[int], sides: list[str]) -> list[tuple[str, int, str]]:
    """(workload, seed, side) in run order; with two sides the order flips
    from one seed to the next (ABBA), so neither side always runs first."""
    order = []
    for workload in workloads:
        for k, seed in enumerate(seeds):
            for side in (sides if k % 2 == 0 else sides[::-1]):
                order.append((workload, seed, side))
    return order


def write_set(path: Path, runs: list[dict]) -> None:
    env = next((r["details"]["env"] for r in runs if r["details"]), {})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"env": env, "runs": runs}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,1,2")
    parser.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    parser.add_argument("--alternate", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="two checkouts to run alternately, seed by seed")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="write the result set(s) as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    roots = dict(zip(("base", "new"), args.alternate)) if args.alternate else {"": ROOT}
    runs = {side: [] for side in roots}
    for workload, seed, side in schedule(args.workloads.split(","), parse_seeds(args.seeds), list(roots)):
        run = run_once(workload, seed, args.trace, root=roots[side].resolve())
        runs[side].append(run)
        status = "ok" if run["exit"] == 0 else f"FAILED (exit {run['exit']})"
        print(f"{workload} seed {seed}{' ' + side if side else ''}: {status}", flush=True)
    for side, side_runs in runs.items():
        if side:
            print(f"\n== {side}: {args.alternate[side == 'new']}")
        print(table(side_runs))
        if args.out:
            write_set(args.out.with_name(f"{args.out.stem}-{side}.json") if side else args.out, side_runs)
    every = [r for side_runs in runs.values() for r in side_runs]
    return 0 if all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in every) else 1


if __name__ == "__main__":
    sys.exit(main())
