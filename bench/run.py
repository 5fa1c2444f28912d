"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mlca-n3m8 --seed 1 --seconds 40 --trace 0

Closed loop with one client: the next op starts only after the previous one
returned and its output was checked.  With ``--trace 0`` the run is
time-bounded and reports the end-to-end metrics, with op costs relative to
a reference kernel timed right after each op; with ``--trace 1`` it runs
a fixed number of ops (so its counts repeat exactly for one seed) under the
span tracer, reports the per-layer metrics and writes its spans to
``bench/out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the run's details (environment, raw op times in
seconds, tail latency, quality breakdown).  The exit code is 1 when any
output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TRACE_TIME_CAP_S = 150.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REF_SHARE = 0.02
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import iterauction; print(time.perf_counter() - t)")

_REF = np.random.default_rng(2208)
_REF_BATCH = _REF.random((40, 18)), _REF.random((18, 10)), _REF.random((10, 10)), _REF.random((10, 1))
_REF_ROWS = ((_REF.random((50, 8)) < 0.5).astype(np.float64), _REF.random((8, 10)),
             _REF.random((10, 10)), _REF.random(10))


def reference_kernel() -> float:
    """A fixed piece of numpy and Python work, about 1-2 ms, independent of
    the library: batched layers as in training, then single-row layers in a
    Python loop as in B&B.  Only its time matters."""
    a, w1, w2, w3 = _REF_BATCH
    total = 0.0
    for _ in range(30):
        h = np.minimum(np.maximum(a @ w1 - 0.5, 0.0) @ w2, 1.0)
        total += float(((h @ w3 - 1.0) * h).sum())
    rows, v1, v2, v3 = _REF_ROWS
    for i in range(150):
        h = np.minimum(np.maximum(rows[i % 50] @ v1, 0.0), 1.0)
        total = max(total, float(np.minimum(np.maximum(h @ v2, 0.0), 1.0) @ v3))
    return total


def reference_time(op_s: float) -> float:
    """The median time of ``reference_kernel``, run right after an op for
    ``REF_SHARE`` of the op's time (at least once).  The host's speed on
    the baseline VM swings by up to 2x over seconds to minutes; an op's time
    over this kernel's time, measured in the same moment, does not."""
    times, end = [], perf_counter() + REF_SHARE * op_s
    while not times or perf_counter() < end:
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_library() -> None:
    """Put this checkout's ``src`` first on the path and import the library.
    Exits non-zero when the source is missing."""
    if not (SRC / "iterauction" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {SRC / 'iterauction'}")
    sys.path.insert(0, str(SRC))
    import iterauction

    if Path(iterauction.__file__).resolve().parent != (SRC / "iterauction").resolve():
        sys.exit(f"error: imported iterauction from {iterauction.__file__}, not {SRC}")


def import_seconds() -> float:
    """The library's import time: the median over fresh interpreters, since
    a process imports it only once."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    )


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seeds) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seeds": list(seeds),
    }


def tail(times: list[float]) -> dict:
    """The highest ladder percentile with at least ten ops beyond it."""
    n = len(times)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(times, n=1000, method="inclusive")
            return {"op_tail_s": cuts[round(p * 10) - 1], "op_tail_pct": p, "ops": n}
    return {"op_tail_s": None, "op_tail_pct": None, "ops": n}


def run_workload(name: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None,
                 import_s: float = 0.0):
    """Run one workload; returns (result, details) as printed by ``main``."""
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    attempted = failed = 0
    times, rel, qualities = [], [], []
    if tracer:
        tracer.install()
    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = perf_counter()
            state = wl.setup(seed)
            setup_times.append(perf_counter() - t0)
        paused = tracer.paused if tracer else contextlib.nullcontext
        with paused():
            pre = wl.precheck(state)
        attempted += len(pre)
        failed += pre.count(False)

        limit = max_ops if max_ops is not None else (wl.trace_ops if trace else None)
        floor = wl.quality_ops if limit is None else 0
        deadline = perf_counter() + (TRACE_TIME_CAP_S if trace else seconds)
        k = 0
        while (limit is None or k < limit) and (k < floor or perf_counter() < deadline):
            inp = wl.make_input(state, k)
            if tracer:
                tracer.op = k
            ok, error = False, None
            t0 = perf_counter()
            try:
                out = wl.op(inp)
                dt = perf_counter() - t0
                if tracer:
                    tracer.op = None
                ref = None if tracer else reference_time(dt)
                with paused():
                    ok, quality = wl.check(inp, out)
            except Exception as exc:  # a library error is a failed op, not a crash
                error = exc
            attempted += 1
            if ok:
                times.append(dt)
                if ref:
                    rel.append(dt / ref)
                qualities.append(quality)
            else:
                failed += 1
                print(f"op {k} failed: {error!r}" if error else f"op {k}: output check failed",
                      file=sys.stderr)
            k += 1
        if limit is None:  # time whole passes only, so every run times the same mix
            times = times[:len(times) // wl.pass_ops * wl.pass_ops]
            rel = rel[:len(times)]
    finally:
        if tracer:
            tracer.uninstall()

    details = {"workload": name, "trace": int(trace), "env": environment([seed])}
    details.update(tail(times) if times else {"ops": 0})
    if times and not trace:
        details.update(op_p50_s=statistics.median(times), ops_per_s=len(times) / sum(times))
    quality_pct, breakdown = wl.summarize(qualities[:wl.quality_ops]) if qualities else (0.0, {})
    details.update(breakdown)
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in tracer.layer_metrics().items()}
        metrics["trace.op_p50_s"] = {"value": statistics.median(times) if times else 0.0, "unit": "s"}
        metrics["trace.ops"] = {"value": len(times), "unit": "count"}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        details["spans_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "op_p50_ref": {"value": statistics.median(rel) if rel else 0.0, "unit": "ref"},
            "op_mean_ref": {"value": statistics.fmean(rel) if rel else 0.0, "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "quality_pct": {"value": quality_pct, "unit": "%"},
        }
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def _layer_unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if ".share." in name:
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop after this many ops (default: time-bounded, or the "
                             "workload's fixed op count when tracing)")
    args = parser.parse_args(argv)
    import_library()
    import_s = 0.0 if args.trace else import_seconds()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                   args.ops, import_s)
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
