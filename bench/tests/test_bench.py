"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from iterauction import mechanism, training, uub, wdp  # noqa: E402
from iterauction.mvnn import MvnnParams  # noqa: E402
from iterauction.wdp import WdpSolution  # noqa: E402

SMALL_OPS = {"mlca-n3m8": 2, "wdp-milp-n2m12": 6, "fit-m18": 6}


def test_smoke_every_workload_reports_every_named_metric():
    assert suite.smoke() == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    counts = []
    for _ in range(2):
        result, _ = run.run_workload(name, seed=3, seconds=60, trace=True, max_ops=SMALL_OPS[name])
        assert result["correct"]
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["trace.ops"] == SMALL_OPS[name]


def test_tracing_restores_the_library():
    before = {(ns.__name__, name): getattr(ns, name)
              for ns in tracing.NAMESPACES for (_, name) in tracing.TRACED if hasattr(ns, name)}
    forward = MvnnParams.__dict__["forward"]
    run.run_workload("mlca-n3m8", seed=1, seconds=60, trace=True, max_ops=1)
    assert mechanism.solve_wdp is wdp.solve_wdp
    assert mechanism.train_mean is training.train_mean
    assert MvnnParams.__dict__["forward"] is forward
    after = {(ns.__name__, name): getattr(ns, name)
             for ns in tracing.NAMESPACES for (_, name) in tracing.TRACED if hasattr(ns, name)}
    assert after == before


def test_trace_attributes_bnb_and_forward_in_an_auction():
    result, _ = run.run_workload("mlca-n3m8", seed=1, seconds=60, trace=True, max_ops=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["wdp.solve_wdp.calls"] == 9  # n * q_round queries in the one query round
    assert m["mvnn.forward.calls"] > m["wdp.solve_wdp.nodes"] > 0
    assert m["training.train_mean.calls"] == m["uub.train_uub.calls"] == 3
    assert 0 < m["mechanism.run_mlca.share.query_wdp"] + m["mechanism.run_mlca.share.fit"] < 1
    assert m["mechanism.run_mlca.self_s"] >= 0


def test_failed_output_check_counts_as_failed_op(monkeypatch):
    def wrong(nets, exclusions=None, **kwargs):  # returns an excluded (empty) bundle
        m = nets[0].m
        return WdpSolution(allocation=np.zeros((len(nets), m), dtype=np.int64), objective=0.0)

    monkeypatch.setattr(wdp, "milp_wdp", wrong)
    result, _ = run.run_workload("wdp-milp-n2m12", seed=1, seconds=60, trace=False, max_ops=4)
    assert not result["correct"]
    assert result["failed"] == 4 + 3  # every op, plus the three set-up cross-checks
    assert result["attempted"] == 4 + 3


def test_milp_inputs_do_not_depend_on_training(monkeypatch):
    def digest():
        wl = WORKLOADS["wdp-milp-n2m12"]()
        state = wl.setup(5)
        h = hashlib.sha256()
        for k in range(20):
            queried, other, excluded, _ = wl.make_input(state, k)
            h.update(queried.to_json().encode() + other.to_json().encode())
            h.update(np.asarray(excluded).tobytes())
        return h.hexdigest()

    reference = digest()

    def forbidden(*args, **kwargs):
        raise AssertionError("training called while building MILP inputs")

    monkeypatch.setattr(training, "train_mean", forbidden)
    monkeypatch.setattr(uub, "train_uub", forbidden)
    assert digest() == reference


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [*cmd, "--workload", "fit-m18", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result_set(values_by_metric, seeds=range(10)):
    runs = []
    for k, seed in enumerate(seeds):
        metrics = {name: {"value": vals[k], "unit": "s"} for name, vals in values_by_metric.items()}
        runs.append({"workload": "w", "seed": seed, "trace": 0,
                     "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}})
    return {"runs": runs}


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    assert compare.verdict(base, faster, list(zip(base, faster)), higher_is_better=False) == "better"
    assert compare.verdict(base, slower, list(zip(base, slower)), higher_is_better=False) == "worse"
    assert compare.verdict(base, base[::-1], list(zip(base, base[::-1])), False) == "unresolved"
    assert compare.bound_check(base, slower, 0.25, higher_is_better=False) == "REGRESSED"
    assert compare.bound_check(base, [v * 1.1 for v in base], 0.25, higher_is_better=False) == "ok"
    text, regressions = compare.compare(_result_set({"op_p50_ref": base}), _result_set({"op_p50_ref": slower}))
    assert regressions == 1 and "REGRESSED" in text


def test_mlca_quality_does_not_depend_on_the_walk_order():
    wl = WORKLOADS["mlca-n3m8"]()
    qualities = [{"efficiency_loss": x} for x in np.random.default_rng(0).random(wl.quality_ops) / 3]
    assert wl.summarize(qualities) == wl.summarize(qualities[::-1])


def test_milp_crosscheck_rejects_a_suboptimal_solution():
    wl = WORKLOADS["wdp-milp-n2m12"]()
    inp = wl.make_input(wl.setup(1), 0)
    queried, other, bundles, crosscheck = inp
    assert crosscheck
    best = wl.op(inp)
    assert wl.check(inp, best)[0]
    # The best solution that also excludes the optimal bundle is feasible but worse.
    second = wdp.milp_wdp([queried, other], exclusions=[bundles + [best.allocation[0]], None])
    assert second.objective < best.objective * (1 - wl.mip_rel_gap)
    assert not wl.check(inp, second)[0]


def test_alternate_schedule_flips_the_order_every_seed():
    assert suite.schedule(["w"], [1, 2, 3], ["base", "new"]) == [
        ("w", 1, "base"), ("w", 1, "new"), ("w", 2, "new"), ("w", 2, "base"),
        ("w", 3, "base"), ("w", 3, "new"),
    ]


def test_compare_flags_a_lower_mip_welfare():
    base = _result_set({"op_p50_ref": [1.0] * 10})
    new = _result_set({"op_p50_ref": [1.0] * 10})
    for k, (b, n) in enumerate(zip(base["runs"], new["runs"])):
        b["details"] = {"wdp_welfare_mean": 1.48 + k / 1000}
        n["details"] = {"wdp_welfare_mean": (1.48 + k / 1000) * 0.99}
    text, regressions = compare.compare(base, new)
    assert regressions == 1
    line = next(x for x in text.splitlines() if "wdp_welfare_mean" in x)
    assert "worse, REGRESSED" in line
    assert compare.compare(base, base)[1] == 0
