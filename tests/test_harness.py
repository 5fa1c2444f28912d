"""Experiment harness: metric, statistics, determinism, resumability."""

import json
from pathlib import Path

import numpy as np
import pytest

import iterauction as ia
from iterauction.harness import (
    ExperimentConfig,
    hpo_metric,
    normal_ci95_half_width,
    paired_one_sided_ttest,
    run_experiment,
)
from iterauction.mechanism import MechanismConfig


class TestHpoMetric:
    def test_perfect_interpolation_scores_zero(self):
        y = np.array([0.2, 0.5, 0.9])
        assert hpo_metric(y, y, train_mae=0.0, q=0.9) == 0.0

    def test_underprediction_weighted_by_q(self):
        # single point y=1 predicted 0 at q=0.9 scores 0.9
        assert hpo_metric(np.array([0.0]), np.array([1.0]), 0.0, q=0.9) == pytest.approx(0.9)

    def test_overprediction_weighted_by_one_minus_q(self):
        # single point y=0 predicted 1 at q=0.9 scores 0.1
        assert hpo_metric(np.array([1.0]), np.array([0.0]), 0.0, q=0.9) == pytest.approx(0.1)

    def test_train_mae_added(self):
        y = np.array([0.5])
        assert hpo_metric(y, y, train_mae=0.25, q=0.6) == pytest.approx(0.25)

    def test_rejects_bad_quantile_and_empty(self):
        with pytest.raises(ia.InvalidInputError):
            hpo_metric(np.array([1.0]), np.array([1.0]), 0.0, q=1.0)
        with pytest.raises(ia.InvalidInputError):
            hpo_metric(np.array([]), np.array([]), 0.0, q=0.5)


class TestTTest:
    def test_identical_samples_degenerate(self):
        r = paired_one_sided_ttest([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert r.degenerate and r.p_value == 1.0

    def test_clear_improvement_small_p(self):
        base = [0.30, 0.28, 0.33, 0.29, 0.31]
        better = [0.05, 0.06, 0.04, 0.05, 0.07]
        r = paired_one_sided_ttest(base, better)
        assert r.p_value < 0.001 and r.mean_diff > 0

    def test_matches_scipy_reference(self):
        from scipy import stats

        rng = np.random.default_rng(0)
        a, b = rng.random(10), rng.random(10)
        r = paired_one_sided_ttest(a, b)
        ref = stats.ttest_rel(a, b, alternative="greater")
        assert r.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_ci_half_width_formula(self):
        xs = [0.1, 0.2, 0.3, 0.4]
        sd = np.std(xs, ddof=1)
        assert normal_ci95_half_width(xs) == pytest.approx(1.96 * sd / 2.0)


def _tiny_experiment(tmp_path, name="exp"):
    return ExperimentConfig(
        generator=ia.GeneratorConfig(n=2, m=4),
        seeds=[0, 1],
        mechanisms=["random", "exact-uub"],
        mechanism_config=MechanismConfig(
            q_init=3, q_round=2, q_max=7,
            train_hyper=ia.TrainHyper(epochs=10),
            budget=ia.SolveBudget(relative_gap=0.0),
        ),
        out_dir=str(tmp_path / name),
    )


class TestRunExperiment:
    def test_outputs_and_shapes(self, tmp_path):
        cfg = _tiny_experiment(tmp_path)
        report = run_experiment(cfg)
        assert set(report["summary"]) == {"random", "exact-uub"}
        for mech in cfg.mechanisms:
            assert len(report["results"][mech]) == 2
        for fname in ("summary.csv", "per_seed.csv", "comparison.csv", "paths.csv"):
            assert (tmp_path / "exp" / fname).exists()

    def test_deterministic_csv_output(self, tmp_path):
        a = run_experiment(_tiny_experiment(tmp_path, "a"))
        run_experiment(_tiny_experiment(tmp_path, "b"))
        text_a = (tmp_path / "a" / "summary.csv").read_text()
        text_b = (tmp_path / "b" / "summary.csv").read_text()
        assert text_a == text_b
        assert a["comparisons"]["exact-uub"].df == 1

    def test_resumes_from_existing_results(self, tmp_path):
        cfg = _tiny_experiment(tmp_path)
        run_experiment(cfg)
        marker = tmp_path / "exp" / "results" / "random_seed0.json"
        rec = json.loads(marker.read_text())
        rec["efficiency_loss"] = 0.31337  # tampered: must be reused, not recomputed
        marker.write_text(json.dumps(rec))
        report = run_experiment(cfg)
        losses = [r["efficiency_loss"] for r in report["results"]["random"]]
        assert 0.31337 in losses

    def test_resumes_after_interrupted_result_write(self, tmp_path, monkeypatch):
        real_write_text = Path.write_text

        def interrupted(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt

        cfg = _tiny_experiment(tmp_path)
        monkeypatch.setattr(Path, "write_text", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        monkeypatch.undo()
        assert list((tmp_path / "exp" / "results").iterdir()), "the write left a partial file"
        report = run_experiment(cfg)
        assert [len(report["results"][mech]) for mech in cfg.mechanisms] == [2, 2]
        assert len(list((tmp_path / "exp" / "results").glob("*.json"))) == 4
