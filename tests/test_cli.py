"""Command-line front end round trips."""

import json

import numpy as np
import pytest

import iterauction as ia
from iterauction.cli import main
from iterauction.mvnn import InitHyper, init_params

from _oracles import read_emitted_lp


class TestCli:
    def test_generate_writes_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["generate", "--n", "2", "--m", "4", "--seed", "3",
                     "--out", str(out)]) == 0
        inst = ia.AuctionInstance.from_json(out.read_text())
        assert inst.n == 2 and inst.m == 4

    def test_solve_wdp_on_generated_instance(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "2", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        out = tmp_path / "sol.json"
        assert main(["solve-wdp", "--instance", str(inst_path), "--relative-gap", "0",
                     "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        inst = ia.AuctionInstance.from_json(inst_path.read_text())
        assert abs(sol["welfare"] - inst.optimal_welfare) <= 1e-9

    def test_solve_wdp_defaults_are_the_budget_defaults(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "2", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        capsys.readouterr()
        assert main(["solve-wdp", "--instance", str(inst_path)]) == 0
        sol = json.loads(capsys.readouterr().out)
        assert sol["proven_gap"] == ia.SolveBudget().relative_gap

    def test_solve_wdp_prints_strict_json_for_an_infinite_gap(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "2", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        capsys.readouterr()
        assert main(["solve-wdp", "--instance", str(inst_path), "--relative-gap", "inf"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        sol = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert (sol["status"], sol["proven_gap"]) == ("gap_limit", None)
        with pytest.raises(SystemExit):
            main(["solve-wdp", "--help"])
        assert "proven_gap is null" in " ".join(capsys.readouterr().out.split())

    def test_solve_wdp_rejects_a_nan_gap(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "2", "--m", "4", "--seed", "3", "--out", str(inst_path)])
        with pytest.raises(ia.InvalidInputError, match="gap"):
            main(["solve-wdp", "--instance", str(inst_path), "--relative-gap", "nan"])

    def test_train_emits_triple(self, tmp_path):
        reports = {"reports": [[[1, 1, 1], 1.0], [[1, 0, 0], 0.3], [[0, 1, 1], 0.6]]}
        rp = tmp_path / "reports.json"
        rp.write_text(json.dumps(reports))
        out = tmp_path / "triple.json"
        assert main(["train", "--reports", str(rp), "--epochs", "10",
                     "--hidden-dims", "4", "--out", str(out)]) == 0
        triple = json.loads(out.read_text())
        assert set(triple) == {"mean_net", "uub_net", "exact_uub_net"}
        nets = {key: ia.MvnnParams.from_json_obj(doc) for key, doc in triple.items()}
        assert nets["exact_uub_net"].forward(np.ones(3)) == 1.0

    @pytest.mark.parametrize("bundle", [[0.5, 0, 1, 0], [2, 0, 1, 0]])
    def test_train_rejects_a_non_zero_one_bundle(self, tmp_path, bundle):
        reports = {"reports": [[[1, 1, 1, 1], 2.0], [bundle, 1.0]]}
        rp = tmp_path / "reports.json"
        rp.write_text(json.dumps(reports))
        with pytest.raises(ia.InvalidInputError, match="0 or 1"):
            main(["train", "--reports", str(rp), "--epochs", "5"])

    def test_train_rejects_an_empty_report_list(self, tmp_path):
        rp = tmp_path / "reports.json"
        rp.write_text(json.dumps({"reports": []}))
        with pytest.raises(ia.InvalidInputError, match="need at least one"):
            main(["train", "--reports", str(rp), "--epochs", "5"])

    @pytest.mark.parametrize("doc, message", [({}, r"missing required keys \['reports'\]"),
                                              ([[[1, 1], 1.0]], "must be a JSON object")])
    def test_train_rejects_a_file_without_reports(self, tmp_path, doc, message):
        rp = tmp_path / "reports.json"
        rp.write_text(json.dumps(doc))
        with pytest.raises(ia.InvalidInputError, match=message):
            main(["train", "--reports", str(rp), "--epochs", "5"])

    @pytest.mark.parametrize("command, flag, message", [
        ("export-milp", "--networks", r"networks file is missing required keys \['networks'\]"),
        ("hpo-metric", "--data", r"hpo-metric data file is missing required keys "
                                 r"\['predictions', 'targets', 'train_mae'\]"),
        ("solve-wdp", "--instance", r"instance is missing required keys \['n', "),
        ("run-mlca", "--instance", r"instance is missing required keys \['n', "),
    ])
    @pytest.mark.parametrize("doc", [{}, [1, 2]])
    def test_commands_reject_a_file_without_their_keys(self, tmp_path, command, flag, message,
                                                       doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        expected = message if doc == {} else "must be a JSON object"
        with pytest.raises(ia.InvalidInputError, match=expected):
            main([command, flag, str(path)])

    def test_export_milp_lp_text(self, tmp_path):
        nets = [init_params([3, 3, 1], InitHyper(), seed=k) for k in range(2)]
        np_path = tmp_path / "nets.json"
        np_path.write_text(json.dumps({"networks": [p.to_json_obj() for p in nets]}))
        out = tmp_path / "model.lp"
        assert main(["export-milp", "--networks", str(np_path), "--out", str(out)]) == 0
        model = read_emitted_lp(out.read_text())
        _, obj, _ = ia.solve_model(model)
        ref = ia.milp_wdp(nets)
        assert abs(obj - ref.objective) <= 1e-6

    def test_run_mlca_outputs(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["generate", "--n", "2", "--m", "4", "--seed", "5", "--out", str(inst_path)])
        cfg = {"q_init": 3, "q_round": 2, "q_max": 7, "acquisition": "exact-uub",
               "train_hyper": {"epochs": 10}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "run"
        assert main(["run-mlca", "--instance", str(inst_path), "--config", str(cfg_path),
                     "--seed", "1", "--out", str(outdir)]) == 0
        outcome = json.loads((outdir / "outcome.json").read_text())
        assert 0.0 <= outcome["efficiency_loss"] <= 1.0
        assert (outdir / "rounds.csv").exists()

    def test_hpo_metric_command(self, tmp_path):
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"predictions": [0.0], "targets": [1.0], "train_mae": 0.0}))
        out = tmp_path / "score.txt"
        assert main(["hpo-metric", "--data", str(data), "--q", "0.9",
                     "--out", str(out)]) == 0
        assert abs(float(out.read_text()) - 0.9) <= 1e-9

    def test_experiment_command(self, tmp_path):
        cfg = {
            "generator": ia.GeneratorConfig(n=2, m=4).to_json_obj(),
            "seeds": [0],
            "mechanisms": ["random"],
            "mechanism_config": {"q_init": 3, "q_round": 2, "q_max": 7},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "expout"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(outdir)]) == 0
        assert (outdir / "summary.csv").exists()

    @pytest.mark.parametrize("edit, key", [
        ({"seeds": None, "seed": [0]}, "seeds"),
        ({"mechanisms": ["random", "ubb"]}, "ubb"),
        ({"seeds": [0, "1"]}, "seeds"),
        ({"generator": {"m": 4}}, "'n'"),
        ({"mechanism_config": {"q_init": "3"}}, "q_init"),
    ])
    def test_experiment_rejects_malformed_config_before_running(self, tmp_path, edit, key):
        base = {
            "generator": ia.GeneratorConfig(n=2, m=4).to_json_obj(),
            "seeds": [0, 1],
            "mechanisms": ["random"],
            "mechanism_config": {"q_init": 3, "q_round": 2, "q_max": 7},
        }
        cfg = {k: v for k, v in {**base, **edit}.items() if v is not None}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        outdir = tmp_path / "expout"
        with pytest.raises(ia.InvalidInputError, match=key):
            main(["experiment", "--config", str(cfg_path), "--out", str(outdir)])
        assert not outdir.exists()
