import csv
import io
import json
import sys

import numpy as np
import pytest

from maxprob import cli


@pytest.fixture
def coin_files(tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"range": ["H", "T"], "probs": [0.5, 0.5]}))
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({"range": ["H", "T"], "probs": [0.9, 0.1]}))
    return str(prior), str(cond)


@pytest.fixture
def bernoulli_oracle(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps({"range": ["1", "0"], "probs": [0.9, 0.1]}))
    return str(path)


def run(argv, capsys):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_coin_value(self, coin_files, capsys):
        prior, cond = coin_files
        code, out, err = run(["bound", "--prior", prior, "--conditional", cond], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["argmin_outcome"] == "H"
        np.testing.assert_allclose(payload["value"], 5.0 / 9.0, rtol=1e-15)

    def test_floats_round_trip_textually(self, coin_files, capsys):
        prior, cond = coin_files
        _, out, _ = run(["bound", "--prior", prior, "--conditional", cond], capsys)
        assert '"value": 0.5555555555555555' in out

    def test_minus_inf_encodes_as_string(self, tmp_path, capsys):
        prior = tmp_path / "p.json"
        prior.write_text(json.dumps({"range": ["a", "b"], "probs": [1.0, 0]}))
        cond = tmp_path / "c.json"
        cond.write_text(json.dumps({"range": ["a", "b"], "probs": [0.5, 0.5]}))
        code, out, _ = run(["bound", "--prior", str(prior), "--conditional", str(cond)],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["log_value"] == "-inf"
        assert payload["value"] == 0.0

    def test_missing_file_exits_one_with_json_error(self, coin_files, capsys):
        prior, _ = coin_files
        code, out, err = run(["bound", "--prior", prior, "--conditional", "nope.json"],
                             capsys)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "FileNotFound"

    def test_unparseable_file_reports_invalid_json(self, tmp_path, coin_files, capsys):
        prior, _ = coin_files
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        code, _, err = run(["bound", "--prior", prior, "--conditional", str(bad)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "InvalidJson"

    def test_invalid_distribution_reports_domain_code(self, tmp_path, coin_files, capsys):
        prior, _ = coin_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"range": ["a", "b"], "probs": [0.6, 0.6]}))
        code, _, err = run(["bound", "--prior", prior, "--conditional", str(bad)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "SumOutOfTolerance"

    def test_stdin_dash(self, coin_files, capsys, monkeypatch):
        prior, _ = coin_files
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO('{"range": ["H", "T"], "probs": [1.0, 0]}'))
        code, out, _ = run(["bound", "--prior", prior, "--conditional", "-"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 0.5

    def test_out_writes_file(self, coin_files, tmp_path, capsys):
        prior, cond = coin_files
        target = tmp_path / "result.json"
        code, out, _ = run(["bound", "--prior", prior, "--conditional", cond,
                            "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["argmin_outcome"] == "H"


class TestUsageErrors:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_missing_required_argument(self, capsys):
        assert run(["bound"], capsys)[0] == 2

    def test_bad_choice(self, coin_files, capsys):
        prior, cond = coin_files
        code = run(["objective", "--kind", "banana", "--model", cond,
                    "--oracle", cond, "--prior", prior], capsys)[0]
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    def test_version_exits_zero(self, capsys):
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert out.startswith("maxprob ")


class TestSoftBoundAndSkeleton:
    def test_soft_bound_below_hard_bound(self, coin_files, capsys):
        prior, cond = coin_files
        _, hard_out, _ = run(["bound", "--prior", prior, "--conditional", cond], capsys)
        _, soft_out, _ = run(["soft-bound", "--alpha", "4", "--prior", prior,
                              "--conditional", cond], capsys)
        assert json.loads(soft_out)["value"] <= json.loads(hard_out)["value"]

    def test_non_positive_alpha_is_a_domain_error(self, coin_files, capsys):
        prior, cond = coin_files
        for alpha, error in (("0", "NonPositiveAlpha"), ("inf", "NonFiniteParameter"),
                             ("nan", "NonFiniteParameter")):
            code, out, err = run(["soft-bound", "--alpha", alpha, "--prior", prior,
                                  "--conditional", cond], capsys)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == error

    def test_skeleton_emits_distribution_json(self, coin_files, capsys):
        _, cond = coin_files
        code, out, _ = run(["skeleton", "--alpha", "2", "--dist", cond], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["range"] == ["H", "T"]
        np.testing.assert_allclose(payload["probs"], [0.81 / 0.82, 0.01 / 0.82],
                                   rtol=1e-12)

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [1.0, 0]])
    @pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
    def test_skeleton_non_finite_alpha_is_a_domain_error(self, tmp_path, capsys, probs, alpha):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"range": ["H", "T"], "probs": probs}))
        code, out, err = run(["skeleton", f"--alpha={alpha}", "--dist", str(dist)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NonFiniteParameter"

    def test_skeleton_keeps_zero_as_integer_literal(self, tmp_path, capsys):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"range": ["a", "b"], "probs": [1.0, 0]}))
        _, out, _ = run(["skeleton", "--alpha", "2", "--dist", str(dist)], capsys)
        assert '"probs": [1.0, 0]' in out


class TestObjectiveCommand:
    def test_value_and_gradient(self, coin_files, capsys):
        prior, cond = coin_files
        code, out, _ = run(["objective", "--kind", "likelihood", "--alpha", "1",
                            "--model", cond, "--oracle", cond, "--prior", prior],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dropped_constant_terms"] == ["log_prob_oracle_event"]
        np.testing.assert_allclose(sum(payload["gradient_logp"]), 0.0, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_outcome_no_distribution_supports_leaves_stderr_empty(self, tmp_path, capsys):
        sure = tmp_path / "sure.json"
        sure.write_text(json.dumps({"range": ["H", "T"], "probs": [1.0, 0]}))
        code, out, err = run(["objective", "--kind", "likelihood", "--model", str(sure),
                              "--oracle", str(sure), "--prior", str(sure)], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["gradient_logp"] == [0.0, 0.0]

    def test_subset_violation_reports_domain_code(self, tmp_path, coin_files, capsys):
        prior, _ = coin_files
        model = tmp_path / "m.json"
        model.write_text(json.dumps({"range": ["H", "T"], "probs": [1.0, 0]}))
        code, _, err = run(["objective", "--kind", "likelihood", "--assumption",
                            "oracle-subset", "--model", str(model), "--oracle", prior],
                           capsys)
        assert code == 1
        assert json.loads(err)["error"] == "OracleSupportEscapesModel"


class TestOptimizeCommand:
    def test_trace_csv_schema(self, bernoulli_oracle, capsys):
        code, out, _ = run(["optimize", "--kind", "intersection", "--alpha", "2",
                            "--oracle", bernoulli_oracle, "--param", "sigmoid",
                            "--step", "1.0", "--max-iters", "20"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["iter", "theta_0", "value", "grad_norm"]
        assert len(rows) == 21
        assert rows[1][0] == "0"

    def test_out_file_plus_summary_on_stdout(self, bernoulli_oracle, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(["optimize", "--kind", "intersection", "--alpha", "2",
                            "--oracle", bernoulli_oracle, "--param", "sigmoid",
                            "--step", "1.0", "--grad-tol", "1e-10",
                            "--out", str(trace)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["status"] == "converged"
        np.testing.assert_allclose(summary["final_theta"], [np.log(9.0)], atol=1e-7)
        header = trace.read_text().splitlines()[0]
        assert header == "iter,theta_0,value,grad_norm"

    def test_theta0_dimension_checked(self, bernoulli_oracle, capsys):
        code, _, err = run(["optimize", "--kind", "likelihood",
                            "--oracle", bernoulli_oracle, "--param", "sigmoid",
                            "--theta0", "1,2"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_softmax_parameterization_path(self, tmp_path, capsys):
        oracle = tmp_path / "o.json"
        oracle.write_text(json.dumps(
            {"range": ["v0", "v1", "v2"], "probs": [0.5, 0.25, 0.25]}))
        code, out, _ = run(["optimize", "--kind", "intersection", "--alpha", "2",
                            "--oracle", str(oracle), "--param", "softmax", "--dim", "3",
                            "--step", "0.5", "--max-iters", "30"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["iter", "theta_0", "theta_1", "theta_2"]


class TestSweepCommand:
    def test_csv_and_summary(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code, out, _ = run(["sweep-bernoulli", "--theta-star", "2.1972245773362196",
                            "--grid-min", "-2", "--grid-max", "2", "--grid-step", "1",
                            "--alphas", "1,2", "--summary-out", str(summary_path)],
                           capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["objective", "assumption", "alpha", "theta", "value"]
        assert len(rows) == 1 + 2 * 2 * 5
        summary = json.loads(summary_path.read_text())
        assert len(summary["curves"]) == 4

    def test_zero_prior_entry_summary_encodes_minus_inf(self, tmp_path, capsys):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"range": ["1", "0"], "probs": [1.0, 0]}))
        summary_path = tmp_path / "summary.json"
        code, _, err = run(["sweep-bernoulli", "--theta-star", "2.1972245773362196",
                            "--grid-step", "0.5", "--alphas", "1,2",
                            "--prior", str(prior), "--summary-out", str(summary_path)],
                           capsys)
        assert code == 0 and err == ""
        curves = json.loads(summary_path.read_text())["curves"]
        intersection = [c for c in curves if c["objective"] == "intersection"]
        assert len(intersection) == 2
        for curve in intersection:
            assert curve["argmax_value"] == "-inf"
            assert curve["flatness"] == 0.0

    def test_invalid_grid_is_a_domain_error(self, capsys):
        code, _, err = run(["sweep-bernoulli", "--theta-star", "0",
                            "--grid-min", "2", "--grid-max", "-2"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "DimensionMismatch"


class TestTrainToyCommand:
    def test_report_shape(self, capsys):
        code, out, _ = run(["train-toy", "--loss", "intersection", "--alpha", "2",
                            "--epochs", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "intersection"
        assert len(report["records"]) == 4
        assert set(report["records"][0]) == {"epoch", "train_loss", "test_loss",
                                             "train_acc", "test_acc", "reg_term"}

    def test_non_finite_alpha_is_a_domain_error(self, capsys):
        code, out, err = run(["train-toy", "--loss", "intersection", "--alpha", "inf",
                              "--epochs", "1"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NonFiniteParameter"

    def test_repeated_runs_identical(self, tmp_path, capsys):
        args = ["train-toy", "--loss", "ce-l2", "--lam", "0.001", "--epochs", "2"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.dispatch(args + ["--out", str(a)]) == 0
        assert cli.dispatch(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestCheckCommand:
    def test_single_fast_criterion(self, capsys):
        code, out, _ = run(["check", "--only", "9"], capsys)
        assert code == 0
        assert out.splitlines()[0].startswith("PASS  9")
        assert "1/1 criteria passed" in out

    def test_results_json(self, tmp_path, capsys):
        target = tmp_path / "results.json"
        code, _, _ = run(["check", "--only", "6", "--out", str(target)], capsys)
        assert code == 0
        results = json.loads(target.read_text())
        assert results[0]["number"] == 6
        assert results[0]["passed"] is True
