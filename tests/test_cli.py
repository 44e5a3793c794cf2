import argparse
import contextlib
import csv
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from helpers import assert_within_rounding
from maxprob import (
    AscentConfig,
    AscentTrace,
    NonFiniteEncountered,
    ObjectiveConfig,
    Parameterization,
    SweepSpec,
    apply_parameterization,
    ascend,
    distribution_from_jsonable,
    evaluate,
    max_probability,
    regularizer_bound,
    run_sweep,
    uniform_distribution,
    values_at_thetas,
)
from maxprob import cli
from maxprob.bernoulli import SweepCurve, SweepReport, report_to_jsonable, theta_grid
from maxprob.objectives import ASSUMPTIONS, KINDS


@pytest.fixture
def coin_files(tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"range": ["H", "T"], "probs": [0.5, 0.5]}))
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({"range": ["H", "T"], "probs": [0.9, 0.1]}))
    return str(prior), str(cond)


@pytest.fixture
def tiny_alpha_files(tmp_path):
    """A prior and a conditional whose soft minimum overflowed -lse / alpha at alpha 1e-320,
    and alpha * (a - m) at 1e308, before the shift came first."""
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"range": ["a", "b", "c"], "probs": [0.01, 0.49, 0.5]}))
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({"range": ["a", "b", "c"], "probs": [0.9, 0.05, 0.05]}))
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

    @pytest.mark.parametrize("probs", ["[NaN, 1]", "[Infinity, 0]", "[-Infinity, 1]"])
    def test_non_finite_probability_is_non_finite(self, probs, tmp_path, coin_files, capsys):
        """Python's json reads NaN and Infinity; they are not a sum out of tolerance."""
        prior, _ = coin_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"range": ["a", "b"], "probs": %s}' % probs)
        code, out, err = run(["bound", "--prior", prior, "--conditional", str(bad)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NonFiniteEncountered"

    @pytest.mark.parametrize("payload", [
        {"range": ["H", "T"], "probs": ["a", "b"]},
        {"range": 5, "probs": [0.5, 0.5]},
        {"range": [["H"], ["T"]], "probs": [0.5, 0.5]},
    ])
    def test_malformed_distribution_is_a_domain_error(self, payload, tmp_path, coin_files,
                                                       capsys):
        prior, _ = coin_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run(["bound", "--prior", prior, "--conditional", str(bad)], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "MalformedDistribution"

    def test_directory_input_reports_io_error(self, tmp_path, coin_files, capsys):
        prior, _ = coin_files
        code, out, err = run(["bound", "--prior", prior, "--conditional", str(tmp_path)],
                             capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "IOError"

    def test_undecodable_file_reports_invalid_json(self, tmp_path, coin_files, capsys):
        prior, _ = coin_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\x8e\xff{}")
        code, _, err = run(["bound", "--prior", prior, "--conditional", str(bad)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "InvalidJson"

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

    def test_huge_alpha_leaves_stderr_empty(self, coin_files, capsys):
        """The max-shift overflows to -inf, whose exp is the correct 0; no warning."""
        prior, cond = coin_files
        code, out, err = run(["soft-bound", "--alpha", "1e308", "--prior", prior,
                              "--conditional", cond], capsys)
        assert code == 0 and err == ""
        np.testing.assert_allclose(json.loads(out)["log_value"], np.log(5.0 / 9.0),
                                   rtol=1e-12)

    def test_tiny_alpha_leaves_stderr_empty(self, tiny_alpha_files, capsys):
        """-lse / alpha overflows to -inf, the correct limit; no warning."""
        prior, cond = tiny_alpha_files
        code, out, err = run(["soft-bound", "--alpha", "1e-320", "--prior", prior,
                              "--conditional", cond], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["log_value"] == "-inf"

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

    @pytest.mark.parametrize("kind", ["likelihood", "intersection"])
    @pytest.mark.parametrize("assumption", ["cond-independent", "oracle-subset"])
    def test_tiny_alpha_leaves_stderr_empty(self, tiny_alpha_files, capsys, kind, assumption):
        prior, cond = tiny_alpha_files
        code, out, err = run(["objective", "--kind", kind, "--assumption", assumption,
                              "--alpha", "1e-320", "--model", cond, "--oracle", prior,
                              "--prior", prior], capsys)
        assert code == 0 and err == ""
        assert sum(json.loads(out)["gradient_logp"]) == pytest.approx(0.0, abs=1e-12)

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

    @pytest.mark.parametrize("argv", [["--grad-tol", "nan"], ["--step", "inf"]])
    def test_non_finite_ascent_setting_is_a_domain_error(self, bernoulli_oracle, capsys,
                                                          argv):
        code, out, err = run(["optimize", "--kind", "intersection", "--alpha", "2",
                              "--oracle", bernoulli_oracle, "--param", "sigmoid", *argv],
                             capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "NonFiniteParameter"

    @pytest.mark.parametrize("param", ["sigmoid", "softmax"])
    def test_parameterization_takes_the_oracle_range(self, coin_files, capsys, param):
        _, cond = coin_files
        code, out, err = run(["optimize", "--kind", "intersection", "--alpha", "2",
                              "--oracle", cond, "--param", param, "--max-iters", "5"],
                             capsys)
        assert code == 0 and err == ""
        assert len(list(csv.reader(io.StringIO(out)))) == 6

    def test_dim_must_match_the_oracle(self, bernoulli_oracle, capsys):
        code, _, err = run(["optimize", "--kind", "likelihood", "--oracle", bernoulli_oracle,
                            "--param", "softmax", "--dim", "3"], capsys)
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
        assert json.loads(err)["error"] == "InvalidSetting"

    @pytest.mark.parametrize("argv, error", [
        (["--grid-min=-inf"], "NonFiniteParameter"),
        (["--grid-step", "nan"], "NonFiniteParameter"),
        (["--grid-step", "1e-300"], "InvalidSetting"),
        (["--objectives", "bogus"], "InvalidSetting"),
        (["--objectives", ""], "InvalidSetting"),
        (["--objectives", ","], "InvalidSetting"),
    ])
    def test_bad_settings_are_one_json_line(self, argv, error, capsys):
        code, out, err = run(["sweep-bernoulli", "--theta-star", "0", *argv], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == error


# Floats the emitter must format as csv.writer does, beyond what floats() draws often.
SPECIAL_FLOATS = [np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16,
                  -1e16, 1e-5, 0.1, 1.7976931348623157e308, -1.7976931348623157e308]


def emitted(header, blocks) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit_csv(header, blocks, None)
    return buf.getvalue()


class TestCsvEmitter:
    @given(st.lists(st.tuples(
        st.sampled_from(["likelihood", "intersection", "ce-l2"]),
        st.floats(allow_nan=False) | st.sampled_from(SPECIAL_FLOATS),
        arrays(float, st.tuples(st.integers(0, 6)) | st.tuples(st.integers(0, 6),
                                                                st.integers(1, 4)),
               elements=st.floats(allow_nan=False) | st.sampled_from(SPECIAL_FLOATS))),
        max_size=3))
    def test_matches_csv_writer(self, blocks):
        """Per block: a string and a float prefix, an int iter column and a float
        table, whose rows are its floats (2-D) or one float each (1-D)."""
        header = ["name", "alpha", "iter"] + [f"c{j}" for j in range(4)]
        expected = reference.csv_text(header, [
            [name, alpha, i, *np.atleast_1d(row)] for name, alpha, table in blocks
            for i, row in enumerate(table)])
        assert emitted(header, [(f"{name},{alpha!r},", [f"{i}," for i in range(len(table))],
                                 table) for name, alpha, table in blocks]) == expected

    def test_blocks_sharing_a_table(self):
        """Blocks that repeat the previous block's keys and table differ only in their
        prefix; an equal-valued copy of the table, or other keys, are formatted anew."""
        header = ["name", "alpha", "iter", "value"]
        keys, other_keys = ["0,", "1,", "2,"], ["3,", "4,", "5,"]
        table = np.array([0.1, -np.inf, 5e-324])
        blocks = [("a,1.0,", keys, table), ("a,2.0,", keys, table),
                  ("b,2.0,", keys, table.copy()), ("b,4.0,", keys, table),
                  ("c,4.0,", other_keys, table), ("c,8.0,", other_keys, table)]
        expected = reference.csv_text(header, [
            [*prefix.split(",")[:2], int(key[:-1]), value]
            for prefix, block_keys, block_table in blocks
            for key, value in zip(block_keys, block_table.tolist())])
        assert emitted(header, blocks) == expected

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_nan_raises_before_writing(self, shape):
        table = np.zeros(shape)
        table.flat[-1] = np.nan
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(NonFiniteEncountered):
            cli._emit_csv(["a"], [("", ["0,", "1,", "2,"], np.zeros(3)),
                                  ("", ["0,", "1,", "2,"], table)], None)
        assert buf.getvalue() == ""

    def test_nan_in_the_last_block_leaves_no_file(self, tmp_path):
        out = tmp_path / "out.csv"
        keys, table = ["0,", "1,", "2,"], np.zeros(3)
        table[-1] = np.nan
        with pytest.raises(NonFiniteEncountered):
            cli._emit_csv(["a"], [("x,", keys, np.zeros(3)), ("y,", keys, np.ones(3)),
                                  ("z,", keys, table)], str(out))
        assert not out.exists()

    @pytest.mark.parametrize("obj", [{"x": float("nan")}, [1.0, float("nan")],
                                     {"x": ({"y": float("nan")},)}], ids=repr)
    def test_nan_in_json_output_raises(self, obj):
        """The JSON writer rejects a NaN as the CSV writer does, however deep it sits."""
        with pytest.raises(NonFiniteEncountered, match="NaN reached the JSON output"):
            cli._json_safe(obj)

    @pytest.mark.parametrize("assumption, tables", [("cond-independent", 7),
                                                    ("oracle-subset", 11)])
    def test_sweep_formats_each_table_once(self, assumption, tables, monkeypatch, capsys):
        """The grid, then one table per curve, except that the alpha-free likelihood curve
        under cond-independent is formatted once for its five alphas."""
        formatted = []
        csv_cells = cli._csv_cells
        monkeypatch.setattr(cli, "_csv_cells",
                            lambda table: formatted.append(table) or csv_cells(table))
        code, out, err = run(["sweep-bernoulli", "--theta-star", "0.7",
                              "--assumption", assumption], capsys)
        assert code == 0 and err == ""
        assert len(formatted) == tables
        assert out.count("\n") == 1 + 10 * len(formatted[0])

    @pytest.mark.parametrize("spec", [
        dict(theta_star=2.1972245773362196),
        dict(theta_star=-1.5, assumption="oracle-subset", grid_step=0.37,
             alphas=(0.5, 3.0, 1e5)),
        dict(theta_star=0.3, grid_step=0.5, alphas=(1.0, 2.0),
             prior=distribution_from_jsonable({"range": ["1", "0"], "probs": [1.0, 0.0]})),
        dict(theta_star=0.3, grid_step=0.25, objectives=("intersection",), alphas=(3.0,)),
    ])
    def test_sweep_matches_reference(self, spec, tmp_path, capsys):
        """Default grid, a grid not landing on grid_max, -inf cells, and one curve."""
        argv = ["sweep-bernoulli", "--theta-star", repr(spec["theta_star"])]
        for flag, key in (("--assumption", "assumption"), ("--grid-step", "grid_step")):
            if key in spec:
                argv += [flag, str(spec[key])]
        if "alphas" in spec:
            argv += ["--alphas", ",".join(map(repr, spec["alphas"]))]
        if "objectives" in spec:
            argv += ["--objectives", ",".join(spec["objectives"])]
        if "prior" in spec:
            prior = tmp_path / "prior.json"
            prior.write_text(json.dumps({"range": ["1", "0"], "probs": [1.0, 0.0]}))
            argv += ["--prior", str(prior)]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        report = run_sweep(SweepSpec(**spec))
        assert out == reference.csv_text(["objective", "assumption", "alpha", "theta", "value"],
                                         reference.sweep_rows(report))

    @pytest.mark.parametrize("param, probs", [("sigmoid", [0.9, 0.1]),
                                              ("softmax", [0.5, 0.25, 0.125, 0.125])])
    def test_trace_matches_reference(self, param, probs, tmp_path, capsys):
        payload = {"range": [f"v{i}" for i in range(len(probs))], "probs": probs}
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(["optimize", "--kind", "intersection", "--alpha", "2",
                              "--oracle", str(path), "--param", param, "--step", "0.5",
                              "--max-iters", "40"], capsys)
        assert code == 0 and err == ""
        oracle = distribution_from_jsonable(payload)
        p = (Parameterization.sigmoid_bernoulli(oracle.range) if param == "sigmoid"
             else Parameterization.softmax_logits(oracle.range))
        config = ObjectiveConfig("intersection", "cond-independent", 2.0,
                                 uniform_distribution(oracle.range))
        trace = ascend(config, oracle, p, np.zeros(p.dim),
                       AscentConfig(step_size=0.5, max_iters=40, grad_tol=1e-8))
        header = ["iter"] + [f"theta_{i}" for i in range(p.dim)] + ["value", "grad_norm"]
        assert out == reference.csv_text(header, reference.trace_rows(trace))


# (param, oracle probs, prior probs or None for uniform, kind, alpha, step, max_iters,
# theta0 or None for zeros, the status the run ends in)
OPTIMIZE_CASES = {
    "sigmoid converged": ("sigmoid", [0.9, 0.1], None, "intersection", 2.0, 1.0, 10000, None,
                          "converged"),
    "softmax max_iters": ("softmax", [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], "likelihood",
                          2.0, 1.0, 5, None, "max_iters"),
    "sigmoid diverged": ("sigmoid", [0.9, 0.1], None, "likelihood", 2.0, 1e300, 10000, None,
                         "diverged"),
    "softmax diverged": ("softmax", [0.5, 0.25, 0.25], None, "intersection", 0.5, 1.7e308, 3,
                         None, "diverged"),
    # -lse / alpha at alpha 1e-320 is the soft bound's -inf limit, so every value is -inf
    "-inf final_value": ("sigmoid", [0.9, 0.1], None, "intersection", 1e-320, 0.1, 2, None,
                         "max_iters"),
    "zero prior outcome": ("softmax", [0.5, 0.5, 0.0], [0.5, 0.5, 0.0], "likelihood", 2.0,
                           0.5, 4, None, "max_iters"),
    "special cells": ("softmax", [0.4, 0.3, 0.2, 0.1], None, "intersection", 2.0, 0.1, 1,
                      [-0.0, 5e-324, 1e+16, 1e-05], "diverged"),
    # the model sits on one outcome, where the gradient is 0
    "special cells converged": ("softmax", [0.4, 0.3, 0.2, 0.1], None, "intersection", 2.0,
                                0.1, 2, [-0.0, 5e-324, 1e+5, 1e-05], "converged"),
}


class TestOptimizeSummary:
    """`maxprob optimize --out FILE` writes the trace CSV to FILE and prints the summary the
    old construction (reference.optimize_summary) printed, byte for byte; its final_theta is
    the text of the CSV's last row."""

    @staticmethod
    def run_case(case, tmp_path, capsys, out):
        param, probs, prior_probs, kind, alpha, step, max_iters, theta0, _ = case
        labels = [f"v{i}" for i in range(len(probs))]
        oracle_path = tmp_path / "oracle.json"
        oracle_path.write_text(json.dumps({"range": labels, "probs": probs}))
        argv = ["optimize", "--kind", kind, "--alpha", repr(alpha), "--oracle",
                str(oracle_path), "--param", param, "--step", repr(step),
                "--max-iters", str(max_iters), "--out", out]
        if prior_probs is not None:
            prior_path = tmp_path / "prior.json"
            prior_path.write_text(json.dumps({"range": labels, "probs": prior_probs}))
            argv += ["--prior", str(prior_path)]
        if theta0 is not None:
            argv += ["--theta0=" + ",".join(map(repr, theta0))]
        return run(argv, capsys)

    @pytest.mark.parametrize("name", OPTIMIZE_CASES)
    def test_matches_reference(self, name, tmp_path, capsys):
        case = OPTIMIZE_CASES[name]
        param, probs, prior_probs, kind, alpha, step, max_iters, theta0, status = case
        written = tmp_path / "trace.csv"
        code, out, err = self.run_case(case, tmp_path, capsys, str(written))
        assert code == 0 and err == ""
        oracle = distribution_from_jsonable({"range": [f"v{i}" for i in range(len(probs))],
                                             "probs": probs})
        prior = (uniform_distribution(oracle.range) if prior_probs is None else
                 distribution_from_jsonable({"range": list(oracle.range.labels),
                                             "probs": prior_probs}))
        p = (Parameterization.sigmoid_bernoulli(oracle.range) if param == "sigmoid"
             else Parameterization.softmax_logits(oracle.range))
        trace = ascend(ObjectiveConfig(kind, "cond-independent", alpha, prior), oracle, p,
                       np.zeros(p.dim) if theta0 is None else theta0,
                       AscentConfig(step_size=step, max_iters=max_iters))
        assert trace.status == status
        header = ["iter"] + [f"theta_{i}" for i in range(p.dim)] + ["value", "grad_norm"]
        assert written.read_text() == reference.csv_text(header, reference.trace_rows(trace))
        assert out == reference.optimize_summary(trace)
        # --out - prints the CSV alone: no summary follows it
        code, out, err = self.run_case(case, tmp_path, capsys, "-")
        assert code == 0 and err == "" and out == written.read_text()

    def test_infinite_theta_cells_are_strings(self, monkeypatch, tmp_path, capsys):
        """An infinite theta cell is the JSON string "inf" or "-inf", as in any JSON output;
        no ascent reaches one, so a stand-in ascent returns it."""
        trace = AscentTrace(np.array([[0.0, 1.0, -0.0], [np.inf, -np.inf, 5e-324]]),
                            np.array([-1.0, -np.inf]), np.array([1.0, 0.0]), "diverged")
        monkeypatch.setattr(cli, "ascend", lambda *args: trace)
        written = tmp_path / "trace.csv"
        case = ("softmax", [0.5, 0.25, 0.25], None, "likelihood", 2.0, 0.1, 2, None, None)
        code, out, err = self.run_case(case, tmp_path, capsys, str(written))
        assert code == 0 and err == ""
        assert out == reference.optimize_summary(trace)
        assert json.loads(out)["final_theta"] == ["inf", "-inf", 5e-324]


class TestSweepCurvesOneCallEach:
    """sweep-bernoulli's CSV and summary against curves computed one values_at_thetas
    call per (objective, alpha), so no curve shares another's values."""

    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    @pytest.mark.parametrize("alphas", [(1.0, 2.0, 4.0, 16.0, 256.0), (2.0, 2.0)])
    def test_byte_identical(self, assumption, alphas, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        code, out, err = run(["sweep-bernoulli", "--theta-star", "0.7", "--grid-step", "0.25",
                              "--assumption", assumption, "--alphas", ",".join(map(repr, alphas)),
                              "--summary-out", str(summary)], capsys)
        assert code == 0 and err == ""
        spec = SweepSpec(0.7, grid_step=0.25, alphas=alphas, assumption=assumption)
        p = Parameterization.sigmoid_bernoulli()
        oracle, prior = apply_parameterization(p, 0.7), uniform_distribution(p.range)
        grid = theta_grid(spec)
        middle = slice(len(grid) // 4, len(grid) - len(grid) // 4)
        curves = []
        for objective in KINDS:
            for alpha in alphas:
                config = ObjectiveConfig(objective, assumption, alpha, prior)
                values = values_at_thetas(config, oracle, p, grid[:, np.newaxis])
                curves.append(SweepCurve(objective, alpha, grid, values, int(np.argmax(values)),
                                         float(np.ptp(values[middle]))))
        report = SweepReport(spec, tuple(curves))
        assert out == reference.csv_text(["objective", "assumption", "alpha", "theta", "value"],
                                         reference.sweep_rows(report))
        assert summary.read_text() == json.dumps(report_to_jsonable(report)) + "\n"


def hard_limit(kind, assumption, theta, oracle, prior):
    """An objective at alpha -> inf for the sigmoid model at theta and a fully supported
    oracle: each soft minimum is the hard one."""
    model = apply_parameterization(Parameterization.sigmoid_bernoulli(oracle.range), theta)
    if assumption == "oracle-subset":
        likelihood = float(np.min(model.logp - oracle.logp))
    else:  # the cond-independent likelihood does not read alpha
        likelihood = evaluate(ObjectiveConfig("likelihood", assumption, 1.0, prior),
                              model, oracle)
    if kind == "likelihood":
        return likelihood
    return likelihood + max_probability(prior, model).log_max_probability


class TestHugeAlpha:
    """alpha 1e308 gives each command its alpha -> inf limit, with stderr empty: a soft
    minimum is the hard one, and a skeleton is uniform over the most likely outcomes
    (the least likely at -1e308)."""

    SWEEP = ["sweep-bernoulli", "--theta-star", "1", "--alphas", "1e308", "--grid-step", "4"]
    OPTIMIZE = ["optimize", "--kind", "likelihood", "--assumption", "oracle-subset",
                "--alpha", "1e308", "--param", "sigmoid", "--theta0", "3"]

    def test_soft_bound_is_the_bound(self, tiny_alpha_files, capsys):
        prior, cond = tiny_alpha_files
        code, out, err = run(["soft-bound", "--alpha", "1e308", "--prior", prior,
                              "--conditional", cond], capsys)
        assert code == 0 and err == ""
        _, hard, _ = run(["bound", "--prior", prior, "--conditional", cond], capsys)
        assert json.loads(out)["log_value"] == json.loads(hard)["log_value"]

    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_intersection_adds_the_bound_to_the_likelihood(self, tiny_alpha_files, capsys,
                                                          assumption):
        prior, cond = tiny_alpha_files
        values = {}
        for kind in KINDS:
            code, out, err = run(["objective", "--kind", kind, "--assumption", assumption,
                                  "--alpha", "1e308", "--model", cond, "--oracle", prior,
                                  "--prior", prior], capsys)
            assert code == 0 and err == ""
            values[kind] = json.loads(out)["value"]
        _, hard, _ = run(["bound", "--prior", prior, "--conditional", cond], capsys)
        assert values["intersection"] == values["likelihood"] + json.loads(hard)["log_value"]

    @pytest.mark.parametrize("alpha, probs", [("1e308", [1.0, 0, 0]),
                                              ("-1e308", [0, 0.5, 0.5])])
    def test_skeleton_is_uniform_over_the_extreme_outcomes(self, tiny_alpha_files, capsys,
                                                           alpha, probs):
        _, cond = tiny_alpha_files
        code, out, err = run(["skeleton", "--alpha", alpha, "--dist", cond], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["probs"] == probs

    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_sweep(self, tmp_path, capsys, assumption):
        argv = self.SWEEP + ["--assumption", assumption]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        p = Parameterization.sigmoid_bernoulli()
        oracle, prior = apply_parameterization(p, 1.0), uniform_distribution(p.range)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {row["objective"] for row in rows} == set(KINDS)
        for row in rows:
            theta = float(row["theta"])
            assert_within_rounding(float(row["value"]),
                                   hard_limit(row["objective"], assumption, theta, oracle, prior),
                                   abs(theta) + 1.0)
        written, summary = tmp_path / "sweep.csv", tmp_path / "summary.json"
        assert run(argv + ["--out", str(written), "--summary-out", str(summary)],
                   capsys) == (0, "", "")
        assert written.read_text() == out
        assert len(json.loads(summary.read_text())["curves"]) == len(KINDS)

    def test_optimize(self, tmp_path, capsys):
        oracle_path = tmp_path / "oracle.json"
        oracle_path.write_text(json.dumps({"range": ["1", "0"], "probs": [0.7, 0.3]}))
        argv = self.OPTIMIZE + ["--oracle", str(oracle_path), "--max-iters", "50"]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        oracle = distribution_from_jsonable(json.loads(oracle_path.read_text()))
        prior = uniform_distribution(oracle.range)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 50
        for row in rows:
            theta = float(row["theta_0"])
            assert_within_rounding(float(row["value"]), hard_limit(
                "likelihood", "oracle-subset", theta, oracle, prior), abs(theta) + 1.0)
        written = tmp_path / "trace.csv"
        code, summary, err = run(argv + ["--out", str(written)], capsys)
        assert code == 0 and err == "" and written.read_text() == out
        assert json.loads(summary)["status"] == "max_iters"

    def test_train_toy_keeps_the_regularizer_in_its_bound(self, capsys):
        code, out, err = run(["train-toy", "--loss", "intersection", "--alpha", "1e308",
                              "--epochs", "3"], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        bound = regularizer_bound(report["k"], 1e308)
        assert all(0.0 <= r["reg_term"] <= bound for r in report["records"])


# Payloads for the fuzz test: distributions over two or three outcomes, with zeros,
# and malformed ones.
PAYLOADS = [
    {"range": ["1", "0"], "probs": [0.7, 0.3]},
    {"range": ["1", "0"], "probs": [1.0, 0]},
    {"range": ["a", "b", "c"], "probs": [0.01, 0.49, 0.5]},
    {"range": ["a", "b", "c"], "probs": [0.9, 0.05, 0.05]},
    {"range": ["a", "b", "c"], "probs": [0, 0, 1]},
    {"range": ["a", "b"], "probs": [0.5, 0.6]},
    {"range": ["a", "b"], "probs": [-0.5, 1.5]},
    {"range": ["a", "a"], "probs": [0.5, 0.5]},
    {"range": [], "probs": []},
    {"range": ["a"], "probs": ["1"]},
    {"probs": [1.0]},
    [0.5, 0.5],
    "1e400",
    "{",
    "",
    '{"range": ["a", "b"], "probs": [NaN, 1]}',
    '{"range": ["a", "b"], "probs": [1e400, 0]}',
]

alpha_texts = st.builds(lambda sign, magnitude: repr(sign * magnitude),
                        st.sampled_from([1.0, -1.0]),
                        st.one_of(st.floats(1e-320, 1e308),
                                  st.sampled_from([1e-320, 1e-300, 1.0, 1e300, 1e308])))
count_texts = st.sampled_from(["0", "-1", "-9223372036854775809", "1", "2",
                               "100000000000", "9223372036854775808"])


@st.composite
def cli_argv(draw, paths):
    """A subcommand with drawn alphas, counts and payload paths, half of them to the
    valid payloads; the counts that set the work done (epochs, iterations) stay small,
    so that every run is quick."""
    def path():
        return draw(st.one_of(st.sampled_from(paths[:5]), st.sampled_from(paths)))

    def prior():
        return draw(st.sampled_from([[], ["--prior", path()]]))

    alpha = draw(alpha_texts)
    objective = ["--kind", draw(st.sampled_from(KINDS)),
                 "--assumption", draw(st.sampled_from(ASSUMPTIONS)), "--alpha", alpha]
    command = draw(st.sampled_from(["bound", "soft-bound", "skeleton", "objective",
                                    "optimize", "sweep-bernoulli", "train-toy"]))
    if command == "bound":
        return [command, "--prior", path(), "--conditional", path()]
    if command == "soft-bound":
        return [command, "--alpha", alpha, "--prior", path(), "--conditional", path()]
    if command == "skeleton":
        return [command, "--alpha", alpha, "--dist", path()]
    if command == "objective":
        return [command, *objective, "--model", path(), "--oracle", path(), *prior()]
    if command == "optimize":
        return [command, *objective, "--oracle", path(), *prior(),
                "--param", draw(st.sampled_from(["sigmoid", "softmax"])),
                "--max-iters", draw(st.sampled_from(["0", "-1", "3"])),
                *draw(st.sampled_from([[], ["--dim", draw(count_texts)]]))]
    if command == "sweep-bernoulli":
        return [command, *objective[2:], "--theta-star", draw(alpha_texts),
                "--alphas", f"{alpha},{draw(alpha_texts)}", *prior(),
                "--grid-step", draw(st.sampled_from(["4", "0", "-1", "1e-300"]))]
    return [command, "--loss", "intersection", "--alpha", alpha,
            "--epochs", draw(st.sampled_from(["0", "-1", "1"])),
            *draw(st.sampled_from([[], ["--classes", draw(count_texts)]])),
            *draw(st.sampled_from([[], ["--hidden", draw(count_texts)]])),
            *draw(st.sampled_from([[], ["--batch-size", draw(count_texts)]]))]


class TestFuzz:
    """Every argv ends in exit 0 with stderr empty, exit 1 with one JSON error line on
    stderr, or exit 2 for a usage error; never in a traceback or a numpy warning (an
    error under this suite's warning filter)."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("payloads")
        paths = []
        for i, payload in enumerate(PAYLOADS):
            path = folder / f"{i}.json"
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            paths.append(str(path))
        return paths

    def test_exit_codes_and_stderr(self, paths):
        @settings(max_examples=150, deadline=None, database=None)
        @given(cli_argv(paths))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
            assert code in (0, 1, 2)
            if code == 0:
                assert err.getvalue() == ""
            elif code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}
        check()


# The arguments each subcommand with a float option requires; parsing opens no file, so
# paths are placeholders.
REQUIRED = {
    "soft-bound": ["--alpha", "1", "--prior", "p", "--conditional", "c"],
    "skeleton": ["--alpha", "1", "--dist", "d"],
    "objective": ["--kind", "likelihood", "--model", "m", "--oracle", "o"],
    "optimize": ["--kind", "likelihood", "--oracle", "o", "--param", "sigmoid"],
    "sweep-bernoulli": ["--theta-star", "0"],
    "train-toy": ["--loss", "ce-l2"],
}


def float_option_values() -> list[tuple[str, str, str, str]]:
    """(subcommand, option, dest, text) for every option that takes a float, or a list of
    them, and every negative text repr prints, plus a list starting with one."""
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    texts = ["-2e-05", "-1e+300", "-0.5", "-.5", "-3", "-inf"]
    return [(name, action.option_strings[0], action.dest, text)
            for name, sub in subs.choices.items() for action in sub._actions
            if action.type in (float, cli._floats_csv)
            for text in texts + (["-1e-05,0"] if action.type is cli._floats_csv else [])]


class TestNegativeFloats:
    """A negative float in any form repr prints is an option's value, not an unknown option."""

    def test_finds_scalar_and_list_options(self):
        found = {(name, option) for name, option, _, _ in float_option_values()}
        assert {("sweep-bernoulli", "--theta-star"), ("optimize", "--theta0")} <= found

    @pytest.mark.parametrize("name, option, dest, text", float_option_values())
    def test_parses_as_the_value(self, name, option, dest, text):
        args = cli.build_parser().parse_args([name, *REQUIRED[name], option, text])
        want = (tuple(map(float, text.split(","))) if option in ("--theta0", "--alphas")
                else float(text))
        assert getattr(args, dest) == want

    def test_space_and_equals_forms_agree(self, capsys):
        argv = ["sweep-bernoulli", "--grid-step", "0.5", "--alphas", "2"]
        spaced = run(argv + ["--theta-star", "-2e-05", "--grid-min", "-1e+01"], capsys)
        joined = run(argv + ["--theta-star=-2e-05", "--grid-min=-1e+01"], capsys)
        assert spaced[0] == 0 and spaced == joined


class TestParserReuse:
    def test_one_parser_per_process_and_no_leaked_defaults(self, bernoulli_oracle, capsys):
        """dispatch builds one parser and reuses it; each call's output equals
        a run on a fresh parser, so no value of one call reaches the next."""
        sweep = ["sweep-bernoulli", "--theta-star", "1.5", "--grid-step", "0.5"]
        sequence = [
            sweep + ["--alphas", "1,2"],
            sweep,
            ["optimize", "--kind", "intersection", "--alpha", "2", "--oracle",
             bernoulli_oracle, "--param", "sigmoid", "--max-iters", "5"],
            ["--help"],
            ["optimize", "--kind", "banana"],
        ]
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2]
        assert fresh[0][1] != fresh[1][1]
        cli._parser.cache_clear()
        assert [run(argv, capsys) for argv in sequence] == fresh
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, len(sequence) - 1)

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


class TestLogLevel:
    def test_every_dispatch_sets_the_level(self, coin_files, tmp_path, caplog):
        """A later dispatch's --log-level holds, as the first one's does."""
        prior, cond = coin_files
        out = str(tmp_path / "bound.json")
        argv = ["bound", "--prior", prior, "--conditional", cond, "--out", out]
        assert cli.dispatch(argv) == 0
        assert caplog.records == []
        assert cli.dispatch([*argv, "--log-level", "info"]) == 0
        assert [r.getMessage() for r in caplog.records] == [f"wrote {out}"]
        assert cli.dispatch(argv) == 0
        assert len(caplog.records) == 1


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

    @pytest.mark.parametrize("flags, error", [
        (["--batch-size", "0"], "InvalidSetting"),
        (["--batch-size", "-3"], "InvalidSetting"),
        (["--epochs", "-1"], "InvalidSetting"),
        (["--classes", "0"], "InvalidSetting"),
        (["--hidden", "-1"], "InvalidSetting"),
        (["--seed", "-1"], "InvalidSetting"),
        (["--net-seed", "-1"], "InvalidSetting"),
        (["--data-seed", "-1"], "InvalidSetting"),
        (["--step", "nan"], "NonFiniteParameter"),
        (["--step", "inf"], "NonFiniteParameter"),
        (["--lam", "nan"], "NonFiniteParameter"),
        (["--step", "0"], "InvalidSetting"),
        (["--step", "-1"], "InvalidSetting"),
        (["--lam", "-1"], "InvalidSetting"),
        (["--classes", "100000000000"], "InvalidSetting"),
        (["--hidden", "100000000000"], "InvalidSetting"),
    ])
    def test_settings_out_of_range_are_domain_errors(self, flags, error, capsys):
        code, out, err = run(["train-toy", "--loss", "ce-l2", "--epochs", "1", *flags], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error

    def test_divergence_is_one_json_line(self, capsys):
        """A run whose weights overflow reports NonFiniteLogits alone: no numpy warning
        (an error under this suite's warning filter) reaches stderr before it."""
        code, out, err = run(["train-toy", "--loss", "intersection", "--step", "1e200",
                              "--epochs", "5"], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"] == "NonFiniteLogits"

    def test_tiny_alpha_leaves_stderr_empty(self, capsys):
        code, out, err = run(["train-toy", "--loss", "intersection", "--alpha", "1e-320",
                              "--epochs", "1"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["records"][0]["reg_term"] == "-inf"

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

    @pytest.mark.parametrize("number", ["0", "13"])
    def test_unknown_criterion_is_a_coded_error(self, number, capsys):
        code, out, err = run(["check", "--only", number], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidSetting" and "1-12" in payload["detail"]
