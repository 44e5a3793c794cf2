"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py

It is not part of the package's test suite: it checks the harness, not
maxprob.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio 0.0 ratio" in proc.stdout


def test_counts_repeat_between_traced_runs():
    first, second = (last_json(run_bench(ROOT, "fit-small", 1))["metrics"] for _ in range(2))
    counted = [k for k in first if k.endswith(("calls_per_unit", "bytes_per_unit"))]
    assert counted and all(first[k]["value"] == second[k]["value"] for k in counted)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checks reject a deliberately wrong reference --------------------------

@pytest.fixture(scope="module")
def cli():
    inputs.import_maxprob()
    from maxprob import cli
    return cli


def run_ops(cli, workload: str, out: Path) -> list[tuple[dict, str, list[bytes]]]:
    """Run every tiny operation of a workload; (op, stdout, output files) each."""
    results = []
    for op in inputs.generate(workload, 5, "tiny", out)["ops"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.dispatch(op["argv"]) == 0
        results.append((op, buf.getvalue(), [Path(p).read_bytes() for p in op["outputs"]]))
    return results


def test_fit_small_wrong_optimum_fails(cli, tmp_path):
    for op, stdout, (trace,) in run_ops(cli, "fit-small", tmp_path):
        summary, ref = json.loads(stdout), op["check"]
        assert checks.check_fit_small(ref, summary, trace.decode()) == []
        wrong = {**ref, "theta_star": ref["theta_star"] + 0.01}
        if checks.fit_small_optimum(ref) is not None:
            assert checks.check_fit_small(wrong, summary, trace.decode())


def test_fit_wide_wrong_step_count_or_gradient_fails(cli, tmp_path):
    for op, stdout, (trace,) in run_ops(cli, "fit-wide", tmp_path):
        summary, ref = json.loads(stdout), op["check"]
        fd = checks.fit_wide_fd_error(sys.modules["maxprob"], ref, summary["final_theta"])
        assert checks.check_fit_wide(ref, summary, trace.decode(), fd) == []
        assert checks.check_fit_wide({**ref, "iters": 1}, summary, trace.decode(), fd)
        assert checks.check_fit_wide(ref, summary, trace.decode(), 1.0)


def test_sweep_wrong_theta_star_fails(cli, tmp_path):
    for op, _, (table, summary) in run_ops(cli, "sweep", tmp_path):
        ref = op["check"]
        assert checks.check_sweep(ref, json.loads(summary), table.decode()) == []
        wrong = {**ref, "theta_star": ref["theta_star"] * 1.5}
        assert checks.check_sweep(wrong, json.loads(summary), table.decode())


def test_train_toy_wrong_reference_fails(cli, tmp_path):
    for op, _, (report,) in run_ops(cli, "train-toy", tmp_path):
        ref = op["check"]
        assert checks.check_train_toy(ref, report, report) == []
        assert checks.check_train_toy({**ref, "epochs": ref["epochs"] + 1}, report, report)
        assert checks.check_train_toy(ref, report, report.replace(b"0", b"1", 1))
        if ref["mode"] == "intersection" and ref["alpha"] > 1:
            # a bound that is too tight must be caught
            assert checks.check_train_toy({**ref, "alpha": 1.0}, report, report)
