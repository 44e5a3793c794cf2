"""The benchmark's operations run on this tree.

bench/inputs.py writes each workload's operations as argv for the CLI; at
tiny scale every one of them must exit 0 with an empty stderr, so removing
or renaming an option the benchmark passes (--dim, --net-seed, --data-seed,
...) fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from maxprob import cli

_SPEC = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inputs)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_operations_exit_zero_with_empty_stderr(workload, tmp_path, capsys):
    manifest = inputs.generate(workload, 1, "tiny", tmp_path)
    assert manifest["ops"]
    for op in manifest["ops"]:
        code = cli.dispatch(op["argv"])
        assert (code, capsys.readouterr().err) == (0, ""), op["argv"]
