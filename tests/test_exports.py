import ast
import importlib
import pkgutil
from pathlib import Path

import maxprob

BENCH_CHECKS = Path(__file__).resolve().parents[1] / "bench" / "checks.py"


def test_every_module_all_name_exists():
    """A stale __all__ entry breaks `from module import *` and any tool that
    walks __all__, such as the benchmark's span tracer."""
    for info in pkgutil.iter_modules(maxprob.__path__):
        module = importlib.import_module(f"maxprob.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"maxprob.{info.name}.__all__ names missing attributes: {missing}"


def test_benchmark_checks_use_only_exported_names():
    """The benchmark's correctness checks call maxprob.<name>; removing one of
    those names would break every benchmark run, so it fails here first."""
    tree = ast.parse(BENCH_CHECKS.read_text())
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "maxprob"}
    assert used, "bench/checks.py no longer calls maxprob.<name>; update this test"
    missing = sorted(name for name in used if not hasattr(maxprob, name))
    assert not missing, f"bench/checks.py uses names maxprob does not export: {missing}"
