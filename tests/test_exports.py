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


# The modules the package top level republishes, in import order.
REPUBLISHED = ("errors", "logspace", "distributions", "bounds", "objectives", "optimize",
               "bernoulli", "nn")
# Published by both bernoulli and nn, so kept off the top level.
COLLIDING = "report_to_jsonable"


def _published():
    """(module, name, object) for every name in a republished module's __all__."""
    for layer in REPUBLISHED:
        module = importlib.import_module(f"maxprob.{layer}")
        for name in module.__all__:
            yield layer, name, getattr(module, name)


def test_top_level_republishes_each_module_all():
    """Each module's __all__ is the one list of public names: the top level holds every
    name in it as the module's own object."""
    wrong = [f"{layer}.{name}" for layer, name, obj in _published()
             if name != COLLIDING and getattr(maxprob, name, None) is not obj]
    assert not wrong, f"maxprob does not republish: {wrong}"


def test_colliding_name_stays_off_the_top_level():
    assert not hasattr(maxprob, COLLIDING)


def test_no_other_name_is_published_twice():
    """A second module publishing a name would shadow the first at the top level."""
    seen: dict[str, list[str]] = {}
    for layer, name, _ in _published():
        seen.setdefault(name, []).append(layer)
    twice = {name: layers for name, layers in seen.items() if len(layers) > 1}
    assert twice == {COLLIDING: ["bernoulli", "nn"]}
