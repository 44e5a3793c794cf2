import importlib
import pkgutil

import maxprob


def test_every_module_all_name_exists():
    """A stale __all__ entry breaks `from module import *` and any tool that
    walks __all__, such as the benchmark's span tracer."""
    for info in pkgutil.iter_modules(maxprob.__path__):
        module = importlib.import_module(f"maxprob.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"maxprob.{info.name}.__all__ names missing attributes: {missing}"
