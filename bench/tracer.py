"""Span tracing of maxprob's layers from outside the package.

``Tracer`` wraps every public function of each layer module (the names in
its ``__all__``) and every public method of the layer's public classes,
such as ``FiniteDistribution.from_logp`` and ``ToyNet.forward``.  Module
functions are replaced wherever a maxprob module holds a reference to them,
so calls between modules and within a module are both seen.  Private
helpers are not wrapped: their time is self time of the public caller.

Each call records a span: name, start, end (perf_counter_ns) and the index
of the enclosing span.  Spans are kept in flat arrays in memory and written
out by ``save`` when the run ends.  A span's self time is its duration
minus the durations of its direct children; spans nest strictly because
the benchmark runs one operation at a time on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "optimize", "bernoulli", "nn", "objectives", "bounds", "distributions",
          "logspace")

# Span names are "<layer>.<function>" or "<layer>.<Class>.<method>"; the one
# constructor every distribution passes through gets the short name.
RENAMES = {"distributions.FiniteDistribution.from_logp": "distributions.from_logp"}


class Tracer:
    """Install with ``with tracer:``; spans accumulate across installs.

    The wrappers are built on the first install and reused afterwards, so
    each traced function keeps one name id for the whole run.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.nbytes: list[int] = []     # summed nbytes of ndarray results, per name
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self._plan: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if not self._plan:
            self._plan = self._build_plan()
        for owner, attr, _, replacement in self._plan:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every reference to replace."""
        plan = []
        wrapped: dict[object, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"maxprob.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    plan.extend(self._method_plan(obj, layer))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "maxprob" or name.startswith("maxprob.")):
                continue
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrapped:
                    plan.append((module, attr, value, wrapped[value]))
        return plan

    def _method_plan(self, cls, layer: str) -> list[tuple[object, str, object, object]]:
        plan = []
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                plan.append((cls, attr, raw, type(raw)(self._wrap(raw.__func__, name, layer))))
            elif inspect.isfunction(raw):
                plan.append((cls, attr, raw, self._wrap(raw, name, layer)))
        return plan

    def _wrap(self, fn, name: str, layer: str):
        name = RENAMES.get(name, name)
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.nbytes.append(0)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, nbytes, clock, ndarray = self._stack, self.nbytes, time.perf_counter_ns, np.ndarray

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_end.append(0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if type(result) is ndarray:
                nbytes[nid] += result.nbytes
            return result

        return traced

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name, and per layer under "layer:<name>": calls, self_ns, bytes."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)).astype(np.float64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            for key in (name, f"layer:{self.layer_of[nid]}"):
                entry = out.setdefault(key, {"calls": 0, "self_ns": 0.0, "bytes": 0})
                entry["calls"] += int(calls[nid])
                entry["self_ns"] += float(self_ns[nid])
                entry["bytes"] += self.nbytes[nid]
        return out

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end))
