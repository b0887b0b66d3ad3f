"""Span tracing of the ldvortex layers, installed from outside the package.

A traced run replaces every public function of every ldvortex module, in
every module namespace that holds it, with a wrapper that records one span
(name, parent span, start, end).  Callers look these names up at call time
(`harness.minimize`, the `energy_arrays` global of `ldvortex.minimize`,
the `dense_hessian` that `validity` imports locally), so the wrappers see
every call without any change to the program.  Two more boundaries are not
module functions and are wrapped by hand: `Grid1D.trapezoid_weights` and
the banded solve that `ldvortex.minimize` reaches through its `sla` global.

Spans stay in memory; `layer_totals` folds them into calls, time and self
time per layer, where self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# Outcome fields kept from the return value of a traced call.
OUTCOMES = {
    "minimize.minimize": lambda rep: {
        "iterations": rep.iterations, "converged": int(rep.converged),
        "line_search_failures": rep.line_search_failures},
    "minimize.newton_critical": lambda cp: {"iterations": cp.newton_iterations},
}


class Tracer:
    """Collects spans as (name, parent index, start, end, outcome) tuples;
    a span's id is its index in `spans`, and -1 is the root."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = outcome(result) if outcome and result is not None else None
                spans[span_id] = (name, parent, t0, t1, extra)

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (total span time), self_s, and the sum
        of each outcome field."""
        child_s = defaultdict(float)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, (name, _, t0, t1, extra) in enumerate(self.spans):
            row = totals[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[span_id]
            for key, value in (extra or {}).items():
                row[key] = row.get(key, 0) + value
        return dict(totals)


def _ldvortex_modules() -> list[types.ModuleType]:
    package = importlib.import_module("ldvortex")
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"ldvortex.{n}") for n in names]


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    # `import ldvortex.minimize` would give the function that the package
    # re-exports under the same name, not the module.
    minimize_mod = importlib.import_module("ldvortex.minimize")
    grid_cls = importlib.import_module("ldvortex.params").Grid1D
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr: str, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    wrappers: dict[int, object] = {}
    for module in _ldvortex_modules():
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and not value.__name__.startswith("_")
                    and value.__module__.startswith("ldvortex.")):
                if id(value) not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers[id(value)] = tracer.wrap(f"{layer}.{value.__name__}", value)
                replace(module, attr, wrappers[id(value)])

    replace(grid_cls, "trapezoid_weights",
            tracer.wrap("params.trapezoid_weights", grid_cls.trapezoid_weights))
    linalg = types.SimpleNamespace(**vars(minimize_mod.sla))
    linalg.solve_banded = tracer.wrap("minimize.banded_solve", linalg.solve_banded)
    replace(minimize_mod, "sla", linalg)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
