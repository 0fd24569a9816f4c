"""Span tracing of netprobe's layers, installed from outside the package.

Every public module-level function of each layer module is wrapped, and the
wrapper is bound wherever a netprobe module holds the function: as a module
attribute (including ``from x import f`` copies) or as a value of a
module-level dict such as the harness's runner table.  A span is named by
the function's defining module, so ``harness.simulate`` records as
``dynamics.simulate``.  Private helpers stay unwrapped; they are called per
element and would swamp the trace.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "harness", "topology", "dynamics", "detect", "infer", "estimate")


def _count_simulate(counts, result, tm, x0, horizon, *args, **kwargs):
    counts["dynamics.steps"] += horizon
    counts["dynamics.flops_computed"] += 2 * tm.n * tm.n * horizon


def _count_decision(counts, result, *args, **kwargs):
    # a decision records one raw deviation per (node, hop) pair it tested
    counts["infer.pair_decisions"] += len(result.raw_deviations)


def _count_constrained(counts, result, problem, *args, **kwargs):
    # rows with any non-free entry go through the active-set solver
    constrained = {i for (i, _), kind in problem.constraints.items() if kind.value != "free"}
    positive = {i for (i, _), kind in problem.constraints.items() if kind.value == "pos"}
    counts["estimate.rows_constrained"] += len(constrained)
    counts["estimate.rows_positive"] += len(positive)


# Counts taken from each call's arguments at the layer boundary.
COUNTERS = {
    "dynamics.simulate": _count_simulate,
    "infer.infer_one_hop": _count_decision,
    "infer.infer_within_hops": _count_decision,
    "infer.infer_multi_excitation": _count_decision,
    "estimate.constrained_estimate": _count_constrained,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, result, *args, **kwargs)
            return result

        return traced

    def profile(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per span name.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on this single thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return dict(self_s), calls


@contextmanager
def installed(tracer: Tracer):
    """Bind traced wrappers over netprobe's public functions; restore on exit.

    Raises if a layer module ends up with no wrapped public function, which
    would silently fold its time into its caller's layer.
    """
    package = importlib.import_module("netprobe")
    modules = {layer: importlib.import_module(f"netprobe.{layer}") for layer in LAYERS}
    wrappers = {}
    wrapped_layers = set()
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
                wrapped_layers.add(layer)
    missing = [layer for layer in LAYERS if layer not in wrapped_layers]
    if missing:
        raise RuntimeError(f"no public function wrapped in layer(s) {', '.join(missing)}")

    patches = []
    for namespace in (vars(package), *(vars(m) for m in modules.values())):
        holders = [namespace] + [
            v for k, v in namespace.items() if not k.startswith("__") and isinstance(v, dict)
        ]
        for holder in holders:
            for key, obj in list(holder.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((holder, key, obj))
                    holder[key] = wrappers[obj]
    try:
        yield
    finally:
        for holder, key, obj in reversed(patches):
            holder[key] = obj
