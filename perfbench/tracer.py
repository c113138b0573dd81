"""Layer tracing from outside the package.

The tracer wraps public functions of the package's modules while a traced
operation runs and restores them afterwards.  Span wrappers record
(operation, name, start, end, parent span) in memory; count wrappers
only bump a counter.  A function is rebound under every name that holds
it, in every loaded ``superloewner`` module, because modules such as
``matrixrep`` and ``evolution`` import ``act_mode`` and ``sugawara`` by
name; patching only ``affine.act_mode`` would miss their calls.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter

# (module, attribute path) of every function timed as a span.
SPANS = (
    ("harness", "martingale_test"),
    ("harness", "simulate"),
    ("harness", "batch_observables"),
    ("harness", "BlockDrivers.step"),
    ("evolution", "flow_step"),
    ("evolution", "aut_to_virasoro"),
    ("evolution", "assemble_state_vector"),
    ("matrixrep", "MatrixModule.__init__"),
    ("matrixrep", "BatchAssembler.__init__"),
    ("matrixrep", "BatchAssembler.assemble"),
    ("matrixrep", "MatrixModule.word_row"),
    ("observables", "observable_current"),
    ("observables", "current_via_module"),
    ("generator", "state_drift"),
)
# (module, attribute path, counter name) of every function only counted.
# Calls of the series kernels are also attributed to the innermost open
# span, which gives calls per flow_step.
COUNTS = (
    ("series", "series_mul", "series.series_mul"),
    ("series", "series_exp", "series.series_exp"),
    ("affine", "act_mode", "affine.act_mode"),
    ("affine", "sugawara", "affine.sugawara"),
    ("affine", "Module.__init__", "affine.Module"),
    ("scalars", "Cyclo8.__mul__", "scalars.Cyclo8.mul"),
    ("scalars", "Cyclo8.__add__", "scalars.Cyclo8.add"),
)
ATTRIBUTED = {"series.series_mul", "series.series_exp"}

PACKAGE = "superloewner"


def _resolve(module: str, path: str):
    """(namespace that owns the attribute, the function)."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, vars(owner)[attr]


class Tracer:
    def __init__(self):
        self.spans = []        # [op, name, start, end, parent index]
        self.counts = {}       # op -> Counter
        self.gauges = {}       # op -> {name: value}
        self._stack = []
        self._patches = []
        self._op = None
        self._counter = None

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self._op, name, clock(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if after is not None:
                after(args)
            return result

        return wrapper

    def _count(self, name, fn):
        spans, stack = self.spans, self._stack
        attributed = name in ATTRIBUTED

        def wrapper(*args, **kwargs):
            counter = self._counter
            counter[name] += 1
            if attributed and stack:
                counter[(spans[stack[-1]][1], name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gauge_dim(self, args):
        self.gauges[self._op]["matrixrep.MatrixModule.dim"] = args[0].dim

    def _gauge_nnz(self, args):
        asm = args[0]
        mats = list(asm.vir) + [m for ms in asm.modes.values() for m in ms]
        self.gauges[self._op]["matrixrep.operator_nnz"] = sum(
            m.nnz for m in mats)

    # -- install / restore ----------------------------------------------
    def _namespaces(self):
        return [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _rebind(self, owner, fn, wrapper):
        spaces = [owner] if isinstance(owner, type) else self._namespaces()
        for space in spaces:
            for key, val in list(vars(space).items()):
                if val is fn:
                    self._patches.append((space, key, fn))
                    setattr(space, key, wrapper)

    def start(self, op: int) -> None:
        """Install every wrapper; calls are charged to operation op."""
        self._op = op
        self._counter = self.counts.setdefault(op, Counter())
        self.gauges.setdefault(op, {})
        after = {"MatrixModule.__init__": self._gauge_dim,
                 "BatchAssembler.__init__": self._gauge_nnz}
        for module, path in SPANS:
            owner, fn = _resolve(module, path)
            self._rebind(owner, fn, self._span(f"{module}.{path}", fn,
                                               after.get(path)))
        for module, path, name in COUNTS:
            owner, fn = _resolve(module, path)
            self._rebind(owner, fn, self._count(name, fn))

    def stop(self) -> None:
        """Restore every original binding."""
        for space, key, fn in reversed(self._patches):
            setattr(space, key, fn)
        self._patches.clear()
        self._op = None

    # -- per-layer metrics -----------------------------------------------
    def _per_op(self, op):
        busy, self_time, calls = Counter(), Counter(), Counter()
        child = Counter()
        for name_op, name, start, end, parent in self.spans:
            if name_op == op and parent is not None:
                child[parent] += end - start
        for index, (name_op, name, start, end, parent) in enumerate(
                self.spans):
            if name_op != op:
                continue
            busy[name] += end - start
            self_time[name] += end - start - child[index]
            calls[name] += 1
        return busy, self_time, calls

    def layer_metrics(self, ops, overhead_s: float) -> dict:
        """Per-layer metrics: times are seconds per operation averaged
        over the traced operations; counts and gauges come from the first
        traced operation, so they repeat exactly for a given seed."""
        per_op = [self._per_op(op) for op in ops]

        def mean(fn):
            return statistics.fmean(fn(*p) for p in per_op)

        def per_call(name, scale):
            def one(busy, _self, calls):
                return scale * busy[name] / calls[name] if calls[name] else 0.0
            return mean(one)

        first = ops[0]
        counts, gauges = self.counts[first], self.gauges[first]
        steps = per_op[0][2]["evolution.flow_step"]

        def per_step(name):
            return counts[("evolution.flow_step", name)] / steps \
                if steps else 0.0

        m = {
            "evolution.flow_step.per_call_ms":
                per_call("evolution.flow_step", 1e3),
            "evolution.flow_step.busy_s":
                mean(lambda b, s, c: b["evolution.flow_step"]),
            "series.series_mul.calls_per_step": per_step("series.series_mul"),
            "series.series_exp.calls_per_step": per_step("series.series_exp"),
            "harness.BlockDrivers.step.busy_s":
                mean(lambda b, s, c: b["harness.BlockDrivers.step"]),
            "harness.simulate.self_s":
                mean(lambda b, s, c: s["harness.simulate"]),
            "matrixrep.MatrixModule.build_s":
                mean(lambda b, s, c: b["matrixrep.MatrixModule.__init__"]
                     + b["matrixrep.BatchAssembler.__init__"]),
            "matrixrep.MatrixModule.dim":
                gauges.get("matrixrep.MatrixModule.dim", 0),
            "matrixrep.operator_nnz": gauges.get("matrixrep.operator_nnz", 0),
        }
        for name in ("matrixrep.BatchAssembler.assemble",
                     "matrixrep.MatrixModule.word_row",
                     "evolution.aut_to_virasoro",
                     "observables.observable_current",
                     "evolution.assemble_state_vector",
                     "observables.current_via_module"):
            m[f"{name}.busy_s"] = mean(lambda b, s, c, n=name: b[n])
        m.update({
            "affine.act_mode.calls": counts["affine.act_mode"],
            "affine.sugawara.calls": counts["affine.sugawara"],
            "affine.Module.constructions": counts["affine.Module"],
            "scalars.Cyclo8.mul_calls": counts["scalars.Cyclo8.mul"],
            "scalars.Cyclo8.add_calls": counts["scalars.Cyclo8.add"],
            "generator.state_drift.per_call_s":
                per_call("generator.state_drift", 1.0),
            "harness.martingale_test.self_s":
                mean(lambda b, s, c: s["harness.martingale_test"]),
            "trace.overhead_s": overhead_s,
        })
        return m

    def dump(self) -> dict:
        return {
            "spans": [{"op": op, "name": name, "start": start, "end": end,
                       "parent": parent}
                      for op, name, start, end, parent in self.spans],
            "counts": {str(op): {" / ".join(k) if isinstance(k, tuple) else k:
                                 v for k, v in c.items()}
                       for op, c in self.counts.items()},
            "gauges": {str(op): g for op, g in self.gauges.items()},
        }
