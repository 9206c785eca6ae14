"""Spans around calls into the package, recorded from outside the package.

The benchmark changes nothing under ``src/``.  Instead, :func:`patched`
replaces each timed public function with a recording wrapper in *every*
``rkhsball`` module namespace that holds it, because the selection and
experiment modules import ``eigen_gram``, ``gram`` and friends by name.  A
wrapper installed only in the defining module would miss those calls.

A span records its name, start, end, parent span and op id, plus counts of
the work done, taken at the boundary from the arguments and the result.
Spans are kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from types import FunctionType

# Package modules and the public functions timed in each.  ``theory`` is not
# traced (closed-form evaluators on no hot path) and neither is ``cli`` (CSV
# and JSON I/O only).
TRACED = {
    "kernels": ("gram", "cross_gram"),
    "estimator": ("eigen_gram", "mu_of_r", "fit_constrained"),
    "selection_fixed": ("gl_criterion", "select_radius"),
    "selection_gauss": ("gauss_gl_criterion", "select_width_radius"),
    "experiments": ("generate", "majorant_event_check", "bias_event_check",
                    "gauss_majorant_event_check", "oracle_gap_check"),
}

OP_SPAN = "op"


def _gauss_pairs(args, kwargs, result):
    # Cell (i, j) of a W x J table is compared with (i+1) * (J-j) cells.
    fits = args[0]
    w, j = len(fits), len(fits[0])
    return {"pairs": w * (w + 1) // 2 * (j * (j + 1) // 2)}


def _fixed_pairs(args, kwargs, result):
    i = len(args[0])
    return {"pairs": i * (i + 1) // 2}


def _eigen_work(args, kwargs, result):
    n = len(args[0])
    # n_cubed comes from the argument shape: a work proxy, not a measurement.
    return {"n": result.n, "rank": result.rank, "n_cubed": n**3}


# Work counted at each boundary, keyed by "module.function".
WORK = {
    "kernels.gram": lambda a, k, r: {"entries": r.size},
    "kernels.cross_gram": lambda a, k, r: {"entries": r.size},
    "estimator.eigen_gram": _eigen_work,
    "estimator.mu_of_r": lambda a, k, r: {"active": int(r > 0.0)},
    "selection_fixed.gl_criterion": _fixed_pairs,
    "selection_gauss.gauss_gl_criterion": _gauss_pairs,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.work}


class Tracer:
    """Collects spans for the ops run inside :meth:`op`.

    Calls made outside an op (input generation, warm-up) are passed through
    unrecorded.  Each thread keeps its own span stack; a span opened on a pool
    thread with an empty stack takes as parent the innermost open span of the
    thread running the op, so a check's replicates nest under the check.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, index: int):
        stack = self._stack()
        sid = next(self._ids)
        self._op, self._op_stack = index, stack
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._op = None
            self.spans.append(Span(sid, OP_SPAN, start, end, None, index))

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._op_stack[-1]
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            done = {}
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    done = work(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, op, done))

        traced.__wrapped__ = fn
        return traced


def traced_functions() -> dict:
    """Map "module.function" to the package's current function object."""
    out = {}
    for mod, names in TRACED.items():
        module = importlib.import_module(f"rkhsball.{mod}")
        for name in names:
            out[f"{mod}.{name}"] = getattr(module, name)
    return out


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers in every rkhsball namespace; restore on exit."""
    wrappers = {fn: tracer.wrap(qname, fn, WORK.get(qname))
                for qname, fn in traced_functions().items()}
    slots = []
    for modname, module in list(sys.modules.items()):
        if modname != "rkhsball" and not modname.startswith("rkhsball."):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, FunctionType) and value in wrappers:
                slots.append((module, attr, value))
    try:
        for module, attr, value in slots:
            setattr(module, attr, wrappers[value])
        yield
    finally:
        for module, attr, value in slots:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children on pool threads may overlap one another; the covered part is the
    union of their intervals, so a parent's self time never goes negative.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.seconds - covered
    return out


def layer_table(spans: list[Span]) -> dict:
    """Per-op means of calls, busy time, self time and work for each layer.

    ``busy_s`` sums span durations, so calls running on two pool threads at
    once count twice.  ``share`` is a layer's self time over the summed self
    time of all rows, which equals the op wall time when the op runs on one
    thread.  The row ``op`` holds the op wall time and, as ``self_s``, the
    time no wrapped call covers.
    """
    selfs = self_times(spans)
    n_ops = sum(1 for s in spans if s.name == OP_SPAN)
    rows = {q: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for q in traced_names()}
    rows[OP_SPAN] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    for s in spans:
        row = rows[s.name]
        row["calls"] += 1
        row["busy_s"] += s.seconds
        row["self_s"] += selfs[s.id]
        for key, value in s.work.items():
            row[key] = row.get(key, 0) + value
    busy = sum(row["self_s"] for row in rows.values())
    for row in rows.values():
        row["share"] = row["self_s"] / busy if busy > 0 else 0.0
    eig = rows["estimator.eigen_gram"]
    eig["rank_fraction"] = eig.pop("rank", 0) / eig.pop("n") if eig.get("n") else 0.0
    mu = rows["estimator.mu_of_r"]
    mu["active_fraction"] = mu.pop("active", 0) / mu["calls"] if mu["calls"] else 0.0
    if n_ops:
        for row in rows.values():
            for key in ("calls", "busy_s", "self_s", "entries", "pairs", "n_cubed"):
                if key in row:
                    row[key] /= n_ops
    return rows


def traced_names() -> list[str]:
    return [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]
