"""Span recorder that wraps reasm's cross-module calls from outside.

Every public function one reasm module imports from another is replaced,
in the importing module's namespace only, by a wrapper that records a span:
name (``<defining module>.<function>``), start, end, parent span and
operation id.  Calls inside one module keep their direct references and
get no span.  The graph module's bit helpers are left alone: they run once
per DP state, so a span each would cost more than the work they measure.

Spans live in flat arrays until the run ends; ``summarize`` turns them into
per-layer metrics and ``write`` dumps them as a gzipped TSV.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

BIT_HELPERS = frozenset({"graph.popcount", "graph.iter_bits", "graph.mask_of",
                         "graph.vertices_of"})

# layers whose time inside reduce_beta is not reduce_beta's own work
REDUCE_CHILD_LAYERS = ("solvers", "layout", "tree")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanRecorder:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.states: dict = {}  # span index -> stats["states"] of its result
        self._stack = [-1]
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            stats = getattr(result, "stats", None)
            if isinstance(stats, dict) and "states" in stats:
                self.states[idx] = stats["states"]
            return result

        return span

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write(self, path, origin: float) -> None:
        """Spans as TSV rows: name, start and end in seconds after `origin`,
        parent index (-1 for none) and operation id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self)):
                fh.write(f"{self.span_name(i)}\t{self.start[i] - origin:.9f}\t"
                         f"{self.end[i] - origin:.9f}\t{self.parent[i]}\t{self.op[i]}\n")


def cross_module_functions(modules) -> list:
    """(module, attribute, function, span name) for every public function a
    package module imports from a sibling, bit helpers excepted."""
    out = []
    for mod in sorted(modules, key=lambda m: m.__name__):
        package = mod.__name__.rpartition(".")[0]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__
            if home == mod.__name__ or home.rpartition(".")[0] != package:
                continue
            name = f"{home.rpartition('.')[2]}.{obj.__name__}"
            if name not in BIT_HELPERS:
                out.append((mod, attr, obj, name))
    return out


@contextmanager
def installed(recorder: SpanRecorder, modules):
    """Patch the wrappers in for the duration of the block."""
    patched = []
    try:
        for mod, attr, fn, name in cross_module_functions(modules):
            setattr(mod, attr, recorder.wrap(name, fn))
            patched.append((mod, attr, fn))
        yield
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


def summarize(rec: SpanRecorder) -> dict:
    """Totals over all spans.

    Returns seconds, calls and states per span name, self seconds per
    layer, and the reduction figures: reduce_beta time net of its solver,
    layout and tree children, solver time under reduce_*, and the number
    of inner solves (one per anchor) under reduce_beta."""
    n = len(rec)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    names = [rec.span_name(i) for i in range(n)]
    child = [0.0] * n
    reduce_beta_children = 0.0
    reduce_solvers = 0.0
    anchors = 0
    for i in range(n):
        p = rec.parent[i]
        if p < 0:
            continue
        child[p] += dur[i]
        pname = names[p]
        layer = layer_of(names[i])
        if pname == "reduction.reduce_beta":
            if layer in REDUCE_CHILD_LAYERS:
                reduce_beta_children += dur[i]
            if layer == "solvers":
                anchors += 1
        if pname.startswith("reduction.reduce_") and layer == "solvers":
            reduce_solvers += dur[i]
    seconds: dict = {}
    calls: dict = {}
    states: dict = {}
    self_s: dict = {}
    for i in range(n):
        name = names[i]
        seconds[name] = seconds.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        if i in rec.states:
            states[name] = states.get(name, 0) + rec.states[i]
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
    reduce_s = sum(s for k, s in seconds.items() if k.startswith("reduction.reduce_"))
    return {
        "seconds": seconds, "calls": calls, "states": states, "self_s": self_s,
        "reduce_beta_self_s": seconds.get("reduction.reduce_beta", 0.0) - reduce_beta_children,
        "inner_solve_share": reduce_solvers / reduce_s if reduce_s else 0.0,
        "anchors": anchors,
        "op_seconds": _per_op(rec, dur, "verify.run_suites"),
    }


def _per_op(rec: SpanRecorder, dur: list, name: str) -> dict:
    out: dict = {}
    for i in range(len(rec)):
        if rec.span_name(i) == name:
            out[rec.op[i]] = out.get(rec.op[i], 0.0) + dur[i]
    return out
