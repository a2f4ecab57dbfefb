"""Span recorder that times glsn's layers from outside the program.

`Tracer` replaces every public function of the traced glsn modules with a
wrapper that records a span (name, start, end, parent span) and, for a few
functions, counters read from the return value. Every binding of such a
function in any loaded ``glsn.*`` module is replaced, because modules import
names directly (``cli`` calls ``build_index_table`` through its own global).
Spans stay in memory; `uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
import types

TRACED_MODULES = (
    "glsn.cli",
    "glsn.ingest",
    "glsn.graph",
    "glsn.indices",
    "glsn.econometrics",
    "glsn.gravity",
    "glsn.fixture",
)


# Counters read from return values. Data properties (routes, nodes, edges)
# keep the value of the last call in an operation; the others add up.
RESULT_COUNTERS = {
    "ingest.validate_dataset": lambda r: {
        "ingest.routes_kept": len(r.retained),
        "ingest.routes_dropped": r.drop_count,
    },
    "graph.build_glsn": lambda g: {"graph.nodes": g.node_count, "graph.edges": g.edge_count},
    "econometrics.select_model": lambda sel: {
        "econometrics.subsets": len(sel.table),
        "econometrics.admissible": sum(r.admissible for r in sel.table),
    },
    "gravity.assemble_pairs": lambda a: {
        "gravity.pairs_fitted": len(a.samples),
        "gravity.pairs_excluded": sum(a.excluded.values()),
    },
}
LAST_VALUE = {"ingest.routes_kept", "ingest.routes_dropped", "graph.nodes", "graph.edges"}


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    """Public functions defined in `module` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Spans are parallel lists indexed by span id; parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[dict[str, int] | None] = []  # counters per span
        self._stack: list[int] = []  # open spans; glsn runs single-threaded here
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(float("nan"))
            counts.append(None)
            stack.append(span)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counts[span] = counter(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for modname in TRACED_MODULES:
            module = sys.modules[modname]
            layer = modname.split(".", 1)[1]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "glsn" and not modname.startswith("glsn."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def mark(self) -> int:
        """Span id the next span will get; brackets the spans of one operation."""
        return len(self.names)

    def summary(self, lo: int = 0) -> "SpanSummary":
        """Totals over the spans recorded since `mark()` returned `lo`."""
        return SpanSummary(self, lo, len(self.names))


class SpanSummary:
    """Per-name totals over the spans with ids in [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        durations = [tracer.ends[i] - tracer.starts[i] for i in range(lo, hi)]
        in_children = [0.0] * (hi - lo)  # time covered by child spans, which never overlap
        for span in range(lo, hi):
            parent = tracer.parents[span]
            if parent >= lo:
                in_children[parent - lo] += durations[span - lo]
        for span in range(lo, hi):
            name = tracer.names[span]
            dur = durations[span - lo]
            self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - in_children[span - lo]
            self.calls[name] = self.calls.get(name, 0) + 1
            for k, v in (tracer.counts[span] or {}).items():
                self.counters[k] = v if k in LAST_VALUE else self.counters.get(k, 0) + v
        self._tracer, self._lo, self._hi = tracer, lo, hi

    def under(self, ancestor: str, name: str) -> float:
        """Inclusive time of `name` spans that descend from an `ancestor` span."""
        t = self._tracer
        total = 0.0
        for span in range(self._lo, self._hi):
            if t.names[span] != name:
                continue
            p = t.parents[span]
            while p >= self._lo and t.names[p] != ancestor:
                p = t.parents[p]
            if p >= self._lo:
                total += t.ends[span] - t.starts[span]
        return total
