"""In-memory spans recorded from the benchmark's side of each layer call.

A span is ``(id, name, start, end, parent, item)``: ``item`` is the
circuit index (sweeps) or the service's ``Job.seq``.  Spans stay in
memory while the benchmark runs and are written as JSON lines at the
end.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.

:func:`compile_probes` wraps the compiler's entry points at the names
their callers look them up by, so the same spans appear whether a
circuit is mapped by the suite runner's payload or by the service's
inline compute path.  The wrappers only time the calls; arguments and
results pass through untouched.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

now = time.perf_counter


class Tracer:
    """Thread-safe span list with a per-thread stack for parent links."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def current(self) -> Optional[dict]:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        item: Optional[int] = None,
    ) -> int:
        with self._lock:
            ident = next(self._ids)
            self.spans.append(
                {
                    "id": ident,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "item": item,
                }
            )
        return ident

    @contextmanager
    def span(self, name: str, item: Optional[int] = None) -> Iterator[dict]:
        """Time a block; the enclosing span on this thread is its parent."""
        parent = self.current()
        frame = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "item": item if item is not None else (parent or {}).get("item"),
            "calls": 0,
        }
        stack = self._stack()
        stack.append(frame)
        start = now()
        try:
            yield frame
        finally:
            end = now()
            stack.pop()
            with self._lock:
                self.spans.append(
                    {
                        "id": frame["id"],
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": frame["parent"],
                        "item": frame["item"],
                    }
                )

    def extend(self, spans: Sequence[dict], item: int) -> None:
        """Adopt spans recorded by another tracer (a worker process),
        giving them fresh ids and the circuit index as their item."""
        with self._lock:
            renumber = {span["id"]: next(self._ids) for span in spans}
            for span in spans:
                self.spans.append(
                    dict(
                        span,
                        id=renumber[span["id"]],
                        parent=renumber.get(span["parent"]),
                        item=item,
                    )
                )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ordered = sorted(self.spans, key=lambda s: (s["start"], s["id"]))
        with path.open("w", encoding="utf-8") as handle:
            for span in ordered:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(intervals: List[tuple], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for left, right in sorted(intervals):
        left, right = max(left, cursor), min(right, end)
        if right > left:
            total += right - left
            cursor = right
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of every span, by span id."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def self_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def coverage(spans: Sequence[dict], root: str) -> float:
    """Share of the ``root`` spans' time that child layer spans cover."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == root]
    total = sum(s["end"] - s["start"] for s in roots)
    if total <= 0:
        return 0.0
    return 1.0 - sum(own[s["id"]] for s in roots) / total


# -- wrapping the program's entry points ----------------------------------
@contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``owner.attr`` by ``make(original)`` until the block ends."""
    own = vars(owner).get(attr)
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield original
    finally:
        if own is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


def timed(tracer: Tracer, name: str, skip_nested: bool = False):
    """Wrapper factory: run the call inside a span called ``name``."""

    def make(original):
        def wrapper(*args, **kwargs):
            top = tracer.current()
            if skip_nested and top is not None and top["name"] == name:
                return original(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


def _decompose_or_lower(tracer: Tracer):
    """``QuantumMapper.map`` calls ``decompose_circuit`` twice: first to
    decompose the input, then to lower the routed SWAPs."""

    def make(original):
        def wrapper(*args, **kwargs):
            top = tracer.current()
            name = "compiler.decompose"
            if top is not None and top["name"] == "compiler.map":
                top["calls"] += 1
                if top["calls"] > 1:
                    name = "compiler.lower"
            with tracer.span(name):
                out = original(*args, **kwargs)
            if name == "compiler.lower":
                tracer.count("gates_out", out.num_gates)
            return out

        return wrapper

    return make


def _routing(tracer: Tracer):
    def make(original):
        def wrapper(*args, **kwargs):
            with tracer.span("compiler.routing"):
                out = original(*args, **kwargs)
            tracer.count("swaps", out.swap_count)
            return out

        return wrapper

    return make


#: Compiler layers whose self time a traced run reports.
COMPILE_LAYERS = (
    "compiler.decompose",
    "compiler.placement",
    "compiler.routing",
    "compiler.lower",
    "core.metrics",
    "metrics.overhead",
    "metrics.fidelity",
    "compile.encode",
)


def compile_summary(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self seconds, counts and the median ``compile`` span."""
    own = self_by_name(tracer.spans)
    summary = {f"{layer}.self_s": own.get(layer, 0.0) for layer in COMPILE_LAYERS}
    summary["compiler.routing.swaps"] = tracer.counts.get("swaps", 0)
    summary["compiler.lower.gates_out"] = tracer.counts.get("gates_out", 0)
    durations = sorted(
        1e3 * (s["end"] - s["start"]) for s in tracer.spans if s["name"] == "compile"
    )
    summary["compile.p50_ms"] = durations[(len(durations) - 1) // 2] if durations else 0.0
    return summary


@contextmanager
def compile_probes(tracer: Tracer, root: Optional[tuple] = None):
    """Time every compiler layer a mapping passes through.

    ``root`` optionally names one more ``(owner, attr)`` entry point to
    time as the ``compile`` span (the service's ``compute_payload``).
    """
    import repro.compiler.mapper as mapper_mod
    import repro.core.metrics as core_metrics
    import repro.experiments.common as experiments_common
    import repro.service.workers as service_workers
    from repro.compiler.placement import GraphSimilarityPlacement, TrivialPlacement
    from repro.compiler.routing import Router

    probes = [
        (mapper_mod.QuantumMapper, "map", timed(tracer, "compiler.map")),
        (mapper_mod, "decompose_circuit", _decompose_or_lower(tracer)),
        (TrivialPlacement, "place", timed(tracer, "compiler.placement", True)),
        (GraphSimilarityPlacement, "place", timed(tracer, "compiler.placement", True)),
        (Router, "route", _routing(tracer)),
        (mapper_mod, "overhead_report", timed(tracer, "metrics.overhead")),
        (mapper_mod, "fidelity_report", timed(tracer, "metrics.fidelity")),
        (experiments_common, "circuit_graph_metrics", timed(tracer, "core.metrics")),
        (core_metrics, "circuit_graph_metrics", timed(tracer, "core.metrics")),
        (service_workers, "build_payload", timed(tracer, "compile.encode")),
    ]
    if root is not None:
        probes.append((root[0], root[1], timed(tracer, "compile")))
    with ExitStack() as stack:
        for owner, attr, make in probes:
            stack.enter_context(patched(owner, attr, make))
        yield tracer
