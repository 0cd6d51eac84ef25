"""Observability layer: tracing, metrics and profiling for the stack.

``repro.telemetry`` is the substrate every performance claim in this
repository reports through.  It is a zero-dependency subsystem with
three pieces:

* :mod:`~repro.telemetry.tracing` — nested spans over the monotonic
  clock (:mod:`~repro.telemetry.clock`), a ``span(...)`` context
  manager plus a ``@traced`` decorator, all compiled to shared no-ops
  while telemetry is disabled (the default), so instrumented hot paths
  stay at baseline speed.
* :mod:`~repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms with labelled series, snapshotting and cross-process
  merging.
* :mod:`~repro.telemetry.export` / :mod:`~repro.telemetry.merge` —
  JSONL event logs, Chrome (``chrome://tracing``) traces, Prometheus
  text exposition, and the deterministic merge of per-worker shards.

Typical use::

    from repro import telemetry

    with telemetry.session(export_dir="results/telemetry") as tele:
        result = sabre_mapper().map(circuit, device)
    # tele.paths: events.jsonl / trace.json / metrics.prom

Instrumentation sites call ``telemetry.span(...)`` and
``telemetry.counter(...).inc()`` unconditionally; both are free when
telemetry is off.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from . import clock, export, merge, metrics, tracing
from .clock import CLOCK_SOURCE
from .export import export_all
from .metrics import (
    MetricsRegistry,
    capture_registry,
    counter,
    gauge,
    get_registry,
    histogram,
)
from .tracing import (
    SpanRecord,
    configure,
    get_export_dir,
    ingest,
    is_enabled,
    reset,
    span,
    traced,
)

__all__ = [
    "CLOCK_SOURCE",
    "MetricsRegistry",
    "SpanRecord",
    "CapturedTelemetry",
    "TelemetrySession",
    "capture",
    "capture_registry",
    "clock",
    "configure",
    "counter",
    "export",
    "export_all",
    "gauge",
    "get_export_dir",
    "get_registry",
    "histogram",
    "ingest",
    "is_enabled",
    "merge",
    "metrics",
    "reset",
    "session",
    "span",
    "traced",
    "tracing",
]


class CapturedTelemetry:
    """Spans + metrics collected by one :func:`capture` block."""

    def __init__(self, spans: List[SpanRecord], registry: MetricsRegistry):
        self.spans = spans
        self.registry = registry

    def metrics_snapshot(self) -> dict:
        return self.registry.snapshot()


@contextmanager
def capture(enabled: bool = True) -> Iterator[CapturedTelemetry]:
    """Collect spans *and* metrics of a block into isolated stores.

    The yielded :class:`CapturedTelemetry` exposes ``spans`` (filled on
    exit) and the private ``registry``.  Surrounding telemetry state is
    untouched — this is what worker processes and tests use.
    """
    with ExitStack() as stack:
        spans = stack.enter_context(tracing.capture(enabled))
        registry = stack.enter_context(capture_registry())
        yield CapturedTelemetry(spans, registry)


class TelemetrySession(CapturedTelemetry):
    """Result handle of :func:`session`; adds the exported paths."""

    def __init__(self, spans, registry, export_dir: Optional[Path]):
        super().__init__(spans, registry)
        self.export_dir = export_dir
        self.paths: Dict[str, Path] = {}


@contextmanager
def session(
    export_dir: Optional[Union[str, Path]] = None,
    enabled: bool = True,
) -> Iterator[TelemetrySession]:
    """Enable telemetry for a block and export everything at the end.

    A :func:`capture` that additionally publishes the export directory
    to instrumentation (the suite runner writes its per-worker shards
    under it) and, on exit, writes the JSONL/Chrome/Prometheus outputs
    there.  The session object keeps the spans, the registry and the
    written ``paths`` for inspection after the block.
    """
    directory = Path(export_dir) if export_dir is not None else None
    handle: TelemetrySession
    with tracing.capture(enabled) as spans, capture_registry() as registry:
        tracing.configure(export_dir=directory)
        handle = TelemetrySession(spans, registry, directory)
        try:
            yield handle
        finally:
            tracing.configure(export_dir=None)
    if directory is not None and enabled:
        handle.paths = export_all(directory, handle.spans, handle.registry)
