"""Metrics registry: counters, gauges and fixed-bucket histograms.

Metrics are named, labelled time-series aggregates — ``swaps_inserted``
by router, ``oracle_trials`` as a histogram.  A :class:`MetricsRegistry`
holds one family per metric name and one series per distinct label set;
registries snapshot to plain dicts (JSON-ready, picklable across worker
processes) and merge snapshots back, which is how per-worker metrics
flow into the parent's registry.

Like tracing, the module-level helpers (:func:`counter`, :func:`gauge`,
:func:`histogram`) are gated on the telemetry switch and hand out one
shared no-op object while telemetry is disabled, so instrumented code
needs no ``if`` of its own.  Code that wants an always-on private
registry can instantiate :class:`MetricsRegistry` directly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import tracing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "BYTE_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    "capture_registry",
]

#: Default histogram upper bounds; a final +inf bucket is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Byte-size buckets (256 B … 16 MiB) for payload/wire histograms such
#: as ``payload_bytes``; a final +inf bucket is implicit.
BYTE_BUCKETS: Tuple[float, ...] = (
    256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def state(self) -> dict:
        return {"value": self.value}

    def merge_state(self, state: dict) -> None:
        self.value += state["value"]


class Gauge:
    """Last-written instantaneous value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def state(self) -> dict:
        return {"value": self.value}

    def merge_state(self, state: dict) -> None:
        # Gauges are instantaneous; on merge the incoming sample wins.
        self.value = state["value"]


class Histogram:
    """Fixed-bucket histogram (cumulative on export, like Prometheus)."""

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        # counts[i] tallies observations <= buckets[i]; the last slot is
        # the +inf overflow bucket.
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def state(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    def merge_state(self, state: dict) -> None:
        if list(state["buckets"]) != list(self.buckets):
            raise ValueError("cannot merge histograms with different buckets")
        for index, count in enumerate(state["counts"]):
            self.counts[index] += count
        self.sum += state["sum"]
        self.count += state["count"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe collection of labelled metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, {label_key: metric}); label values are
        # stringified so snapshots round-trip through JSON unchanged.
        self._families: Dict[str, Tuple[str, Dict[LabelKey, Any]]] = {}

    def _series(self, name: str, kind: str, factory, labels: Dict[str, Any]):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, {})
                self._families[name] = family
            if family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}"
                )
            metric = family[1].get(key)
            if metric is None:
                metric = family[1][key] = factory()
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._series(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._series(name, "gauge", Gauge, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._series(
            name, "histogram", lambda: Histogram(buckets), labels
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready, picklable view of every family and series."""
        with self._lock:
            out: Dict[str, dict] = {}
            for name, (kind, series) in sorted(self._families.items()):
                out[name] = {
                    "kind": kind,
                    "series": [
                        {"labels": dict(key), **metric.state()}
                        for key, metric in sorted(series.items())
                    ],
                }
            return out

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms accumulate; gauges take the incoming
        value.  This is the parent-side half of worker fan-out.
        """
        for name, family in snapshot.items():
            kind = family["kind"]
            factory = _KINDS[kind]
            for entry in family["series"]:
                labels = entry["labels"]
                if kind == "histogram":
                    metric = self.histogram(
                        name, buckets=entry["buckets"], **labels
                    )
                else:
                    metric = self._series(name, kind, factory, labels)
                state = {k: v for k, v in entry.items() if k != "labels"}
                metric.merge_state(state)

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)


class _NoopMetric:
    """Shared sink handed out while telemetry is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP_METRIC = _NoopMetric()
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the gated helpers write to."""
    return _REGISTRY


def counter(name: str, **labels: Any):
    if not tracing.is_enabled():
        return _NOOP_METRIC
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any):
    if not tracing.is_enabled():
        return _NOOP_METRIC
    return _REGISTRY.gauge(name, **labels)


def histogram(
    name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: Any
):
    if not tracing.is_enabled():
        return _NOOP_METRIC
    return _REGISTRY.histogram(name, buckets=buckets, **labels)


@contextmanager
def capture_registry() -> Iterator[MetricsRegistry]:
    """Swap in a fresh default registry for the duration of a block.

    Pairs with :func:`repro.telemetry.tracing.capture`: worker processes
    collect their metrics into a private registry whose snapshot travels
    back to the parent with the span batch.
    """
    global _REGISTRY
    saved = _REGISTRY
    fresh = MetricsRegistry()
    _REGISTRY = fresh
    try:
        yield fresh
    finally:
        _REGISTRY = saved
