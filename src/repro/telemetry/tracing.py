"""Zero-dependency tracing core: nested spans over a monotonic clock.

The tracer is **off by default** and compiled down to no-ops when
disabled: :func:`span` returns one shared, stateless context manager and
:func:`traced` wrappers fall straight through to the wrapped function,
so instrumented hot paths (the SABRE swap loop, the batched oracle) stay
at baseline speed.  When enabled, spans record a name, monotonic
start/end timestamps, free-form attributes and their position in the
nesting tree into a thread-safe in-memory buffer.

Key entry points
----------------
* ``with span("route.sabre", qubits=n) as sp: ...`` — one nested span;
  ``sp.set(key, value)`` attaches attributes mid-flight.
* ``@traced("stage.name")`` — span-per-call decorator.
* :func:`configure` / :func:`is_enabled` — the global switch plus the
  optional export directory.
* :func:`capture` — run a block against a *fresh, isolated* buffer (used
  by worker processes so their spans do not mix with the parent's).
* :func:`ingest` — replay serialised span batches (e.g. returned from a
  worker) into the local buffer, deterministically re-assigning span ids
  while preserving the parent/child structure.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from .clock import now

__all__ = [
    "SpanRecord",
    "Span",
    "span",
    "traced",
    "configure",
    "is_enabled",
    "get_export_dir",
    "reset",
    "capture",
    "ingest",
]


@dataclass
class SpanRecord:
    """One finished span: what ran, when, under which parent.

    ``span_id``/``parent_id`` are buffer-local integers (root spans have
    ``parent_id=None``); ``process_id``/``thread_id`` identify where the
    span executed, which the Chrome trace exporter uses for its lanes.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    process_id: int = 0
    thread_id: int = 0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "process_id": self.process_id,
            "thread_id": self.thread_id,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start_s=payload["start_s"],
            end_s=payload["end_s"],
            attributes=dict(payload.get("attributes") or {}),
            process_id=payload.get("process_id", 0),
            thread_id=payload.get("thread_id", 0),
        )


class _TracerState:
    """Module-global tracer: switch, buffer, id counter, span stacks."""

    def __init__(self) -> None:
        self.enabled = False
        self.export_dir: Optional[Path] = None
        self.lock = threading.Lock()
        self.records: List[SpanRecord] = []
        self.next_id = 0
        self._local = threading.local()

    def stack(self) -> List["Span"]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_stack(self, stack: Optional[List["Span"]]) -> None:
        self._local.stack = stack if stack is not None else []

    def allocate_id(self) -> int:
        with self.lock:
            span_id = self.next_id
            self.next_id += 1
        return span_id


_STATE = _TracerState()


class Span:
    """A live span; use via ``with span(name, **attrs) as sp``."""

    __slots__ = ("name", "attributes", "span_id", "parent_id", "_start")

    def __init__(self, name: str, attributes: Dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.span_id: int = -1
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set(self, key: str, value: Any) -> "Span":
        """Attach an attribute mid-span; returns ``self`` for chaining."""
        self.attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        stack = _STATE.stack()
        self.span_id = _STATE.allocate_id()
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self._start = now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = now()
        stack = _STATE.stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        record = SpanRecord(
            name=self.name,
            span_id=self.span_id,
            parent_id=self.parent_id,
            start_s=self._start,
            end_s=end,
            attributes=dict(self.attributes),
            process_id=os.getpid(),
            thread_id=threading.get_ident(),
        )
        with _STATE.lock:
            _STATE.records.append(record)
        return False


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attributes: Any) -> Union[Span, _NoopSpan]:
    """Context manager for one nested span.

    Disabled tracing returns a single shared no-op object — no
    allocation, no clock read, no buffer append.
    """
    if not _STATE.enabled:
        return _NOOP_SPAN
    return Span(name, attributes)


def traced(
    name: Optional[str] = None, **attributes: Any
) -> Callable[[Callable], Callable]:
    """Decorator: wrap every call of the function in a span.

    ``@traced`` / ``@traced("custom.name", fixed_attr=1)``.  The wrapper
    checks the enabled flag first and falls straight through when
    tracing is off, so decorated hot paths pay one attribute load.
    """

    def decorate(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _STATE.enabled:
                return fn(*args, **kwargs)
            with Span(label, dict(attributes)):
                return fn(*args, **kwargs)

        return wrapper

    # Bare usage: @traced without parentheses.
    if callable(name):
        fn, name = name, None
        return decorate(fn)
    return decorate


# ---------------------------------------------------------------------------
# Global switch and buffer management
# ---------------------------------------------------------------------------

_UNSET = object()


def configure(
    enabled: Optional[bool] = None,
    export_dir: Any = _UNSET,
) -> None:
    """Flip the tracer switch and/or set the exporter directory.

    Omitted arguments leave the corresponding setting untouched;
    ``export_dir=None`` explicitly clears the directory.
    """
    if enabled is not None:
        _STATE.enabled = bool(enabled)
    if export_dir is not _UNSET:
        _STATE.export_dir = Path(export_dir) if export_dir is not None else None


def is_enabled() -> bool:
    return _STATE.enabled


def get_export_dir() -> Optional[Path]:
    return _STATE.export_dir


def reset() -> None:
    """Clear the buffer and restart span-id allocation from zero."""
    with _STATE.lock:
        _STATE.records.clear()
        _STATE.next_id = 0


@contextmanager
def capture(enabled: bool = True) -> Iterator[List[SpanRecord]]:
    """Run a block against a fresh, isolated span buffer.

    The yielded list is filled with the block's finished spans on exit;
    the surrounding buffer, id counter, enabled flag and span stack are
    saved and restored, so captures nest and never leak spans in either
    direction.  Worker processes use this to collect per-payload spans
    with ids starting at 0 (which makes the merged tree independent of
    worker count), and tests use it for isolation.
    """
    saved_enabled = _STATE.enabled
    saved_export = _STATE.export_dir
    saved_stack = getattr(_STATE._local, "stack", None)
    with _STATE.lock:
        saved_records = _STATE.records
        saved_next_id = _STATE.next_id
        _STATE.records = []
        _STATE.next_id = 0
    _STATE.enabled = enabled
    _STATE.set_stack([])
    box: List[SpanRecord] = []
    try:
        yield box
    finally:
        with _STATE.lock:
            box.extend(_STATE.records)
            _STATE.records = saved_records
            _STATE.next_id = saved_next_id
        _STATE.enabled = saved_enabled
        _STATE.export_dir = saved_export
        _STATE.set_stack(saved_stack)


def ingest(
    records: Sequence[Union[SpanRecord, dict]],
    parent_id: Optional[int] = None,
) -> List[SpanRecord]:
    """Replay a serialised span batch into the local buffer.

    Every span gets a fresh local id (allocation order follows the batch
    order, so re-ingesting the same batches in the same order produces
    the same ids regardless of where the spans originally ran); parent
    links *within* the batch are remapped, and spans whose parent is not
    part of the batch — the batch's roots — are attached to
    ``parent_id``.  No-op while tracing is disabled.
    """
    if not _STATE.enabled:
        return []
    batch: List[SpanRecord] = [
        rec if isinstance(rec, SpanRecord) else SpanRecord.from_dict(rec)
        for rec in records
    ]
    with _STATE.lock:
        mapping: Dict[int, int] = {}
        for rec in batch:
            mapping[rec.span_id] = _STATE.next_id
            _STATE.next_id += 1
        ingested = []
        for rec in batch:
            new_parent = (
                mapping[rec.parent_id]
                if rec.parent_id is not None and rec.parent_id in mapping
                else parent_id
            )
            ingested.append(
                SpanRecord(
                    name=rec.name,
                    span_id=mapping[rec.span_id],
                    parent_id=new_parent,
                    start_s=rec.start_s,
                    end_s=rec.end_s,
                    attributes=dict(rec.attributes),
                    process_id=rec.process_id,
                    thread_id=rec.thread_id,
                )
            )
        _STATE.records.extend(ingested)
    return ingested
