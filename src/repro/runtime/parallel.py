"""Deterministic process-parallel map.

:func:`parallel_map` fans a pure function out over a payload list with
multiprocessing and returns one :class:`ItemOutcome` per payload **in
submission order**, regardless of completion order or worker count.

Determinism contract
--------------------
``fn`` must be a pure function of its payload and must not mutate it;
every mapper meets this, because routers and placements seed a fresh
generator inside each call.  The pool pickles each payload once at
submission time.  The ``workers=1`` path runs in-process on the
payloads as given and returns ``pickle.loads(pickle.dumps(value))`` —
the value a pool worker would have shipped back, down to which objects
it shares — which is what makes single-worker and multi-worker runs
byte-identical.

Failure handling
----------------
* An exception raised by ``fn`` is captured in the item's outcome
  (``error`` + traceback string); other items are unaffected.
* A *dying* worker (SIGKILL, hard crash) breaks the pool; every item
  whose result was lost is recomputed serially in the parent process
  from its own pickled copy, so the call still returns a complete,
  correctly ordered result list — ``ParallelResult.fell_back`` records
  that it happened, and each recomputed item's
  :attr:`ItemOutcome.attempts` counts the lost pool attempt.
* An *unresponsive* worker (stuck past ``item_timeout_s`` without
  completing its task) is hard-killed along with the rest of the pool
  and the outstanding items are recomputed serially — the backstop for
  code that never reaches a cooperative deadline checkpoint.  The
  recompute runs ``fn`` in the parent, so callers using the timeout
  should hand in an ``fn`` that bounds its own work (the suite runner's
  resilient payload does, via its cooperative deadlines).
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing

__all__ = ["ItemOutcome", "ParallelResult", "parallel_map", "workers_from_env"]

#: Environment variable consulted by :func:`workers_from_env`.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: ``(source, value)`` pairs already warned about (one warning each).
_WARNED_VALUES: Set[Tuple[str, str]] = set()


def workers_from_env(default: Optional[int] = None) -> Optional[int]:
    """Worker count requested via the ``REPRO_WORKERS`` environment variable.

    ``REPRO_WORKERS=N`` (N > 0) returns ``N``; unset or empty values
    return ``default``.  Zero, negative or unparsable values *also*
    return ``default`` but emit a one-time :class:`RuntimeWarning` —
    a misconfigured environment must be visible, not silently serial.
    This is the single knob shared by the suite runner and the benchmark
    drivers, so one environment setting configures every fan-out in a
    run.
    """
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn_invalid_workers(raw, "not an integer")
        return default
    if value <= 0:
        _warn_invalid_workers(raw, "must be a positive integer")
        return default
    return value


def _warn_invalid_workers(
    raw: str, reason: str, source: str = WORKERS_ENV_VAR
) -> None:
    if (source, raw) in _WARNED_VALUES:
        return
    _WARNED_VALUES.add((source, raw))
    warnings.warn(
        f"ignoring {source}={raw!r} ({reason}); "
        "falling back to the default worker count",
        RuntimeWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class ItemOutcome:
    """Result of running ``fn`` on one payload.

    Attributes
    ----------
    index:
        Position of the payload in the input sequence.
    value:
        Return value of ``fn`` (``None`` when it raised).
    error:
        ``None`` on success, else ``"ExcType: message"``.
    traceback:
        Full formatted traceback on failure (for logs), else ``None``.
    elapsed_s:
        Wall time spent inside ``fn`` for the attempt that produced
        this outcome.
    attempts:
        How many times the runtime started ``fn`` for this payload: 1
        on the direct path, 2 when the item was recomputed serially
        after a worker death or hard timeout (the lost pool attempt
        counts).
    duration_s:
        Wall time of the *measured* attempts for this item.  Equal to
        ``elapsed_s`` except on the recompute path, where the lost
        in-worker time is unobservable and only the recompute is summed.
    """

    index: int
    value: Any
    error: Optional[str]
    traceback: Optional[str]
    elapsed_s: float
    attempts: int = 1
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ParallelResult:
    """Ordered outcomes plus how the run actually executed.

    ``recomputed`` counts the items whose pool result was lost (dead or
    unresponsive worker) and that were recomputed serially in the
    parent; ``total_attempts`` sums every per-item attempt, so
    ``total_attempts - len(outcomes)`` is the run's extra work.
    ``shipped_bytes`` is the total pickled payload size submitted
    through the pool pipe (0 on the inline path, which ships nothing).
    """

    outcomes: List[ItemOutcome] = field(default_factory=list)
    workers: int = 1
    fell_back: bool = False
    recomputed: int = 0
    shipped_bytes: int = 0

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.outcomes)

    def values(self) -> List[Any]:
        """Values of successful items, input order preserved."""
        return [o.value for o in self.outcomes if o.ok]


def _run_item(
    fn: Callable[[Any], Any], index: int, payload: Any, attempts: int = 1
) -> ItemOutcome:
    """Execute one task, capturing its error and wall time.

    Runs inside the worker process (or inline for ``workers=1``); must
    stay module-level so the pool can pickle it by reference.
    ``attempts`` is the cumulative attempt count this execution brings
    the item to (2 on the serial-recompute path).
    """
    start = time.perf_counter()
    try:
        value = fn(payload)
        error = tb = None
    except Exception as exc:  # noqa: BLE001 - captured per item by design
        value = None
        error = f"{type(exc).__name__}: {exc}"
        tb = traceback.format_exc()
    elapsed = time.perf_counter() - start
    return ItemOutcome(
        index, value, error, tb, elapsed, attempts=attempts, duration_s=elapsed
    )


def _run_item_blob(
    fn: Callable[[Any], Any], index: int, blob: bytes, attempts: int = 1
) -> ItemOutcome:
    """Execute one task from its pre-pickled payload blob."""
    return _run_item(fn, index, pickle.loads(blob), attempts=attempts)


def _observe_payloads(sizes: Sequence[int]) -> None:
    """Record the pickled size of every payload of one call."""
    payload_hist = telemetry_metrics.histogram(
        "payload_bytes",
        buckets=telemetry_metrics.BYTE_BUCKETS,
        path="parallel_map",
    )
    for size in sizes:
        payload_hist.observe(size)
    telemetry_metrics.counter(
        "serialized_bytes_total", path="parallel_map"
    ).inc(sum(sizes))


def parallel_map(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    on_result: Optional[Callable[[ItemOutcome], None]] = None,
    item_timeout_s: Optional[float] = None,
) -> ParallelResult:
    """Run ``fn`` over ``payloads`` across processes; ordered outcomes.

    Parameters
    ----------
    fn:
        Module-level callable (it is sent to workers by reference).
    payloads:
        Task inputs; each must be picklable.
    workers:
        Process count; ``None`` uses ``os.cpu_count()``, values are
        clamped to ``[1, len(payloads)]``.  ``workers=1`` runs inline
        (no pool, no payload copies) and returns the values a pool
        would.
    progress:
        Optional ``(done, total)`` callback, invoked in the parent as
        results are collected (in submission order).
    on_result:
        Optional per-outcome callback, invoked in the parent in
        submission order as soon as each item's outcome is final — the
        hook the suite runner journals through, so completed work is
        durable before the batch finishes.
    item_timeout_s:
        Hard per-task wait bound.  When a pooled task takes longer than
        this to deliver its result, every pool process is killed and the
        outstanding items are recomputed serially in the parent (see the
        module docstring's failure-handling notes).  ``None`` disables
        the bound; ignored on the inline ``workers=1`` path, where
        cooperative deadlines inside ``fn`` are the only brake.
    """
    payloads = list(payloads)
    total = len(payloads)
    if workers is not None and int(workers) <= 0:
        # A zero/negative count is a misconfiguration (it used to be
        # silently clamped to serial): surface it once and use the
        # default, mirroring workers_from_env's env-value handling.
        _warn_invalid_workers(
            str(workers), "must be a positive integer", source="workers"
        )
        workers = None
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), total or 1))
    telemetry_on = tracing.is_enabled()

    def _finish(outcome: ItemOutcome) -> None:
        if on_result is not None:
            on_result(outcome)
        if progress is not None:
            progress(outcome.index + 1, total)

    if workers == 1 or total == 0:
        if telemetry_on and total:
            # Sized exactly as the pool path ships them, so the payload
            # metrics do not depend on the worker count.
            _observe_payloads([len(pickle.dumps(p)) for p in payloads])
        outcomes = []
        for index, payload in enumerate(payloads):
            outcome = _run_item(fn, index, payload)
            outcome = replace(
                outcome, value=pickle.loads(pickle.dumps(outcome.value))
            )
            outcomes.append(outcome)
            _finish(outcome)
        return ParallelResult(outcomes, workers=1)

    # Pooled dispatch: pickle every payload exactly once, up front and
    # in submission order — this is the serialization the determinism
    # contract pins, and the parent's copy the recompute path reuses.
    serialize_start = time.perf_counter()
    blobs = [pickle.dumps(payload) for payload in payloads]
    serialize_elapsed = time.perf_counter() - serialize_start
    shipped_bytes = sum(len(blob) for blob in blobs)
    if telemetry_on:
        _observe_payloads([len(blob) for blob in blobs])
        telemetry_metrics.counter(
            "serialization_seconds_total", path="parallel_map", stage="pickle"
        ).inc(serialize_elapsed)

    collected: List[Optional[ItemOutcome]] = [None] * total
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_item_blob, fn, index, blob)
                for index, blob in enumerate(blobs)
            ]
            for future in futures:
                try:
                    outcome = future.result(timeout=item_timeout_s)
                except FuturesTimeoutError:
                    # An unresponsive worker: hard-kill the whole pool
                    # (there is no per-task kill in ProcessPoolExecutor)
                    # and recompute the holes below.
                    for process in list(
                        getattr(pool, "_processes", {}).values()
                    ):
                        process.kill()
                    break
                except BrokenProcessPool:
                    # A worker died; later futures are lost too.  Stop
                    # draining and recompute the holes below.
                    break
                collected[outcome.index] = outcome
                _finish(outcome)
    except BrokenProcessPool:  # pragma: no cover - raised at pool shutdown
        pass

    fell_back = False
    recomputed = 0
    for index, outcome in enumerate(collected):
        if outcome is None:
            # Serial fallback in the parent: same pickling semantics, so
            # recovered items match what the worker would have returned.
            # attempts=2 counts the lost pool attempt.
            fell_back = True
            recomputed += 1
            outcome = _run_item_blob(fn, index, blobs[index], attempts=2)
            collected[index] = outcome
            _finish(outcome)
    return ParallelResult(
        list(collected),
        workers=workers,
        fell_back=fell_back,
        recomputed=recomputed,
        shipped_bytes=shipped_bytes,
    )
