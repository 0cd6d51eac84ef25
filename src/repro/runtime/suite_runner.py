"""Parallel mapping-suite runner.

Maps every benchmark of a suite onto a device across worker processes
and returns a :class:`SuiteRunReport`: the mapping records in suite
order, per-circuit wall times (with a per-stage breakdown when
telemetry is on), and captured per-circuit failures.

A mapping is a pure function of (circuit, device, seed): routers and
placements seed a fresh generator inside each call, so no mapper
carries state from one circuit to the next.  Results are therefore
independent of execution order and of the worker count — ``workers=1``
(inline, the path :func:`repro.experiments.common.run_suite` takes by
default) and ``workers=N`` produce byte-identical records.

Telemetry
---------
When :mod:`repro.telemetry` is enabled in the parent, each worker
captures the spans and metrics of its payloads in isolation and ships
them back with the mapping record.  The parent ingests every batch in
suite order under one ``suite.run`` root span — so the merged span tree
is identical for ``workers=1`` and ``workers=N`` (only durations and
process ids differ) — and folds the worker metrics into its registry.
With an export directory configured, workers additionally append their
batches to per-worker JSONL shards under ``<dir>/workers/``, which
:func:`repro.telemetry.merge.merge_worker_events` reorders into one
deterministic ``merged.jsonl`` without dropping a single event.

Resilience
----------
Passing any of ``deadline_s`` / ``policy`` / ``chain`` / ``faults`` /
``journal`` switches each circuit onto the fault-tolerant execution
path (:func:`repro.resilience.engine.map_with_resilience`): per-attempt
wall-clock deadlines enforced cooperatively inside the router, seeded
deterministic retry backoff, and a graceful degradation chain ending in
the trivial router — so the run completes with a record for *every*
circuit, annotated in :attr:`SuiteRunReport.resilience`.  A ``journal``
path makes the run crash-safe: every completed circuit is durably
appended (atomic tmp-file+rename) before the next result is awaited,
and ``resume=True`` skips journaled circuits and splices their decoded
records back in, byte-identical to an uninterrupted run.  With every
resilience knob left at its default, each circuit is mapped once and a
mapping exception becomes a :class:`CircuitFailure`.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..compiler.mapper import QuantumMapper
from ..hardware.device import Device
from ..resilience.engine import (
    ResilienceConfig,
    ResilienceExhausted,
    ResilienceInfo,
    map_with_resilience,
)
from ..resilience.faults import FaultPlan
from ..resilience.journal import (
    JournalError,
    SuiteJournal,
    decode_record,
    encode_record,
)
from ..resilience.policy import (
    DegradationStep,
    RetryPolicy,
    default_degradation_chain,
)
from ..telemetry import capture as capture_telemetry
from ..telemetry import get_registry, tracing
from ..telemetry.clock import now
from ..telemetry.merge import (
    WORKER_DIR_NAME,
    annotate_events,
    append_worker_events,
    merge_worker_events,
)
from ..telemetry.tracing import span
from ..workloads.suite import BenchmarkCircuit
from .parallel import ItemOutcome, parallel_map, workers_from_env

__all__ = [
    "CircuitTiming",
    "CircuitFailure",
    "CircuitResilience",
    "SuiteRunReport",
    "run_suite_parallel",
]

#: Mapper-stage span names mirrored into the per-circuit breakdown.
_STAGE_SPANS = {
    "map.decompose": "decompose",
    "map.place": "place",
    "map.route": "route",
    "map.lower": "lower",
    "map.schedule": "schedule",
}


@dataclass(frozen=True)
class CircuitTiming:
    """Wall time spent mapping one benchmark.

    ``stages`` breaks the total down by mapping stage (``decompose`` /
    ``place`` / ``route`` / ``lower`` / ``schedule``, seconds) when the
    run was traced; it is empty when telemetry was off.  ``elapsed_s``
    is unchanged from before the breakdown existed.
    """

    name: str
    elapsed_s: float
    stages: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CircuitFailure:
    """A benchmark whose mapping raised, with the captured error."""

    name: str
    error: str
    traceback: Optional[str] = None


@dataclass(frozen=True)
class CircuitResilience:
    """How one benchmark's record was obtained on the resilient path.

    Wraps the engine's :class:`~repro.resilience.engine.ResilienceInfo`
    with the benchmark name; the annotation is deliberately independent
    of the worker count (a SIGKILLed worker and an in-parent injected
    fault produce the same attempt tally), which is what the fault
    determinism tests pin.
    """

    name: str
    info: ResilienceInfo

    @property
    def attempts(self) -> int:
        return self.info.attempts

    @property
    def retries(self) -> int:
        return self.info.retries

    @property
    def router(self) -> str:
        return self.info.router

    @property
    def mapper(self) -> str:
        return self.info.mapper

    @property
    def steps(self) -> Tuple[str, ...]:
        return self.info.steps

    @property
    def deadline_expired(self) -> bool:
        return self.info.deadline_expired

    @property
    def faults_injected(self) -> int:
        return self.info.faults_injected

    @property
    def degraded(self) -> bool:
        return self.info.degraded

    @property
    def errors(self) -> Tuple[str, ...]:
        return self.info.errors

    def to_dict(self) -> dict:
        return {"name": self.name, **self.info.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitResilience":
        payload = dict(data)
        name = payload.pop("name")
        return cls(name=name, info=ResilienceInfo.from_dict(payload))


@dataclass
class SuiteRunReport:
    """Everything a parallel suite run produced.

    Attributes
    ----------
    records:
        Mapping records of the successful benchmarks, in suite order.
    timings:
        Per-benchmark wall times (successes and failures alike), in
        suite order, each with its per-stage breakdown when traced.
    failures:
        Benchmarks whose mapping raised; the rest of the suite is
        unaffected.
    skipped:
        Benchmark names skipped because they are wider than the device.
    workers:
        Worker-process count actually used.
    fell_back:
        True when a worker process died (or blew the hard per-item
        timeout) and the lost circuits were recomputed serially in the
        parent.
    recomputed:
        Number of circuits recomputed serially after a worker death or
        hard timeout.
    resilience:
        One :class:`CircuitResilience` per kept benchmark, in suite
        order, when the run used the fault-tolerant path; empty
        otherwise.
    resumed:
        Circuits whose results were spliced in from the resume journal
        instead of being recomputed.
    journal_path:
        The journal file the run appended to, when journaling.
    wall_time_s:
        End-to-end wall time of the run (monotonic clock).
    shipped_bytes:
        Pickled payload bytes submitted through the pool pipe, from
        :class:`ParallelResult` (0 on the inline path).
    """

    records: List = field(default_factory=list)
    timings: List[CircuitTiming] = field(default_factory=list)
    failures: List[CircuitFailure] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    workers: int = 1
    fell_back: bool = False
    recomputed: int = 0
    resilience: List[CircuitResilience] = field(default_factory=list)
    resumed: int = 0
    journal_path: Optional[str] = None
    wall_time_s: float = 0.0
    shipped_bytes: int = 0

    @property
    def total_circuit_time_s(self) -> float:
        """Sum of per-circuit times (CPU-side cost, ignores overlap)."""
        return sum(t.elapsed_s for t in self.timings)

    @property
    def degraded(self) -> List[str]:
        """Names of circuits that fell down the degradation chain."""
        return [r.name for r in self.resilience if r.degraded]

    @property
    def total_mapping_attempts(self) -> int:
        """Engine-level attempts summed over the suite (0 without
        resilience)."""
        return sum(r.attempts for r in self.resilience)

    def stage_totals(self) -> Dict[str, float]:
        """Suite-wide seconds per mapping stage (empty when untraced)."""
        totals: Dict[str, float] = {}
        for timing in self.timings:
            for stage, seconds in timing.stages.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals


def _map_payload(
    payload: Tuple[
        BenchmarkCircuit,
        Device,
        QuantumMapper,
        Optional[dict],
        Optional[ResilienceConfig],
        int,
    ]
):
    """Map one benchmark; module-level so worker processes can import it.

    The payload is ``(benchmark, device, mapper, telemetry, config,
    index)``.  ``telemetry`` is ``None`` when telemetry is off, else
    ``{"index": suite position, "dir": shard directory or None}``: the
    worker then captures its spans/metrics in isolation and returns them
    alongside the outcome (and appends the annotated span batch to its
    per-pid shard file when a directory is configured).

    Returns ``(tag, telemetry)`` where ``tag`` is ``("ok", record,
    info_dict)`` or ``("failed", error, traceback, info_dict)``.  With
    ``config=None`` the circuit is mapped once, ``info_dict`` is
    ``None`` and a mapping exception propagates (``parallel_map``
    captures it per item).  With a
    :class:`~repro.resilience.engine.ResilienceConfig` the circuit runs
    under :func:`~repro.resilience.engine.map_with_resilience`, and
    exhaustion of the whole degradation chain is *data*, not an
    exception, so the parent can journal and annotate it like any other
    outcome.  Injected in-worker faults (``kill``) that destroy the
    process never return, of course; ``parallel_map`` recomputes those
    serially in the parent, where the same fault key downgrades to a
    retryable raise and the annotation comes out identical.
    """
    from ..experiments.common import _record

    benchmark, device, mapper, tele, config, index = payload

    def map_circuit():
        """Map once, or under the resilience engine; the tag holds the
        :class:`MappingResult` until :func:`finish` turns it into a
        record."""
        if config is None:
            return "ok", mapper.map(benchmark.circuit, device), None
        try:
            result, info = map_with_resilience(
                benchmark.circuit, device, mapper, config, circuit_index=index
            )
        except ResilienceExhausted as exc:
            return (
                "failed",
                f"ResilienceExhausted: {exc}",
                traceback.format_exc(),
                exc.info.to_dict(),
            )
        return "ok", result, info.to_dict()

    def finish(tag):
        if tag[0] != "ok":
            return tag
        return "ok", _record(benchmark, tag[1]), tag[2]

    if tele is None:
        return finish(map_circuit()), None
    with capture_telemetry(enabled=True) as captured:
        with span(
            "suite.circuit", circuit=benchmark.source, index=tele["index"]
        ):
            tag = map_circuit()
            if tag[0] == "ok":
                tag[1].schedule()  # traced: completes the stage breakdown
        tag = finish(tag)
    events = annotate_events(
        [s.to_dict() for s in captured.spans], batch=tele["index"]
    )
    if tele.get("dir"):
        append_worker_events(tele["dir"], events, worker_id=os.getpid())
    return tag, {
        "events": events,
        "metrics": captured.metrics_snapshot(),
    }


def _stage_breakdown(events: Sequence[dict]) -> Dict[str, float]:
    """Seconds per mapping stage, summed over one circuit's span batch."""
    stages: Dict[str, float] = {}
    for event in events:
        stage = _STAGE_SPANS.get(event["name"])
        if stage is not None:
            stages[stage] = stages.get(stage, 0.0) + (
                event["end_s"] - event["start_s"]
            )
    return stages


def _placeholder_info(attempts: int, error: Optional[str]) -> ResilienceInfo:
    """Annotation for an outcome that died outside the engine."""
    return ResilienceInfo(
        attempts=attempts,
        retries=0,
        router="",
        mapper="",
        steps=(),
        deadline_expired=False,
        faults_injected=0,
        backoff_total_s=0.0,
        errors=(error or "",),
    )


def run_suite_parallel(
    benchmarks: Sequence[BenchmarkCircuit],
    device: Optional[Device] = None,
    mapper: Optional[QuantumMapper] = None,
    workers: Optional[int] = None,
    progress: Optional[Callable[[int, int, str], None]] = None,
    deadline_s: Optional[float] = None,
    policy: Optional[RetryPolicy] = None,
    chain: Optional[Sequence[DegradationStep]] = None,
    degrade: bool = True,
    faults: Optional[FaultPlan] = None,
    journal: Optional[Union[str, "os.PathLike[str]"]] = None,
    resume: bool = False,
    item_timeout_s: Optional[float] = None,
) -> SuiteRunReport:
    """Map a benchmark suite with a worker pool; see :class:`SuiteRunReport`.

    Benchmarks wider than the device are skipped; ``progress`` receives
    ``(index, total, name)`` once per finished circuit, with the
    circuit's position in ``benchmarks`` and their count.  Adds process
    fan-out, per-circuit timing, and per-circuit failure capture to
    :func:`repro.experiments.common.run_suite`, which calls this
    function.  When ``workers`` is
    ``None`` the ``REPRO_WORKERS`` environment variable is consulted
    first (falling back to the CPU count), so one environment setting
    configures every fan-out in a run.

    Resilience parameters (module docstring has the overview; any
    non-default value switches the run onto the fault-tolerant path):

    deadline_s:
        Per-attempt wall-clock budget, enforced cooperatively inside
        the router's search loop; expiry degrades the circuit down the
        chain instead of failing it.
    policy:
        :class:`~repro.resilience.policy.RetryPolicy` (attempt count and
        seeded deterministic backoff); default 2 attempts per step.
    chain:
        Explicit degradation chain; ``None`` builds the default
        ``mapper → mapper(reduced effort) → trivial`` ladder, or a
        single-step chain when ``degrade`` is false.
    faults:
        A :class:`~repro.resilience.faults.FaultPlan` to inject
        (testing/drills); ``None`` injects nothing.
    journal:
        Path to the crash-safe JSONL journal; every completed circuit is
        durably appended before the next result is consumed.
    resume:
        With ``journal``, load it and skip already-journaled circuits,
        splicing their decoded records into the report byte-identically.
        A missing journal file starts a fresh run.
    item_timeout_s:
        Hard per-item bound handed to :func:`parallel_map` — the
        backstop that kills an *unresponsive* worker (one that never
        reaches a cooperative deadline checkpoint) and recomputes its
        items in the parent.
    """
    from ..experiments.common import paper_configuration
    from ..compiler.mapper import trivial_mapper

    device = device if device is not None else paper_configuration()
    mapper = mapper if mapper is not None else trivial_mapper()
    if workers is None:
        workers = workers_from_env()
    resilience_active = (
        deadline_s is not None
        or policy is not None
        or chain is not None
        or faults is not None
        or journal is not None
    )
    if resume and journal is None:
        raise ValueError("resume=True requires a journal path")
    start = now()
    kept: List[BenchmarkCircuit] = []
    # Input position of each kept benchmark (progress reports it).
    positions: List[int] = []
    skipped: List[str] = []
    for position, benchmark in enumerate(benchmarks):
        if benchmark.circuit.num_qubits > device.num_qubits:
            skipped.append(benchmark.source)
        else:
            kept.append(benchmark)
            positions.append(position)

    config: Optional[ResilienceConfig] = None
    if resilience_active:
        if chain is not None:
            resolved_chain = tuple(chain)
        elif degrade:
            resolved_chain = tuple(default_degradation_chain(mapper))
        else:
            resolved_chain = (DegradationStep(mapper.name, mapper),)
        config = ResilienceConfig(
            deadline_s=deadline_s,
            policy=policy if policy is not None else RetryPolicy(),
            chain=resolved_chain,
            faults=faults,
        )

    # -- journal / resume ----------------------------------------------
    journal_writer: Optional[SuiteJournal] = None
    completed: Dict[int, Dict[str, Any]] = {}
    if journal is not None:
        journal_writer = SuiteJournal(journal)
        header = {
            "suite": [b.source for b in kept],
            "mapper": mapper.name,
            "device": device.name,
        }
        if resume and journal_writer.path.is_file():
            state = journal_writer.resume_from()
            for key, expected in header.items():
                found = state.header.get(key)
                if found != expected:
                    raise JournalError(
                        f"journal {journal_writer.path} was written for a "
                        f"different run ({key}={found!r}, expected "
                        f"{expected!r}); refusing to resume"
                    )
            completed = {
                index: entry
                for index, entry in state.by_index().items()
                if 0 <= index < len(kept)
            }
        else:
            journal_writer.start(header)

    pending: List[Tuple[int, BenchmarkCircuit]] = [
        (index, benchmark)
        for index, benchmark in enumerate(kept)
        if index not in completed
    ]

    traced = tracing.is_enabled()
    worker_dir: Optional[str] = None
    if traced and tracing.get_export_dir() is not None:
        worker_dir = str(tracing.get_export_dir() / WORKER_DIR_NAME)

    def _tele_config(index: int) -> Optional[dict]:
        if not traced:
            return None
        return {"index": index, "dir": worker_dir}

    def _on_result(outcome: ItemOutcome) -> None:
        """Journal one finished circuit, apply parent-side faults, then
        report progress.

        Runs in the parent, in submission order, as soon as the item's
        outcome is final — completed work is durable *before* the batch
        finishes, which is what makes a mid-run kill resumable.
        """
        kept_index, benchmark = pending[outcome.index]
        if journal_writer is not None:
            entry: Dict[str, Any] = {
                "index": kept_index,
                "name": benchmark.source,
                "elapsed_s": outcome.elapsed_s,
                "pool_attempts": outcome.attempts,
            }
            if outcome.ok:
                tag, telemetry_payload = outcome.value
                if telemetry_payload is not None:
                    entry["stages"] = _stage_breakdown(
                        telemetry_payload["events"]
                    )
                if tag[0] == "ok":
                    entry["status"] = "ok"
                    entry["record"] = encode_record(tag[1])
                    entry["resilience"] = tag[2]
                else:
                    entry["status"] = "failed"
                    entry["error"] = tag[1]
                    entry["traceback"] = tag[2]
                    entry["resilience"] = tag[3]
            else:
                entry["status"] = "failed"
                entry["error"] = outcome.error
                entry["traceback"] = outcome.traceback
            journal_writer.append(entry)
        if faults is not None:
            faults.fire_parent(kept_index, journal_writer)
        if progress is not None:
            progress(positions[kept_index], len(benchmarks), benchmark.source)

    payloads = [
        (benchmark, device, mapper, _tele_config(kept_index), config, kept_index)
        for kept_index, benchmark in pending
    ]

    report = SuiteRunReport(skipped=skipped)
    report.resumed = len(completed)
    if journal_writer is not None:
        report.journal_path = str(journal_writer.path)
    with span("suite.run", circuits=len(kept)) as root:
        result = parallel_map(
            _map_payload,
            payloads,
            workers=workers,
            on_result=_on_result,
            item_timeout_s=item_timeout_s,
        )
        root.set("workers", result.workers)
        report.workers = result.workers
        report.fell_back = result.fell_back
        report.recomputed = result.recomputed
        report.shipped_bytes = result.shipped_bytes
        root_id = getattr(root, "span_id", None)
        outcome_by_kept = {
            pending[outcome.index][0]: outcome
            for outcome in result.outcomes
        }
        for kept_index, benchmark in enumerate(kept):
            entry = completed.get(kept_index)
            if entry is not None:
                # Spliced in from the resume journal; the embedded pickle
                # is byte-identical to what a fresh mapping would return.
                stages = {
                    key: float(value)
                    for key, value in entry.get("stages", {}).items()
                }
                if entry.get("status") == "ok":
                    report.records.append(decode_record(entry["record"]))
                else:
                    report.failures.append(
                        CircuitFailure(
                            benchmark.source,
                            entry.get("error") or "unknown failure",
                            entry.get("traceback"),
                        )
                    )
                if resilience_active:
                    if entry.get("resilience") is not None:
                        info = ResilienceInfo.from_dict(entry["resilience"])
                    else:
                        info = _placeholder_info(
                            int(entry.get("pool_attempts", 1)),
                            entry.get("error"),
                        )
                    report.resilience.append(
                        CircuitResilience(benchmark.source, info)
                    )
                report.timings.append(
                    CircuitTiming(
                        benchmark.source,
                        float(entry.get("elapsed_s", 0.0)),
                        stages,
                    )
                )
                continue
            outcome = outcome_by_kept[kept_index]
            stages = {}
            if outcome.ok:
                tag, telemetry_payload = outcome.value
                if telemetry_payload is not None:
                    events = telemetry_payload["events"]
                    stages = _stage_breakdown(events)
                    tracing.ingest(events, parent_id=root_id)
                    get_registry().merge_snapshot(telemetry_payload["metrics"])
                if tag[0] == "ok":
                    report.records.append(tag[1])
                else:
                    report.failures.append(
                        CircuitFailure(benchmark.source, tag[1], tag[2])
                    )
                info_dict = tag[-1]  # None unless resilience is active
            else:
                report.failures.append(
                    CircuitFailure(
                        benchmark.source, outcome.error, outcome.traceback
                    )
                )
                info_dict = None
            if resilience_active:
                info = (
                    ResilienceInfo.from_dict(info_dict)
                    if info_dict is not None
                    else _placeholder_info(outcome.attempts, outcome.error)
                )
                report.resilience.append(
                    CircuitResilience(benchmark.source, info)
                )
            report.timings.append(
                CircuitTiming(benchmark.source, outcome.elapsed_s, stages)
            )
    if worker_dir is not None and os.path.isdir(worker_dir):
        merge_worker_events(worker_dir)
    report.wall_time_s = now() - start
    return report
