"""The compilation service: queue, dispatcher, warm workers, cache.

:class:`CompilationService` is the long-lived serving path the batch
runner cannot be: requests are admitted into a priority
:class:`~repro.service.queue.JobQueue`, dispatched in priority order,
answered from the cross-request :class:`~repro.service.cache.
ResultCache` when possible, and otherwise compiled — inline
(``workers=0``) or on a :class:`~repro.service.workers.WarmWorkerPool`.

Determinism: the cache lookup happens exactly once per admitted job (at
dispatch), inline and pooled computes share one code path, and payload
bytes are canonical — so a ``workers=0`` and a ``workers=4`` service
given the same requests return byte-identical payloads, and the local
hit/miss/eviction counters are exact (``hits + misses == dispatched
requests``).  Concurrent requests for one key are *coalesced*: they
count as misses at lookup time but ride the single in-flight compute
instead of duplicating it.

Fault tolerance: each job compiles under the resilience engine
(deadline, seeded retries, degradation chain), and the parent watches
worker *health*, not just liveness: each worker stamps a shared
heartbeat timestamp on every loop turn (SIGKILL-safe, unlike a queue
message), so a watchdog catches hung workers — process alive, compute
wedged, stamp silent past ``heartbeat_budget_s`` — and SIGKILLs them
onto the same recovery path
a crashed worker takes.  Assignment is parent-side (one task queue per
worker), so when a worker dies mid-job (e.g. an injected ``kill``
fault) the parent's own books name the lost job; a bounded recovery
thread re-dispatches it with a fault-plan attempt offset (completions
are labelled ``served_by="recovery"``), and a job that keeps killing
or hanging workers is **quarantined** after ``max_job_attempts``
incidents — a terminal error carrying the attempt history — so one
poison request can never wedge the dispatcher or eat the pool.

Shutdown: :meth:`CompilationService.drain` closes admission (typed
:class:`~repro.service.jobs.ServiceDraining` rejections), finishes
in-flight work under a deadline, journals whatever was still queued to
a JSONL file a later process can resubmit from, and then stops —
``repro serve`` wires it to SIGTERM/SIGINT.
"""

from __future__ import annotations

import json
import queue as stdlib_queue
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..circuit import Circuit, to_qasm
from ..compiler.routing import NoiseAwareRouter
from ..hardware import resolve_device
from ..hardware.device import Device
from ..hardware.drift import CalibrationDelta, CalibrationStream, DriftDiff
from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing
from .cache import ResultCache, ResultKey, calibration_version, result_key
from .jobs import (
    CompileRequest,
    CompileResponse,
    Job,
    ServiceDraining,
    ServiceError,
)
from .queue import JobQueue
from .workers import WarmWorkerPool, compute_payload, prewarm

__all__ = ["CompilationService", "DrainReport", "ServiceClient"]


@dataclass
class DrainReport:
    """What one graceful drain accomplished, for the operator's log."""

    completed: int = 0  #: jobs that finished during the drain window
    journaled: int = 0  #: queued jobs written to the drain journal
    failed_inflight: int = 0  #: in-flight jobs the deadline cut off
    journal_path: Optional[str] = None
    deadline_hit: bool = False
    wall_s: float = 0.0
    quarantined: int = 0
    extra: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "completed": self.completed,
            "journaled": self.journaled,
            "failed_inflight": self.failed_inflight,
            "journal_path": self.journal_path,
            "deadline_hit": self.deadline_hit,
            "wall_s": round(self.wall_s, 4),
            "quarantined": self.quarantined,
            **self.extra,
        }


class CompilationService:
    """Queue + cache + warm workers behind a ``submit()`` front door."""

    def __init__(
        self,
        workers: int = 0,
        devices: Sequence[str] = ("surface17",),
        cache_capacity: int = 128,
        class_limits: Optional[Dict[str, int]] = None,
        max_queue_depth: Optional[int] = None,
        start_timeout_s: float = 60.0,
        heartbeat_budget_s: Optional[float] = 30.0,
        max_job_attempts: int = 3,
        recovery_backlog: int = 128,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline)")
        if max_job_attempts < 1:
            raise ValueError("max_job_attempts must be >= 1")
        self.workers = workers
        self.device_specs = tuple(devices)
        self.cache = ResultCache(cache_capacity)
        self.queue = JobQueue(class_limits=class_limits, max_depth=max_queue_depth)
        self._devices: Dict[str, Device] = {}
        self._start_timeout_s = start_timeout_s
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._running = False
        self._threads: List[threading.Thread] = []
        self._pool: Optional[WarmWorkerPool] = None
        self._idle: "stdlib_queue.Queue[int]" = stdlib_queue.Queue()
        # One lock guards all dispatch bookkeeping: in-flight jobs by
        # sequence number, worker -> job assignment, and the coalescing
        # table of jobs waiting on another job's identical compute.
        self._state_lock = threading.Lock()
        self._inflight: Dict[int, Job] = {}
        self._assigned: Dict[int, int] = {}
        self._pending: Dict[ResultKey, List[Job]] = {}
        # Streaming calibration drift: one stream per device spec, plus
        # a lock serialising drift application against admission — a
        # submit snapshots (device, epoch) atomically, so a job can
        # never pair epoch N with epoch N+1's calibration.
        self._streams: Dict[str, CalibrationStream] = {}
        self._drift_lock = threading.Lock()
        # Health watchdog: no beat from an *alive* worker for longer
        # than the budget means it is hung (wedged compute, lost queue
        # feeder) and gets SIGKILLed onto the crash-recovery path.
        # ``None`` disables the watchdog.
        self.heartbeat_budget_s = heartbeat_budget_s
        self._hang_suspects: set = set()
        # Poison-job quarantine + bounded recovery: jobs whose worker
        # died are re-dispatched by a dedicated thread (never the
        # dispatcher), and quarantined once they have caused
        # ``max_job_attempts`` worker-fatal incidents.
        self.max_job_attempts = max_job_attempts
        self._recovery: "stdlib_queue.Queue[Optional[Job]]" = (
            stdlib_queue.Queue(maxsize=recovery_backlog)
        )
        self._recovery_active = 0
        self.quarantined: List[Dict] = []
        self._draining = False
        self.drift_updates_total = 0
        self.drift_rows_recomputed_total = 0
        self.drift_wholesale_rebuilds_total = 0
        self.requests_total = 0
        self.coalesced_total = 0
        self.recovered_total = 0
        self.failed_total = 0
        self.hangs_total = 0
        self.quarantined_total = 0
        self.respawns_total: Dict[str, int] = {"crash": 0, "hang": 0}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "CompilationService":
        if self._running:
            raise ServiceError("service already started")
        for spec in self.device_specs:
            self._device(spec)
        self._running = True
        if self.workers > 0:
            # Idle workers must beat at least a few times per budget or
            # an idle-but-hung worker would only be caught one full tick
            # late.
            idle_tick_s = 2.0
            if self.heartbeat_budget_s is not None:
                idle_tick_s = max(0.05, min(2.0, self.heartbeat_budget_s / 4))
            self._pool = WarmWorkerPool(
                self.workers,
                self.device_specs,
                idle_tick_s=idle_tick_s,
            )
            self._pool.start()
            collector = threading.Thread(
                target=self._collect_loop, name="repro-service-collector",
                daemon=True,
            )
            collector.start()
            self._threads.append(collector)
            recovery = threading.Thread(
                target=self._recovery_loop, name="repro-service-recovery",
                daemon=True,
            )
            recovery.start()
            self._threads.append(recovery)
            self._await_ready()
        else:
            # Inline mode still prewarms, so first-request latency and
            # warm-table behaviour match the pooled configuration.
            prewarm(self._devices.values())
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatcher",
            daemon=True,
        )
        dispatcher.start()
        self._threads.append(dispatcher)
        return self

    def _await_ready(self) -> None:
        """Block until every worker's prewarm finished (collector marks
        them idle as the ``ready`` messages arrive)."""
        deadline = time.monotonic() + self._start_timeout_s
        while self._idle.qsize() < self.workers:
            if time.monotonic() > deadline:  # pragma: no cover - stall guard
                raise ServiceError(
                    f"only {self._idle.qsize()}/{self.workers} workers "
                    f"ready after {self._start_timeout_s}s"
                )
            time.sleep(0.01)

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=15.0)
        self._threads.clear()
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        # Anything still unresolved loses its service; say so.
        with self._state_lock:
            leftovers = list(self._inflight.values())
            for waiters in self._pending.values():
                leftovers.extend(waiters)
            self._inflight.clear()
            self._assigned.clear()
            self._pending.clear()
        while True:  # recovery backlog the recovery thread never reached
            try:
                job = self._recovery.get_nowait()
            except stdlib_queue.Empty:
                break
            if job is not None:
                leftovers.append(job)
        for job in leftovers:
            job.fail("service shut down")

    def __enter__(self) -> "CompilationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- front door ----------------------------------------------------
    def submit(self, request: CompileRequest) -> Job:
        """Admit one request; raises
        :class:`~repro.service.queue.AdmissionError` under overload."""
        # Draining is checked first: a finished drain also stops the
        # service, and a client racing it must still get the typed
        # rejection (nothing clears the flag afterwards).
        if self._draining:
            telemetry_metrics.counter(
                "service_admission_rejects_total", reason="draining"
            ).inc()
            raise ServiceDraining(
                "service is draining: admission is closed, in-flight "
                "work is finishing; resubmit to another instance"
            )
        if not self._running:
            raise ServiceError("service is not running")
        request.validate()
        self._device(request.device)  # resolve + create the stream
        with self._drift_lock:
            # Atomic admission snapshot: the device (with its current
            # drifted calibration) and the stream epoch, taken together.
            device = self._devices[request.device]
            stream = self._streams.get(request.device)
            epoch = stream.epoch if stream is not None else 0
        key = result_key(
            request.circuit, request.device, device, request.mapper, epoch=epoch
        )
        with self._seq_lock:
            self._seq += 1
            job = Job(self._seq, request, key)
        job.device = device
        job.epoch = epoch
        job.submitted_s = time.perf_counter()
        self.queue.push(job)
        self.requests_total += 1
        telemetry_metrics.counter(
            "service_requests_total", priority=request.priority
        ).inc()
        return job

    def _device(self, spec: str) -> Device:
        device = self._devices.get(spec)
        if device is None:
            try:
                device = resolve_device(spec)
            except ValueError as exc:
                raise ServiceError(str(exc)) from exc
            self._devices[spec] = device
        if spec not in self._streams:
            self._streams[spec] = CalibrationStream(
                device.calibration, name=spec
            )
        return device

    # -- streaming calibration drift -----------------------------------
    def calibration_epoch(self, device: str = "surface17") -> int:
        """Current drift epoch of one device's calibration stream."""
        stream = self._streams.get(device)
        return stream.epoch if stream is not None else 0

    def calibration_digest(self, device: str = "surface17") -> str:
        """Cache-key digest of one device's *current* calibration.

        This is the ``calibration`` component every job admitted at the
        current epoch carries in its :class:`ResultKey` — recording it
        per epoch lets an external checker (the chaos harness) verify
        epoch pinning end to end: a payload's embedded digest must equal
        the digest of the epoch the job was admitted at, never a later
        one.
        """
        return calibration_version(self._device(device).calibration)

    def apply_drift(
        self, delta: CalibrationDelta, device: str = "surface17"
    ) -> DriftDiff:
        """Apply one streaming calibration update to a served device.

        Under the drift lock (so no admission can interleave): bumps the
        device's stream epoch and swaps in the drifted device.  An inline
        service whose parent holds the old epoch's noise distance table
        builds the new epoch's table now, so the next compute runs no
        Dijkstra; a pooled service broadcasts the new calibration and
        every live worker builds its own.  The old table stays cached
        for jobs pinned to the previous epoch.  Jobs admitted before the
        call keep their pinned epoch-N device; jobs admitted after
        compile at N+1 under a fresh cache key.
        """
        if not self._running:
            raise ServiceError("service is not running")
        self._device(device)
        with self._drift_lock:
            stream = self._streams[device]
            old_device = self._devices[device]
            diff = stream.apply(delta)
            new_device = replace(old_device, calibration=stream.calibration)
            self._devices[device] = new_device
            self.drift_updates_total += 1
            router = NoiseAwareRouter()
            if self._pool is not None:
                self._pool.broadcast_drift(device, new_device.calibration)
            elif router._is_cached(old_device) and not router._is_cached(
                new_device
            ):
                router._distance_matrix(new_device)
                self.drift_wholesale_rebuilds_total += 1
                self.drift_rows_recomputed_total += new_device.num_qubits
        return diff

    # -- graceful drain ------------------------------------------------
    def drain(
        self,
        deadline_s: float = 10.0,
        journal: Optional[str] = None,
    ) -> DrainReport:
        """Gracefully wind the service down and stop it.

        1. Close admission: new :meth:`submit` calls raise
           :class:`~repro.service.jobs.ServiceDraining` and the
           dispatcher stops feeding queued work to workers.
        2. Wait up to ``deadline_s`` for everything already dispatched
           (in-flight on workers, coalesced waiters, recovery backlog)
           to resolve.
        3. Journal whatever is still *queued* to ``journal`` (JSONL, one
           ``{"seq", "priority", "device", "mapper", "epoch", "qasm"}``
           line per job — enough to resubmit elsewhere) and fail those
           jobs with a :class:`ServiceDraining`-worded error naming the
           journal.
        4. Stop: threads joined, pool escalation-stopped.

        Safe to call from a signal handler's thread; idempotent-ish in
        that a second call on a stopped service raises ``ServiceError``.
        """
        if not self._running:
            raise ServiceError("service is not running")
        start = time.perf_counter()
        self._draining = True
        deadline = time.monotonic() + max(0.0, deadline_s)
        while time.monotonic() < deadline:
            with self._state_lock:
                busy = bool(self._inflight or self._pending)
            if not busy and self._recovery.qsize() == 0 and (
                self._recovery_active == 0
            ):
                break
            time.sleep(0.01)
        with self._state_lock:
            deadline_hit = bool(self._inflight or self._pending)
        leftovers = self.queue.drain()
        journal_path: Optional[str] = None
        if leftovers and journal:
            journal_path = str(journal)
            path = Path(journal_path)
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as handle:
                for job in leftovers:
                    handle.write(
                        json.dumps(
                            {
                                "seq": job.seq,
                                "priority": job.request.priority,
                                "device": job.request.device,
                                "mapper": job.request.mapper,
                                "epoch": job.epoch,
                                "deadline_s": job.request.deadline_s,
                                "qasm": to_qasm(job.request.circuit),
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
        for job in leftovers:
            where = (
                f"; journaled to {journal_path}" if journal_path else ""
            )
            self.failed_total += 1
            job.fail(f"service draining before dispatch{where}")
        inflight_before_stop = 0
        with self._state_lock:
            inflight_before_stop = len(self._inflight) + sum(
                len(w) for w in self._pending.values()
            )
        self.stop()
        report = DrainReport(
            completed=self.requests_total - self.failed_total,
            journaled=len(leftovers),
            failed_inflight=inflight_before_stop if deadline_hit else 0,
            journal_path=journal_path,
            deadline_hit=deadline_hit,
            wall_s=time.perf_counter() - start,
            quarantined=self.quarantined_total,
        )
        if tracing.is_enabled():
            telemetry_metrics.counter("service_drain_journaled_total").inc(
                len(leftovers)
            )
        return report

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            if self._draining:
                # Drain stops feeding new work; whatever is still queued
                # is journaled by drain() rather than dispatched.
                break
            job = self.queue.pop(timeout=0.05)
            if job is None:
                if not self._running:
                    break
                continue
            payload = self.cache.get(job.key)
            if payload is not None:
                self._resolve(job, payload, cached=True, served_by="cache")
                continue
            with self._state_lock:
                waiters = self._pending.get(job.key)
                if waiters is not None:
                    # An identical compute is already in flight: ride it
                    # instead of duplicating the work.
                    waiters.append(job)
                    self.coalesced_total += 1
                    telemetry_metrics.counter(
                        "service_jobs_coalesced_total"
                    ).inc()
                    continue
                self._pending[job.key] = []
            if self._pool is None:
                self._compute_here(job, served_by="inline")
            else:
                self._dispatch_to_worker(job)

    def _dispatch_to_worker(self, job: Job) -> None:
        """Hand a job to the next idle worker (keeps the backlog in the
        *priority* queue — dispatching ahead of worker capacity would
        turn it into FIFO order at the workers' doors)."""
        assert self._pool is not None
        while True:
            try:
                worker_id = self._idle.get(timeout=0.1)
            except stdlib_queue.Empty:
                if not self._running:
                    self._finish_error(job, "service shut down")
                    return
                continue
            if not self._pool.is_alive(worker_id):
                # Stale idle token of a worker that died between jobs;
                # the collector respawns it and a fresh token arrives.
                continue
            break
        with self._state_lock:
            self._inflight[job.seq] = job
            self._assigned[worker_id] = job.seq
        try:
            self._pool.submit(
                worker_id,
                job.seq,
                job.request,
                calibration=(
                    job.device.calibration if job.device is not None else None
                ),
                epoch=job.epoch,
                attempt_base=len(job.attempt_history),
            )
        except KeyError:  # pragma: no cover - respawn race guard
            with self._state_lock:
                self._inflight.pop(job.seq, None)
                self._assigned.pop(worker_id, None)
            self._compute_here(job, served_by="recovery")

    # -- completion ----------------------------------------------------
    def _compute_here(self, job: Job, served_by: str) -> None:
        """Inline compile (dispatcher thread, or crash recovery).

        Uses the device snapshot pinned at admission, *not* the live
        device — drift applied while the job sat in the queue must not
        leak into a payload cached under the admission epoch's key.
        """
        device = job.device
        if device is None:  # jobs constructed outside submit() (tests)
            device = self._device(job.request.device)
        try:
            payload = compute_payload(
                job.request, device, attempt_base=len(job.attempt_history)
            )
        except Exception as exc:  # noqa: BLE001 - reported on the job
            self._finish_error(job, f"{type(exc).__name__}: {exc}")
            return
        self._finish(job, payload, served_by=served_by)

    def _finish(self, job: Job, payload: bytes, served_by: str) -> None:
        """Cache a computed payload; resolve the job and its coalesced
        waiters (who are served the freshly cached bytes)."""
        if tracing.is_enabled():
            telemetry_metrics.histogram(
                "payload_bytes",
                buckets=telemetry_metrics.BYTE_BUCKETS,
                path="service_result",
            ).observe(float(len(payload)))
        self.cache.put(job.key, payload)
        with self._state_lock:
            waiters = self._pending.pop(job.key, [])
        self._resolve(job, payload, cached=False, served_by=served_by)
        for waiter in waiters:
            self._resolve(waiter, payload, cached=True, served_by="coalesced")

    def _finish_error(self, job: Job, error: str) -> None:
        with self._state_lock:
            waiters = self._pending.pop(job.key, [])
        for failed in [job] + waiters:
            self.failed_total += 1
            failed.fail(error)

    def _resolve(
        self, job: Job, payload: bytes, cached: bool, served_by: str
    ) -> None:
        job.resolve(
            CompileResponse(
                payload=payload,
                cached=cached,
                elapsed_s=time.perf_counter() - job.submitted_s,
                served_by=served_by,
            )
        )

    # -- collector (pool mode) -----------------------------------------
    def _collect_loop(self) -> None:
        assert self._pool is not None
        while True:
            for message in self._pool.poll_messages(timeout_s=0.1):
                self._handle_message(message)
            self._check_hung_workers()
            self._recover_dead_workers()
            if not self._running and not self._inflight:
                break

    def _handle_message(self, message) -> None:
        kind = message[0]
        if kind == "ready":
            self._idle.put(message[1])
            return
        if kind == "done":
            _, worker_id, job_seq, payload, error = message
            with self._state_lock:
                job = self._inflight.pop(job_seq, None)
                if self._assigned.get(worker_id) == job_seq:
                    self._assigned.pop(worker_id)
            if job is not None:
                served_by = "recovery" if job.recovering else f"worker-{worker_id}"
                if error is not None:
                    self._finish_error(job, error)
                else:
                    self._finish(job, payload, served_by=served_by)
            # else: already recovered after a presumed-dead worker; the
            # late result is redundant (and byte-identical).
            assert self._pool is not None
            if self._pool.is_alive(worker_id):
                self._idle.put(worker_id)

    def _check_hung_workers(self) -> None:
        """The watchdog half of worker health: kill silent-but-alive
        workers so the ordinary dead-worker sweep recovers their job.

        A worker is *hung* when its process is alive but it has not
        stamped its shared heartbeat slot (idle tick, task pickup,
        completion — see ``_worker_main``) for longer than
        ``heartbeat_budget_s``.  SIGKILL converts the hang into the
        crash case the parent already knows how to recover — one code
        path for both failure modes.  The budget must exceed the longest
        legitimate compute: a worker does not beat *during* a compute,
        so the stamp going quiet past the budget is the hang signal.
        Startup is exempt — a worker stamps its first beat only once
        prewarmed (0.0 until then), because prewarm cost varies with
        device size and host load and must not be raced by the budget.
        """
        if self.heartbeat_budget_s is None:
            return
        assert self._pool is not None
        now = time.monotonic()
        for worker_id, beat in self._pool.heartbeats().items():
            if beat == 0.0:
                continue  # still prewarming; startup is not watched
            if worker_id in self._hang_suspects:
                continue  # already SIGKILLed; death lands asynchronously
            if now - beat <= self.heartbeat_budget_s:
                continue
            if not self._pool.is_alive(worker_id):
                continue  # already dead: the crash sweep owns it
            if self._pool.kill(worker_id):
                self.hangs_total += 1
                self._hang_suspects.add(worker_id)
                telemetry_metrics.counter("worker_hangs_total").inc()

    def _recover_dead_workers(self) -> None:
        """Respawn dead workers; route their assigned jobs to recovery.

        Each lost job gets one incident appended to its attempt history
        (``kind`` is ``"hang"`` when the watchdog killed the worker,
        ``"crash"`` otherwise) and is then either re-dispatched through
        the bounded recovery thread or — once it has caused
        ``max_job_attempts`` worker-fatal incidents — quarantined.
        """
        assert self._pool is not None
        dead = self._pool.dead_workers()
        if not dead:
            return
        reasons = {
            worker_id: ("hang" if worker_id in self._hang_suspects else "crash")
            for worker_id in dead
        }
        lost: List[tuple] = []
        with self._state_lock:
            for worker_id in dead:
                job_seq = self._assigned.pop(worker_id, None)
                if job_seq is not None:
                    job = self._inflight.pop(job_seq, None)
                    if job is not None:
                        lost.append((worker_id, job))
        for worker_id in dead:
            self._hang_suspects.discard(worker_id)
            self.respawns_total[reasons[worker_id]] += 1
            telemetry_metrics.counter(
                "worker_respawns_total", reason=reasons[worker_id]
            ).inc()
            # The respawned worker announces itself with a ``ready``
            # message, which re-feeds the idle pool.
            self._pool.respawn(worker_id)
        for worker_id, job in lost:
            job.attempt_history.append(
                {
                    "kind": reasons[worker_id],
                    "worker": worker_id,
                    "epoch": job.epoch,
                }
            )
            if len(job.attempt_history) >= self.max_job_attempts:
                self._quarantine(job)
                continue
            self.recovered_total += 1
            telemetry_metrics.counter("service_jobs_recovered_total").inc()
            self._enqueue_recovery(job)

    def _enqueue_recovery(self, job: Job) -> None:
        job.recovering = True
        try:
            self._recovery.put_nowait(job)
        except stdlib_queue.Full:  # pragma: no cover - backlog bound
            self._finish_error(job, "recovery backlog full")

    def _quarantine(self, job: Job) -> None:
        """Terminal-fail a job whose compute keeps taking workers down.

        The job (and any coalesced waiters) get a typed error carrying
        the full attempt history; a bounded record lands in
        :attr:`quarantined` for ``stats()`` and the counter moves — but
        the job is *never* recomputed, inline or otherwise: by now it
        has proven it kills whatever process runs it.
        """
        job.quarantined = True
        self.quarantined_total += 1
        telemetry_metrics.counter("jobs_quarantined_total").inc()
        history = job.attempt_history
        entry = {
            "seq": job.seq,
            "circuit": job.key.circuit,
            "device": job.key.device,
            "mapper": job.key.mapper,
            "epoch": job.epoch,
            "priority": job.request.priority,
            "attempts": list(history),
            "reason": (
                f"{len(history)} worker-fatal incidents "
                f"({', '.join(i['kind'] for i in history)})"
            ),
        }
        self.quarantined.append(entry)
        del self.quarantined[:-64]  # bounded: stats() is not a database
        with self._state_lock:
            waiters = self._pending.pop(job.key, [])
        error = (
            f"quarantined after {len(history)} worker-fatal attempts "
            f"[{', '.join(i['kind'] for i in history)}] "
            f"(max_job_attempts={self.max_job_attempts})"
        )
        for failed in [job] + waiters:
            failed.quarantined = True
            self.failed_total += 1
            failed.fail(error)

    def _recovery_loop(self) -> None:
        """Re-dispatch jobs whose worker died — off the dispatcher.

        Recovery used to recompute inline on whichever thread noticed
        the death; a poison job (or merely a slow one) would stall
        dispatch and admission behind it.  This thread is the only
        place recovery compute is initiated now, its backlog is
        bounded, and it prefers re-dispatching to a (respawned) pool
        worker — the parent only computes recovery payloads itself when
        the pool is gone (shutdown races).
        """
        while True:
            try:
                job = self._recovery.get(timeout=0.1)
            except stdlib_queue.Empty:
                if not self._running:
                    break
                continue
            if job is None:
                break
            self._recovery_active += 1
            try:
                if self._pool is not None and self._running:
                    self._dispatch_to_worker(job)
                else:  # pragma: no cover - shutdown race
                    self._compute_here(job, served_by="recovery")
            finally:
                self._recovery_active -= 1

    # -- fault-injection hooks (drills and the chaos harness) ----------
    def alive_workers(self) -> int:
        """Live pool processes right now (0 in inline mode)."""
        return self._pool.alive_count() if self._pool is not None else 0

    def inject_worker_kill(self, worker_id: Optional[int] = None) -> Optional[int]:
        """SIGKILL one live pool worker; returns its id (None if none).

        The sanctioned way for drills and the chaos harness to take a
        worker down mid-flight without reaching into pool internals —
        the collector's dead-worker sweep must then respawn it and
        recover whatever job it held.
        """
        if self._pool is None:
            return None
        alive = sorted(
            w for w in self._pool.worker_ids() if self._pool.is_alive(w)
        )
        if not alive:
            return None
        victim = worker_id if worker_id is not None else alive[0]
        return victim if self._pool.kill(victim) else None

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "dispatch_bytes": (
                self._pool.dispatch_bytes_total if self._pool is not None else 0
            ),
            "requests": self.requests_total,
            "coalesced": self.coalesced_total,
            "recovered": self.recovered_total,
            "failed": self.failed_total,
            "draining": self._draining,
            "health": {
                "heartbeat_budget_s": self.heartbeat_budget_s,
                "hangs": self.hangs_total,
                "respawns": dict(self.respawns_total),
            },
            "quarantine": {
                "total": self.quarantined_total,
                "max_job_attempts": self.max_job_attempts,
                "jobs": list(self.quarantined),
            },
            "drift": {
                "epochs": {
                    spec: stream.epoch
                    for spec, stream in self._streams.items()
                },
                "updates": self.drift_updates_total,
                "rows_recomputed": self.drift_rows_recomputed_total,
                "wholesale_rebuilds": self.drift_wholesale_rebuilds_total,
            },
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
        }


def install_drain_handlers(
    service: CompilationService,
    journal: Optional[str] = None,
    deadline_s: float = 10.0,
) -> dict:
    """Wire SIGTERM/SIGINT to a graceful :meth:`~CompilationService.drain`.

    On either signal the service stops admission, finishes in-flight
    work under ``deadline_s``, journals the queued backlog to
    ``journal`` and exits with status 0 — so ``kill <pid>`` (or Ctrl-C)
    on ``repro serve`` is a clean drain, not an abandonment.  Returns
    the previous handlers keyed by signal number so a caller (tests)
    can restore them.  Must run on the main thread (CPython restricts
    ``signal.signal`` to it).
    """
    import signal as _signal
    import sys as _sys

    def _handler(signum, frame):  # pragma: no cover - exercised via kill
        name = _signal.Signals(signum).name
        print(f"{name} received; draining ...", file=_sys.stderr)
        report = service.drain(deadline_s=deadline_s, journal=journal)
        print(
            f"drained: {report.completed} completed, "
            f"{report.journaled} journaled"
            + (f" to {report.journal_path}" if report.journal_path else "")
            + (", deadline hit" if report.deadline_hit else ""),
            file=_sys.stderr,
        )
        raise SystemExit(0)

    previous = {}
    for signum in (_signal.SIGTERM, _signal.SIGINT):
        previous[signum] = _signal.signal(signum, _handler)
    return previous


class ServiceClient:
    """In-process client: the test/benchmark-facing face of the service."""

    def __init__(self, service: CompilationService) -> None:
        self.service = service

    def compile(
        self,
        circuit: Circuit,
        device: str = "surface17",
        mapper: str = "sabre",
        priority: str = "batch",
        timeout: Optional[float] = 120.0,
        deadline_s: Optional[float] = None,
        faults: str = "",
    ) -> CompileResponse:
        """Submit one circuit and block for its response."""
        request = CompileRequest(
            circuit=circuit,
            device=device,
            mapper=mapper,
            priority=priority,
            deadline_s=deadline_s,
            faults=faults,
        )
        return self.service.submit(request).result(timeout=timeout)

    def compile_many(
        self,
        requests: Sequence[CompileRequest],
        timeout: Optional[float] = 300.0,
    ) -> List[CompileResponse]:
        """Submit a batch, then gather responses in submission order."""
        jobs = [self.service.submit(request) for request in requests]
        return [job.result(timeout=timeout) for job in jobs]

    def stats(self) -> dict:
        return self.service.stats()
