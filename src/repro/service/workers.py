"""Warm worker processes for the compilation service.

The suite runner pays its per-task cost (pickling payloads, rebuilding
distance tables) on every ``parallel_map`` call; a long-lived service
cannot.  A :class:`WarmWorkerPool` keeps ``N`` persistent processes
that **prewarm once** — resolving every registered device, building the
hop and noise distance matrices and the incident-edge tables, and
priming the gate-matrix LRU — then serve jobs from per-worker task
queues.

Assignment is parent-side: each worker has its own task queue and the
dispatcher hands a job to one *specific* idle worker, so the parent
always knows which job a worker holds.  If the worker process dies
mid-job (e.g. an injected ``kill`` fault), no in-queue message needs to
survive the crash for recovery — the parent's own bookkeeping names the
lost job, which rides the service's recovery thread (re-dispatch with a
fault-plan attempt offset, or quarantine once the job has proven itself
poison) while the worker is respawned.

Result-queue messages (worker -> parent):

``("ready", worker_id, pid)``
    Prewarm finished; the parent marks the worker idle.
``("done", worker_id, job_seq, payload, error)``
    Canonical payload bytes (or an error string) for one job.

Heartbeats deliberately do NOT ride the results queue.  Each worker
stamps ``time.monotonic()`` into a per-worker shared ``Value('d')`` on
every loop turn (idle tick, task pickup, completion); the parent's
health watchdog reads the timestamps to tell a *hung* worker (process
alive, compute wedged, stamp past the budget) from a merely busy one.
A shared double store is SIGKILL-safe, whereas a queue message is not:
killing a worker while its queue feeder thread is mid-write leaves a
partial frame in the shared pipe that desyncs the stream and swallows
the next worker's messages.

Workers compile through the same :func:`compute_payload` the parent's
inline path uses — one code path, so ``workers=0`` and ``workers=N``
produce byte-identical payloads.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import os
import pickle
import queue as stdlib_queue
import time
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from ..circuit.gates import Gate, gate_matrix
from ..compiler.routing import NoiseAwareRouter, SabreRouter, _incident_edges
from ..experiments.common import _record
from ..hardware import resolve_device
from ..hardware.device import Device
from ..resilience import FaultPlan, ResilienceConfig, map_with_resilience
from ..resilience.policy import RetryPolicy
from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing
from ..workloads.suite import BenchmarkCircuit
from .cache import result_key
from .jobs import MAPPERS, CompileRequest, build_payload

__all__ = [
    "WarmWorkerPool",
    "compute_payload",
    "prewarm",
]

#: Parameter-free gates primed into the matrix LRU at worker start.
_PREWARM_GATES = ("h", "x", "y", "z", "s", "t", "sdg", "tdg", "cx", "cz", "swap")


def prewarm(devices: Iterable[Device]) -> int:
    """Build the per-device derived tables once; returns tables built.

    Covers both router metrics (hops and noise) plus the incident-edge
    tables, and primes the gate-matrix LRU with the parameter-free
    basis — after this, a request touches only warm caches.
    """
    warmed = 0
    for device in devices:
        SabreRouter()._distance_matrix(device)
        NoiseAwareRouter()._distance_matrix(device)
        _incident_edges(device.coupling)
        warmed += 3
    for name in _PREWARM_GATES:
        qubits = (0, 1) if name in ("cx", "cz", "swap") else (0,)
        try:
            gate_matrix(Gate(name, qubits))
            warmed += 1
        except (KeyError, ValueError):  # pragma: no cover - registry drift
            continue
    return warmed


def compute_payload(
    request: CompileRequest, device: Device, attempt_base: int = 0
) -> bytes:
    """Compile one request to its canonical payload bytes.

    Runs under the resilience engine (per-job deadline, seeded retries,
    degradation chain).  A mapping is a pure function of (circuit,
    device, seed), so a retry after a transient fault produces
    bit-for-bit what a clean attempt produces.  The record is named by
    content hash — request cosmetics (circuit ``name``) must not leak
    into cached bytes.

    ``attempt_base`` is the number of worker-fatal incidents (crash or
    watchdog-killed hang) this job already caused; the fault plan is
    offset by it (:meth:`FaultPlan.offset_attempts`) so an injected
    ``kill@0`` fires exactly once across the whole dispatch history
    instead of once per fresh process.
    """
    circuit = request.circuit
    faults = FaultPlan.parse(request.faults) if request.faults else None
    if faults is not None and attempt_base:
        faults = faults.offset_attempts(attempt_base)
    config = ResilienceConfig(
        deadline_s=request.deadline_s,
        policy=RetryPolicy(),
        faults=faults,
    )
    mapper = MAPPERS[request.mapper]()
    result, info = map_with_resilience(
        circuit, device, mapper, config, circuit_index=0
    )
    key = result_key(circuit, request.device, device, request.mapper)
    benchmark = BenchmarkCircuit(circuit, "random", key.circuit)
    return build_payload(key, _record(benchmark, result), info)


def _worker_main(
    worker_id,
    device_specs,
    tasks,
    results,
    idle_tick_s=2.0,
    beat=None,
) -> None:
    """Process entry point: prewarm, then serve tasks until ``None``.

    Tasks arrive as pre-pickled tagged blobs — the parent pickles
    exactly once (with timing/size telemetry) and the queue ships
    opaque bytes, so dispatch serialization cost is both measured and
    paid in one place:

    ``("job", job_seq, request, calibration, epoch, attempt_base)``
        One compile.  ``calibration`` is the admission-epoch snapshot
        the parent pinned on the job; the worker compiles against *it*,
        not its own device state, so a job is correct even when the
        matching drift message is still behind it in the queue (or
        never arrived — respawned workers see no history).
        ``attempt_base`` counts the job's prior worker-fatal dispatches
        (fault-plan offset; see :func:`compute_payload`).
    ``("drift", spec, calibration)``
        A calibration-stream update: rebind the device and build its
        noise distance table now, so the next job at the new epoch finds
        it warm (the old epoch's table stays cached for pinned jobs).
    ``None``
        Shutdown sentinel.

    ``results`` is this worker's PRIVATE end of a pipe to the parent —
    one pipe per worker, single writer, no shared lock.  A shared
    results *queue* is not SIGKILL-safe: its writers serialise on one
    cross-process lock, and a worker killed between acquiring it and
    releasing it (the watchdog and chaos kills land at arbitrary
    instants) leaves the lock held forever, wedging every surviving and
    future worker's sends.  Heartbeats avoid messages entirely: the
    worker stamps ``time.monotonic()`` into ``beat`` (a lock-free
    shared double) on every loop turn, and the parent's watchdog reads
    the timestamp.
    """
    devices = {spec: resolve_device(spec) for spec in device_specs}
    prewarm(devices.values())
    if beat is not None:
        beat.value = time.monotonic()
    results.send(("ready", worker_id, os.getpid()))
    while True:
        try:
            task = tasks.get(timeout=idle_tick_s)
        except stdlib_queue.Empty:
            if beat is not None:
                beat.value = time.monotonic()
            continue
        if beat is not None:
            beat.value = time.monotonic()
        if task is None:
            break
        message = pickle.loads(task)
        if message[0] == "drift":
            _, spec, calibration = message
            if spec in devices:
                devices[spec] = replace(devices[spec], calibration=calibration)
                NoiseAwareRouter()._distance_matrix(devices[spec])
            continue
        _, job_seq, request, calibration, epoch, attempt_base = message
        try:
            device = devices.get(request.device)
            if device is None:
                device = devices[request.device] = resolve_device(
                    request.device
                )
            if calibration is not None and calibration != device.calibration:
                device = replace(device, calibration=calibration)
            payload = compute_payload(request, device, attempt_base=attempt_base)
            results.send(("done", worker_id, job_seq, payload, None))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            results.send(
                ("done", worker_id, job_seq, None, f"{type(exc).__name__}: {exc}")
            )


class WarmWorkerPool:
    """Parent-side handle on the persistent worker processes."""

    def __init__(
        self,
        num_workers: int,
        device_specs: Sequence[str],
        idle_tick_s: float = 2.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("WarmWorkerPool needs at least one worker")
        self.num_workers = num_workers
        self.device_specs = tuple(device_specs)
        #: How often an idle worker proves liveness; the service derives
        #: it from the heartbeat budget so an idle-but-hung worker is
        #: still caught within one budget.
        self.idle_tick_s = idle_tick_s
        self._ctx = multiprocessing.get_context()
        #: worker_id -> parent (receive) end of that worker's private
        #: result pipe.  One pipe per worker: a single shared results
        #: queue would serialise all workers on one cross-process write
        #: lock, which a SIGKILL mid-send leaves held forever.
        self._result_conns: Dict[int, mp_connection.Connection] = {}
        self._tasks: Dict[int, multiprocessing.Queue] = {}
        self._procs: Dict[int, multiprocessing.Process] = {}
        #: Old processes respawn() could not reap within its budget;
        #: stop() keeps retrying them so no zombie outlives the pool.
        self._stragglers: List[multiprocessing.Process] = []
        #: worker_id -> shared heartbeat timestamp (see _spawn).
        self._beats: Dict[int, object] = {}
        self._next_id = 0
        self.dispatch_bytes_total = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        for _ in range(self.num_workers):
            self._spawn()

    def _spawn(self) -> int:
        worker_id = self._next_id
        self._next_id += 1
        task_queue = self._ctx.Queue()
        # Heartbeat slot: the worker stamps time.monotonic() into it on
        # every loop turn.  A shared double survives SIGKILL cleanly —
        # unlike a queue message, whose partial write would corrupt a
        # shared results queue (see _worker_main).  0.0 means "still
        # prewarming": the watchdog must not time a worker's startup
        # (prewarm cost varies wildly with device size), so the worker
        # stamps its first beat only once it is ready to serve.
        beat = self._ctx.Value("d", 0.0, lock=False)
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.device_specs,
                task_queue,
                send_conn,
                self.idle_tick_s,
                beat,
            ),
            daemon=True,
            name=f"repro-service-worker-{worker_id}",
        )
        proc.start()
        # Close the parent's copy of the send end so the pipe reports
        # EOF (instead of hanging half-open) once the worker dies.
        send_conn.close()
        self._tasks[worker_id] = task_queue
        self._procs[worker_id] = proc
        self._beats[worker_id] = beat
        self._result_conns[worker_id] = recv_conn
        return worker_id

    @staticmethod
    def _reap(proc: multiprocessing.Process, budget_s: float) -> bool:
        """Join-or-escalate until ``proc`` is reaped; True when it is.

        ``join`` alone can wait forever on a worker wedged in compute
        (it never reads the sentinel), so the escalation ladder is
        join -> ``terminate()`` (SIGTERM) -> ``kill()`` (SIGKILL), each
        rung taking a share of the single overall ``budget_s``.
        ``exitcode is not None`` is the reaped test — the OS process is
        gone *and* its exit status collected, so no zombie remains.
        """
        deadline = time.monotonic() + budget_s
        for escalate in (None, "terminate", "kill"):
            if proc.exitcode is not None:
                return True
            if escalate is not None and proc.is_alive():
                getattr(proc, escalate)()
            remaining = deadline - time.monotonic()
            proc.join(timeout=max(0.05, remaining / 2))
        if proc.exitcode is None:  # pragma: no cover - unkillable (D state)
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        return proc.exitcode is not None

    def respawn(self, worker_id: int) -> int:
        """Replace a dead worker, keeping pool capacity constant.

        The old process is reaped (join escalating to terminate/kill)
        *before* its handle is dropped; a process that somehow survives
        the escalation is parked on the straggler list and retried at
        :meth:`stop` rather than abandoned as a zombie.
        """
        proc = self._procs.pop(worker_id, None)
        self._tasks.pop(worker_id, None)
        self._beats.pop(worker_id, None)
        conn = self._result_conns.pop(worker_id, None)
        if conn is not None:
            conn.close()
        if proc is not None and not self._reap(proc, budget_s=2.0):
            self._stragglers.append(proc)  # pragma: no cover - unkillable
        return self._spawn()

    def kill(self, worker_id: int) -> bool:
        """SIGKILL one worker (the watchdog's hammer for hung workers).

        Returns True when a live process was signalled.  The caller is
        expected to let the usual dead-worker sweep respawn it and
        re-dispatch whatever job it held.
        """
        proc = self._procs.get(worker_id)
        if proc is None or not proc.is_alive():
            return False
        try:
            proc.kill()
        except (OSError, ValueError):  # pragma: no cover - exit race
            return False
        return True

    def stop(self, timeout_s: float = 5.0) -> None:
        """Shut every worker down within one overall time budget.

        Cooperative first (the ``None`` sentinel), then the same
        join/terminate/kill escalation as :meth:`_reap` — a worker
        wedged in compute never reads the sentinel, and ``stop()`` must
        provably return regardless.
        """
        deadline = time.monotonic() + timeout_s
        for task_queue in self._tasks.values():
            try:
                task_queue.put_nowait(None)
            except stdlib_queue.Full:  # pragma: no cover - bounded queue
                pass
        procs = list(self._procs.values()) + self._stragglers
        for escalate in (None, "terminate", "kill"):
            alive = [p for p in procs if p.exitcode is None]
            if not alive:
                break
            if escalate is not None:
                for proc in alive:
                    if proc.is_alive():
                        getattr(proc, escalate)()
            share = max(0.05, (deadline - time.monotonic()) / (2 * len(alive)))
            for proc in alive:
                proc.join(timeout=share)
        self._procs.clear()
        self._tasks.clear()
        self._beats.clear()
        for conn in self._result_conns.values():
            conn.close()
        self._result_conns.clear()
        self._stragglers = [p for p in self._stragglers if p.exitcode is None]

    # -- dispatch ------------------------------------------------------
    def submit(
        self,
        worker_id: int,
        job_seq: int,
        request: CompileRequest,
        calibration=None,
        epoch: int = 0,
        attempt_base: int = 0,
    ) -> None:
        """Hand one job to one specific worker (raises ``KeyError`` if
        that worker was respawned away in the meantime).

        ``calibration``/``epoch`` are the admission-time snapshot the
        service pinned on the job; shipping them with every job makes
        worker compute independent of drift-message delivery order (and
        of respawn history).  The task is pickled here — once,
        parent-side — so the dispatch payload size and serialization
        time are observable (``payload_bytes{path="service_dispatch"}``,
        ``serialized_bytes_total`` / ``serialization_seconds_total``)
        instead of hidden inside the queue's feeder thread.
        """
        task_queue = self._tasks[worker_id]
        start = time.perf_counter()
        blob = pickle.dumps(
            ("job", job_seq, request, calibration, epoch, attempt_base),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.dispatch_bytes_total += len(blob)
        if tracing.is_enabled():
            telemetry_metrics.histogram(
                "payload_bytes",
                buckets=telemetry_metrics.BYTE_BUCKETS,
                path="service_dispatch",
            ).observe(float(len(blob)))
            telemetry_metrics.counter(
                "serialized_bytes_total", path="service_dispatch"
            ).inc(len(blob))
            telemetry_metrics.counter(
                "serialization_seconds_total",
                path="service_dispatch",
                stage="pickle",
            ).inc(time.perf_counter() - start)
        task_queue.put(blob)

    def broadcast_drift(self, spec: str, calibration) -> int:
        """Fan a calibration-drift notice out to every live worker.

        Returns the number of workers notified.  Per-worker queues are
        FIFO, so a drift notice never overtakes a job dispatched before
        it — and jobs carry their own pinned calibration anyway.
        """
        blob = pickle.dumps(
            ("drift", spec, calibration), protocol=pickle.HIGHEST_PROTOCOL
        )
        notified = 0
        for worker_id, task_queue in self._tasks.items():
            if not self.is_alive(worker_id):
                continue
            task_queue.put(blob)
            notified += 1
        return notified

    def is_alive(self, worker_id: int) -> bool:
        proc = self._procs.get(worker_id)
        return proc is not None and proc.is_alive()

    def worker_ids(self) -> List[int]:
        """Current worker ids (live and dead-but-unreaped)."""
        return list(self._procs)

    def pid(self, worker_id: int) -> Optional[int]:
        """OS pid of one worker (None if unknown)."""
        proc = self._procs.get(worker_id)
        return proc.pid if proc is not None else None

    def dead_workers(self) -> List[int]:
        """Worker ids whose process has exited (crash or kill)."""
        return [
            worker_id
            for worker_id, proc in self._procs.items()
            if not proc.is_alive()
        ]

    def poll_messages(self, timeout_s: float = 0.1) -> List[tuple]:
        """Drain every worker's result pipe (waits up to ``timeout_s``).

        A dead worker's pipe reports EOF; that is silently skipped here
        because :meth:`dead_workers` + ``respawn`` own the crash path —
        losing an in-flight message to SIGKILL is exactly the case the
        service recovers from parent-side bookkeeping, never from the
        transport.
        """
        conns = dict(self._result_conns)
        if not conns:
            time.sleep(timeout_s)
            return []
        try:
            ready = mp_connection.wait(list(conns.values()), timeout=timeout_s)
        except OSError:  # pragma: no cover - conn closed mid-wait
            return []
        messages: List[tuple] = []
        for conn in ready:
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                continue  # worker died; the dead-worker sweep owns it
        return messages

    def heartbeats(self) -> Dict[int, float]:
        """Last ``time.monotonic()`` each worker proved liveness at.

        Read directly from the per-worker shared slots — there is no
        message involved, so the reading is SIGKILL-safe and costs one
        double load per worker.  A value of ``0.0`` means the worker has
        not finished prewarming yet and must not be timed against the
        heartbeat budget.
        """
        return {
            worker_id: beat.value for worker_id, beat in self._beats.items()
        }

    def alive_count(self) -> int:
        return sum(1 for proc in self._procs.values() if proc.is_alive())
