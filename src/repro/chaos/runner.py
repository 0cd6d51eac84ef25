"""Drive a :class:`ChaosPlan` against a live service and prove it sane.

The runner makes chaos *falsifiable*.  It first answers the exact same
request stream with a fault-free twin (an inline ``workers=0`` service,
drift applied at the same wave boundaries so every epoch lines up),
then replays the stream against a pooled service while firing the
plan's events — and checks end-to-end invariants after every wave:

1. **Resolution** — every admitted job resolves, or is quarantined
   with a recorded reason (poison jobs *must* quarantine; nothing else
   may fail).
2. **Byte identity** — every resolved payload is byte-identical to the
   twin's payload for the same request index: kills, hangs, respawns
   and admission pressure may cost latency, never bytes.
3. **Exact counters** — ``cache hits + misses == admitted requests``
   at every wave boundary (each admitted job does exactly one lookup).
4. **Epoch pinning** — the calibration digest embedded in a payload
   equals the digest recorded for the job's *admission* epoch, never a
   later one, and the chaos run's per-epoch digests match the twin's.
5. **Worker recovery** — after kills and watchdog hang-kills the pool
   returns to full strength within a bounded window.

A planted-violation self-test (:mod:`repro.chaos.selftest`) proves the
checker itself can fail: a deliberately corrupted twin payload must be
reported, or the harness is vacuous.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, List, Optional, Tuple

from ..service import (
    AdmissionError,
    CompilationService,
    CompileRequest,
    PRIORITY_CLASSES,
    ServiceError,
)
from ..service.loadgen import build_corpus
from ..workloads import random_circuit
from .plan import ChaosPlan

__all__ = ["ChaosInvariantViolation", "ChaosReport", "ChaosRunner"]


class ChaosInvariantViolation(AssertionError):
    """At least one end-to-end invariant failed under the chaos plan."""


@dataclass(frozen=True)
class _Slot:
    """One request of the stream: the chaos copy carries the fault
    decoration, the twin copy is the same request with faults stripped."""

    index: int
    wave: int
    chaos: CompileRequest
    twin: CompileRequest
    mark: Optional[str] = None  # "hang" | "poison" | None


@dataclass
class ChaosReport:
    """What one chaos run did and whether the invariants held."""

    seed: int = 0
    waves: int = 0
    wave_size: int = 0
    workers: int = 0
    events: str = ""
    requests: int = 0
    admitted: int = 0
    rejected: int = 0
    resolved: int = 0
    quarantined: int = 0
    expected_quarantined: int = 0
    kills_injected: int = 0
    hangs_planted: int = 0
    hangs_detected: int = 0
    respawns: Dict[str, int] = field(default_factory=dict)
    drift_updates: int = 0
    checks: int = 0
    violations: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    twin_wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "waves": self.waves,
            "wave_size": self.wave_size,
            "workers": self.workers,
            "events": self.events,
            "requests": self.requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "resolved": self.resolved,
            "quarantined": self.quarantined,
            "expected_quarantined": self.expected_quarantined,
            "kills_injected": self.kills_injected,
            "hangs_planted": self.hangs_planted,
            "hangs_detected": self.hangs_detected,
            "respawns": dict(self.respawns),
            "drift_updates": self.drift_updates,
            "invariant_checks": self.checks,
            "violations": list(self.violations),
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
            "twin_wall_s": round(self.twin_wall_s, 3),
        }

    def format(self) -> str:
        lines = [
            f"chaos soak: seed {self.seed}, {self.waves} waves x "
            f"{self.wave_size}, workers={self.workers}",
            f"events:     {self.events}",
            f"requests:   {self.requests} ({self.admitted} admitted, "
            f"{self.rejected} rejected, {self.resolved} resolved, "
            f"{self.quarantined} quarantined)",
            f"faults:     {self.kills_injected} kills, "
            f"{self.hangs_detected}/{self.hangs_planted} hangs detected, "
            f"{self.drift_updates} drift updates, "
            f"respawns {self.respawns}",
            f"invariants: {self.checks} checks, "
            f"{len(self.violations)} violations "
            f"({'OK' if self.ok else 'FAILED'}), "
            f"wall {self.wall_s:.2f}s (twin {self.twin_wall_s:.2f}s)",
        ]
        lines.extend(f"  violation: {v}" for v in self.violations)
        return "\n".join(lines)


class ChaosRunner:
    """Replay one plan against a live service, invariants attached."""

    def __init__(
        self,
        plan: ChaosPlan,
        device: str = "surface7",
        workers: int = 2,
        mapper: str = "sabre",
        corpus_size: int = 8,
        corpus_seed: int = 7,
        stream_seed: int = 11,
        heartbeat_budget_s: float = 1.0,
        max_job_attempts: int = 2,
        timeout_s: float = 120.0,
        respawn_window_s: float = 20.0,
        raise_on_violation: bool = True,
        _tamper_wave: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("the chaos runner needs a pooled service")
        if plan.poison_attempts < max_job_attempts:
            raise ValueError(
                "plan.poison_attempts must be >= max_job_attempts or the "
                "poison job stops killing workers before quarantine"
            )
        self.plan = plan
        self.device = device
        self.workers = workers
        self.mapper = mapper
        self.corpus_size = corpus_size
        self.corpus_seed = corpus_seed
        self.stream_seed = stream_seed
        self.heartbeat_budget_s = heartbeat_budget_s
        self.max_job_attempts = max_job_attempts
        self.timeout_s = timeout_s
        self.respawn_window_s = respawn_window_s
        self.raise_on_violation = raise_on_violation
        #: Self-test hook: corrupt the twin payload of this wave's first
        #: request before comparing, proving the checker catches lies.
        self._tamper_wave = _tamper_wave

    # -- stream --------------------------------------------------------
    def _build_waves(self) -> List[List[_Slot]]:
        corpus = build_corpus(self.corpus_size, seed=self.corpus_seed)
        rng = Random(self.stream_seed)
        waves: List[List[_Slot]] = []
        index = 0
        for wave_no in range(self.plan.waves):
            size = self.plan.wave_size
            for event in self.plan.events_at(wave_no, ("pressure",)):
                size *= event.count
            decoration = self.plan.decoration(wave_no)
            slots: List[_Slot] = []
            for position in range(size):
                if position == 0 and decoration is not None:
                    # Fresh circuit => guaranteed cache miss => the
                    # decorated fault always reaches a real compute.
                    circuit = random_circuit(
                        5, 30, 0.5, seed=self.plan.seed * 7919 + wave_no
                    )
                    priority = "interactive"
                    faults = (
                        "hang@0"
                        if decoration.kind == "hang"
                        else f"kill@0x{self.plan.poison_attempts}"
                    )
                    mark = decoration.kind
                else:
                    circuit = corpus[rng.randrange(len(corpus))]
                    priority = PRIORITY_CLASSES[
                        rng.randrange(len(PRIORITY_CLASSES))
                    ]
                    faults = ""
                    mark = None
                chaos_request = CompileRequest(
                    circuit=circuit,
                    device=self.device,
                    mapper=self.mapper,
                    priority=priority,
                    faults=faults,
                )
                slots.append(
                    _Slot(
                        index=index,
                        wave=wave_no,
                        chaos=chaos_request,
                        twin=replace(chaos_request, faults=""),
                        mark=mark,
                    )
                )
                index += 1
            waves.append(slots)
        return waves

    def _apply_wave_drift(
        self, service: CompilationService, wave_no: int, cursor: int,
        digests: Dict[int, str],
    ) -> int:
        """Apply this wave's drift deltas; records digest per epoch."""
        assert self.plan.drift is not None or not self.plan.events_at(
            wave_no, ("drift",)
        )
        for event in self.plan.events_at(wave_no, ("drift",)):
            for _ in range(event.count):
                service.apply_drift(
                    self.plan.drift.updates[cursor], device=self.device
                )
                cursor += 1
                digests[service.calibration_epoch(self.device)] = (
                    service.calibration_digest(self.device)
                )
        return cursor

    # -- twin ----------------------------------------------------------
    def _twin_run(
        self, waves: List[List[_Slot]]
    ) -> Tuple[Dict[int, bytes], Dict[int, str], float]:
        start = time.perf_counter()
        payloads: Dict[int, bytes] = {}
        digests: Dict[int, str] = {}
        with CompilationService(
            workers=0, devices=(self.device,)
        ) as twin:
            digests[0] = twin.calibration_digest(self.device)
            cursor = 0
            for wave_no, slots in enumerate(waves):
                jobs = [(slot, twin.submit(slot.twin)) for slot in slots]
                for slot, job in jobs:
                    payloads[slot.index] = job.result(
                        timeout=self.timeout_s
                    ).payload
                cursor = self._apply_wave_drift(
                    twin, wave_no, cursor, digests
                )
        return payloads, digests, time.perf_counter() - start

    # -- chaos ---------------------------------------------------------
    def run(self) -> ChaosReport:
        waves = self._build_waves()
        report = ChaosReport(
            seed=self.plan.seed,
            waves=self.plan.waves,
            wave_size=self.plan.wave_size,
            workers=self.workers,
            events=self.plan.describe(),
            requests=sum(len(slots) for slots in waves),
            hangs_planted=self.plan.counts()["hang"],
            expected_quarantined=self.plan.counts()["poison"],
        )
        twin_payloads, twin_digests, report.twin_wall_s = self._twin_run(waves)
        start = time.perf_counter()
        digests: Dict[int, str] = {}
        service = CompilationService(
            workers=self.workers,
            devices=(self.device,),
            heartbeat_budget_s=self.heartbeat_budget_s,
            max_job_attempts=self.max_job_attempts,
        )
        service.start()
        try:
            digests[0] = service.calibration_digest(self.device)
            cursor = 0
            for wave_no, slots in enumerate(waves):
                respawns_before = sum(service.respawns_total.values())
                kills_this_wave = 0
                pending = []
                for slot in slots:
                    try:
                        pending.append((slot, service.submit(slot.chaos)))
                    except AdmissionError:
                        report.rejected += 1
                for event in self.plan.events_at(wave_no, ("kill",)):
                    for _ in range(event.count):
                        if service.inject_worker_kill() is not None:
                            report.kills_injected += 1
                            kills_this_wave += 1
                self._gather_and_check(
                    report, service, wave_no, pending, twin_payloads, digests
                )
                cursor = self._apply_wave_drift(
                    service, wave_no, cursor, digests
                )
                self._check_pool_recovered(
                    report, service, wave_no,
                    min_respawns=respawns_before + kills_this_wave,
                )
            self._check_final(report, service, digests, twin_digests)
        finally:
            if service._running:  # noqa: SLF001 - drain() may have stopped it
                service.stop()
        report.wall_s = time.perf_counter() - start
        if report.violations and self.raise_on_violation:
            raise ChaosInvariantViolation(
                f"{len(report.violations)} invariant violations:\n"
                + "\n".join(report.violations)
            )
        return report

    # -- invariants ----------------------------------------------------
    def _violate(self, report: ChaosReport, message: str) -> None:
        report.violations.append(message)

    def _gather_and_check(
        self,
        report: ChaosReport,
        service: CompilationService,
        wave_no: int,
        pending,
        twin_payloads: Dict[int, bytes],
        digests: Dict[int, str],
    ) -> None:
        tampered = self._tamper_wave == wave_no
        for slot, job in pending:
            try:
                response = job.result(timeout=self.timeout_s)
            except ServiceError as exc:
                if slot.mark == "poison" and job.quarantined:
                    report.quarantined += 1
                    report.checks += 1
                    if "quarantined" not in str(exc):
                        self._violate(
                            report,
                            f"wave {wave_no} request {slot.index}: "
                            f"quarantine error lacks a reason: {exc}",
                        )
                else:
                    self._violate(
                        report,
                        f"wave {wave_no} request {slot.index} "
                        f"(mark={slot.mark}): admitted job neither "
                        f"resolved nor quarantined: {exc}",
                    )
                continue
            report.resolved += 1
            if slot.mark == "poison":
                self._violate(
                    report,
                    f"wave {wave_no} request {slot.index}: poison job "
                    "resolved instead of being quarantined",
                )
                continue
            expected = twin_payloads[slot.index]
            if tampered:
                expected = bytes([expected[0] ^ 0xFF]) + expected[1:]
                tampered = False  # corrupt exactly one comparison
            report.checks += 1
            if response.payload != expected:
                self._violate(
                    report,
                    f"wave {wave_no} request {slot.index}: payload not "
                    "byte-identical to the fault-free twin "
                    f"(served_by={response.served_by})",
                )
            report.checks += 1
            embedded = json.loads(response.payload)["key"]["calibration"]
            pinned = digests.get(job.epoch)
            if pinned is None or embedded != pinned:
                self._violate(
                    report,
                    f"wave {wave_no} request {slot.index}: epoch pinning "
                    f"broken (admitted at epoch {job.epoch}, payload "
                    f"digest {embedded!r} vs recorded {pinned!r})",
                )
        # Exact-counter invariant: all admitted jobs have resolved (or
        # terminally failed), so lookups must equal admissions exactly.
        cache = service.cache.stats()
        report.checks += 1
        if cache["hits"] + cache["misses"] != service.requests_total:
            self._violate(
                report,
                f"wave {wave_no}: cache hits+misses "
                f"({cache['hits']}+{cache['misses']}) != admitted "
                f"requests ({service.requests_total})",
            )

    def _check_pool_recovered(
        self,
        report: ChaosReport,
        service: CompilationService,
        wave_no: int,
        min_respawns: int = 0,
    ) -> None:
        # SIGKILL delivery is asynchronous: right after an injected kill
        # the victim can still read as alive, so "pool is full strength"
        # alone would pass vacuously.  Also require the respawn counter
        # to have advanced past every kill fired this wave.
        deadline = time.monotonic() + self.respawn_window_s
        while time.monotonic() < deadline:
            if (
                service.alive_workers() >= self.workers
                and sum(service.respawns_total.values()) >= min_respawns
            ):
                report.checks += 1
                return
            time.sleep(0.05)
        self._violate(
            report,
            f"wave {wave_no}: pool not back to {self.workers} live "
            f"workers with >= {min_respawns} respawns within "
            f"{self.respawn_window_s}s (alive={service.alive_workers()}, "
            f"respawns={dict(service.respawns_total)})",
        )

    def _check_final(
        self,
        report: ChaosReport,
        service: CompilationService,
        digests: Dict[int, str],
        twin_digests: Dict[int, str],
    ) -> None:
        stats = service.stats()
        report.admitted = service.requests_total
        report.quarantined = service.quarantined_total
        report.hangs_detected = service.hangs_total
        report.respawns = dict(service.respawns_total)
        report.drift_updates = stats["drift"]["updates"]
        report.checks += 1
        if service.quarantined_total != report.expected_quarantined:
            self._violate(
                report,
                f"quarantined {service.quarantined_total} jobs, expected "
                f"exactly {report.expected_quarantined} (the planted "
                "poison jobs)",
            )
        for entry in stats["quarantine"]["jobs"]:
            report.checks += 1
            if not entry.get("reason") or not entry.get("attempts"):
                self._violate(
                    report,
                    f"quarantine entry for seq {entry.get('seq')} lacks "
                    "a reason or attempt history",
                )
        report.checks += 1
        if service.hangs_total != report.hangs_planted:
            self._violate(
                report,
                f"watchdog detected {service.hangs_total} hangs, "
                f"planted {report.hangs_planted}",
            )
        report.checks += 1
        if digests != twin_digests:
            self._violate(
                report,
                "per-epoch calibration digests diverged between the "
                f"chaos run ({digests}) and the twin ({twin_digests})",
            )
