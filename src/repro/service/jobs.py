"""Job model for the compilation service.

A :class:`CompileRequest` is what a client submits: the circuit, the
device and mapper *names* (resolved server-side so the cache key is a
pure function of strings plus the circuit's content hash), a priority
class, and optional per-job resilience knobs.  A :class:`Job` wraps one
admitted request with a future-like completion handle; the dispatcher
resolves it with a :class:`CompileResponse` whose ``payload`` bytes are
canonical — identical requests always resolve to identical bytes, which
is the contract the cross-request cache serves under.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..circuit import Circuit
from ..compiler.mapper import MAPPERS
from ..resilience.journal import decode_record, encode_record

__all__ = [
    "PRIORITY_CLASSES",
    "MAPPERS",
    "ServiceError",
    "ServiceDraining",
    "CompileRequest",
    "CompileResponse",
    "Job",
    "build_payload",
]

#: Priority classes, best first.  ``interactive`` jumps the queue,
#: ``batch`` is the default, ``bulk`` fills leftover capacity.
PRIORITY_CLASSES = ("interactive", "batch", "bulk")

_PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITY_CLASSES)}


class ServiceError(RuntimeError):
    """A job failed, was rejected, or the service is shutting down."""


class ServiceDraining(ServiceError):
    """The service is draining: admission is closed, in-flight work is
    finishing, and queued jobs are being journaled.  A typed rejection
    so clients can distinguish "resubmit elsewhere/later" from a hard
    failure."""


@dataclass(frozen=True)
class CompileRequest:
    """One compilation request; picklable so warm workers can take it.

    ``device`` and ``mapper`` are registry names (see
    :func:`repro.hardware.resolve_device` and
    :data:`repro.compiler.mapper.MAPPERS`) — the server resolves them,
    so the client never ships device objects.
    ``faults`` is a :meth:`~repro.resilience.faults.FaultPlan.parse`
    spec string evaluated at circuit index 0 (testing/drills only).
    """

    circuit: Circuit
    device: str = "surface17"
    mapper: str = "sabre"
    priority: str = "batch"
    deadline_s: Optional[float] = None
    faults: str = ""

    def validate(self) -> None:
        if self.priority not in _PRIORITY_RANK:
            raise ServiceError(
                f"unknown priority {self.priority!r} "
                f"(use one of {PRIORITY_CLASSES})"
            )
        if self.mapper not in MAPPERS:
            raise ServiceError(
                f"unknown mapper {self.mapper!r} "
                f"(use one of {tuple(sorted(MAPPERS))})"
            )

    @property
    def priority_rank(self) -> int:
        return _PRIORITY_RANK[self.priority]


@dataclass(frozen=True)
class CompileResponse:
    """What a resolved job hands back.

    ``payload`` is the canonical response: sorted-key, separator-free
    JSON bytes that are byte-identical for identical cache keys no
    matter which worker produced them or whether the cache served them.
    The metadata fields (``cached``, ``elapsed_s``, ``served_by``) are
    deliberately *outside* the payload — they describe this particular
    serving, not the compiled artifact.
    """

    payload: bytes
    cached: bool
    elapsed_s: float
    served_by: str

    def to_dict(self) -> Dict[str, Any]:
        """Parsed payload body."""
        return json.loads(self.payload.decode("utf-8"))

    def record(self):
        """The embedded :class:`~repro.experiments.common.MappingRecord`."""
        return decode_record(self.to_dict()["record"])


def build_payload(key, record, info) -> bytes:
    """Canonical response bytes for one compiled result.

    Everything here must be a deterministic function of the cache key:
    the record pickles byte-identically across worker counts (the suite
    runner's determinism contract), and only the *path-independent*
    resilience fields (which router/steps produced the artifact) are
    included — attempt/retry tallies vary under injected faults and
    would break byte-identity between a retried and a clean compute.
    """
    body = {
        "key": {
            "circuit": key.circuit,
            "device": key.device,
            "calibration": key.calibration,
            "mapper": key.mapper,
        },
        "record": encode_record(record),
        "swap_count": record.swap_count,
        "gate_overhead_percent": record.gate_overhead_percent,
        "depth_after": record.depth_after,
        "fidelity_after": record.fidelity_after,
        "router": info.router,
        "steps": list(info.steps),
        "degraded": info.degraded,
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class Job:
    """An admitted request plus its completion handle."""

    def __init__(self, seq: int, request: CompileRequest, key) -> None:
        self.seq = seq
        self.request = request
        self.key = key
        #: Device snapshot pinned at admission: every compute path for
        #: this job (inline, pooled, crash recovery) uses exactly this
        #: calibration, so drift applied mid-flight cannot leak into a
        #: payload cached under the admission epoch's key.
        self.device = None
        #: Calibration-stream epoch at admission (0 without a stream).
        self.epoch: int = 0
        self.submitted_s: float = 0.0
        #: One entry per worker-fatal incident this job's compute caused
        #: (``{"kind": "crash"|"hang", "worker": id, "epoch": n}``) —
        #: the evidence trail the quarantine decision and its terminal
        #: error payload are built from.
        self.attempt_history: list = []
        #: Set when the job was quarantined (terminal; never retried).
        self.quarantined: bool = False
        #: Set while the job rides the recovery path (re-dispatch after
        #: a worker loss); completions are labelled ``served_by=
        #: "recovery"`` regardless of which process computed them.
        self.recovering: bool = False
        self._done = threading.Event()
        self._response: Optional[CompileResponse] = None
        self._error: Optional[str] = None

    @property
    def sort_key(self):
        """Heap order: best priority class first, FIFO within a class."""
        return (self.request.priority_rank, self.seq)

    # -- resolution (dispatcher side) ----------------------------------
    def resolve(self, response: CompileResponse) -> bool:
        """Complete the job; returns False if it was already resolved
        (a late worker result racing the parent-side crash recovery)."""
        if self._done.is_set():
            return False
        self._response = response
        self._done.set()
        return True

    def fail(self, error: str) -> bool:
        if self._done.is_set():
            return False
        self._error = error
        self._done.set()
        return True

    # -- waiting (client side) -----------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> CompileResponse:
        if not self._done.wait(timeout):
            raise ServiceError(f"job {self.seq} timed out after {timeout}s")
        if self._error is not None:
            raise ServiceError(f"job {self.seq} failed: {self._error}")
        assert self._response is not None
        return self._response
