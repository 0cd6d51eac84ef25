"""Compilation-as-a-service: queue, warm workers, cross-request cache.

The serving layer the ROADMAP's north star calls for: a priority job
queue with admission control (:mod:`~repro.service.queue`), persistent
warm worker processes that load device tables, distance caches and the
gate-matrix LRU once (:mod:`~repro.service.workers`), and a
cross-request compiled-result cache keyed on ``(circuit content hash,
device name, calibration version, mapper)`` with exact hit/miss/
eviction counters (:mod:`~repro.service.cache`).  See
``docs/service.md`` for the full contract.

Typical in-process use::

    from repro.service import CompilationService, ServiceClient

    with CompilationService(workers=2, devices=("surface17",)) as service:
        client = ServiceClient(service)
        response = client.compile(circuit, priority="interactive")
        record = response.record()

``repro serve`` boots the same service from the command line.
"""

from .cache import ResultCache, ResultKey, calibration_version, result_key
from .jobs import (
    MAPPERS,
    PRIORITY_CLASSES,
    CompileRequest,
    CompileResponse,
    Job,
    ServiceDraining,
    ServiceError,
)
from .loadgen import LoadReport, build_corpus, drive, generate_requests
from .queue import DEFAULT_CLASS_LIMITS, AdmissionError, JobQueue
from .service import (
    CompilationService,
    DrainReport,
    ServiceClient,
    install_drain_handlers,
)
from .workers import WarmWorkerPool, compute_payload, prewarm

__all__ = [
    "AdmissionError",
    "LoadReport",
    "build_corpus",
    "drive",
    "generate_requests",
    "CompilationService",
    "CompileRequest",
    "CompileResponse",
    "DEFAULT_CLASS_LIMITS",
    "DrainReport",
    "Job",
    "JobQueue",
    "MAPPERS",
    "PRIORITY_CLASSES",
    "ResultCache",
    "ResultKey",
    "ServiceClient",
    "ServiceDraining",
    "ServiceError",
    "WarmWorkerPool",
    "calibration_version",
    "compute_payload",
    "install_drain_handlers",
    "prewarm",
    "result_key",
]
