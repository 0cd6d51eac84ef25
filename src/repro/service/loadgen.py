"""Deterministic mixed-priority load generation for the service.

Drives ``repro serve`` (self-driving demo mode): builds a seeded corpus
of distinct circuits, samples a request stream with repeats (repeats are
what the cross-request cache exists for), and drives the stream through
a running service in bounded waves, collecting per-request latencies.
The chaos harness, ``bench/serving.py`` and the tests reuse the corpus
builder.

Waves are the load generator's concurrency knob: each wave is submitted
as a batch and gathered before the next, so repeated circuits usually
arrive *after* their first compute finished and land as cache hits
(within-wave repeats ride the in-flight compute as coalesced misses
instead — still just one compute per distinct key).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence

from ..circuit import Circuit
from ..workloads import random_circuit
from .jobs import PRIORITY_CLASSES, CompileRequest
from .service import CompilationService, ServiceClient

__all__ = ["LoadReport", "build_corpus", "generate_requests", "drive"]


def build_corpus(
    num_circuits: int,
    seed: int = 7,
    min_qubits: int = 4,
    max_qubits: int = 7,
) -> List[Circuit]:
    """Seeded distinct circuits spanning a small width/depth range."""
    rng = Random(seed)
    corpus = []
    for index in range(num_circuits):
        qubits = rng.randint(min_qubits, max_qubits)
        gates = rng.randint(20, 60)
        corpus.append(
            random_circuit(qubits, gates, 0.5, seed=seed * 10_000 + index)
        )
    return corpus


def generate_requests(
    corpus: Sequence[Circuit],
    num_requests: int,
    seed: int = 11,
    device: str = "surface17",
    mapper: str = "sabre",
    fault_at: Optional[int] = None,
    fault: str = "raise@0",
) -> List[CompileRequest]:
    """Sample a mixed-priority request stream over ``corpus``.

    ``fault_at`` injects ``fault`` on that request index (the resilience
    engine absorbs it: a ``raise`` retries, a ``kill`` crashes the
    worker and exercises the parent-side recovery path).  The faulted
    request is pinned to ``interactive`` priority so it dispatches
    before any same-circuit rival and the fault is guaranteed to hit a
    real compute instead of a cache hit or coalesced wait.
    """
    rng = Random(seed)
    requests = []
    for index in range(num_requests):
        circuit = corpus[rng.randrange(len(corpus))]
        priority = PRIORITY_CLASSES[rng.randrange(len(PRIORITY_CLASSES))]
        if index == fault_at:
            priority = PRIORITY_CLASSES[0]
        requests.append(
            CompileRequest(
                circuit=circuit,
                device=device,
                mapper=mapper,
                priority=priority,
                faults=fault if index == fault_at else "",
            )
        )
    return requests


@dataclass
class LoadReport:
    """What one driven load looked like from the client's side."""

    num_requests: int
    wall_s: float
    latencies_s: List[float] = field(default_factory=list)
    stats: Dict = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        return self.num_requests / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile(self, quantile: float) -> float:
        """Nearest-rank percentile of per-request latency (seconds)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def cache_hit_rate(self) -> float:
        return self.stats.get("cache", {}).get("hit_rate", 0.0)

    @property
    def no_compute_rate(self) -> float:
        """Share of requests served without a fresh compile (cache hits
        plus coalesced riders on an in-flight identical compute)."""
        served = self.stats.get("cache", {}).get("hits", 0)
        served += self.stats.get("coalesced", 0)
        requests = self.stats.get("requests", 0)
        return served / requests if requests else 0.0

    def summary(self) -> Dict:
        """JSON-ready digest (what ``repro serve`` prints)."""
        cache = self.stats.get("cache", {})
        return {
            "requests": self.num_requests,
            "wall_s": round(self.wall_s, 4),
            "requests_per_second": round(self.requests_per_second, 2),
            "latency_p50_ms": round(self.latency_percentile(0.50) * 1e3, 3),
            "latency_p99_ms": round(self.latency_percentile(0.99) * 1e3, 3),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "no_compute_rate": round(self.no_compute_rate, 4),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_evictions": cache.get("evictions", 0),
            "coalesced": self.stats.get("coalesced", 0),
            "recovered": self.stats.get("recovered", 0),
            "failed": self.stats.get("failed", 0),
            "workers": self.stats.get("workers", 0),
        }


def drive(
    service: CompilationService,
    requests: Sequence[CompileRequest],
    wave_size: int = 8,
    timeout: float = 120.0,
) -> LoadReport:
    """Run a request stream through ``service`` in bounded waves."""
    client = ServiceClient(service)
    latencies: List[float] = []
    start = time.perf_counter()
    for offset in range(0, len(requests), wave_size):
        wave = requests[offset : offset + wave_size]
        responses = client.compile_many(wave, timeout=timeout)
        latencies.extend(response.elapsed_s for response in responses)
    wall = time.perf_counter() - start
    return LoadReport(
        num_requests=len(requests),
        wall_s=wall,
        latencies_s=latencies,
        stats=service.stats(),
    )
