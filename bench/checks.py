"""Output checks, run outside the timed region.

Every check appends a message to ``Result.problems`` on failure, which
makes the run report ``"correct": false`` and exit non-zero.  A planted
fault (``--plant-fault record|payload``) corrupts one output before the
checks run, to prove they can fail.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from typing import Callable, Dict, List, Sequence

from repro.circuit import size_parameters
from repro.core import metrics as core_metrics
from repro.experiments.common import MappingRecord
from repro.resilience.journal import encode_record

from common import Result

#: Mappings checked against the state-vector oracle per sweep run.
SAMPLE_CIRCUITS = 8
#: Widest circuit sampled, and most physical qubits its mapping may
#: touch, for the state-vector oracle.
ORACLE_QUBITS = 10
#: Service responses recompiled and compared byte for byte per run.
SAMPLE_RESPONSES = 32


def expected_record(benchmark, result) -> MappingRecord:
    """The mapping record of one circuit, built from public functions."""
    overhead, fidelity = result.overhead, result.fidelity
    return MappingRecord(
        name=benchmark.source,
        family=benchmark.family,
        size=size_parameters(benchmark.circuit),
        metrics=core_metrics.circuit_graph_metrics(result.decomposed),
        gates_before=overhead.gates_before,
        gates_after=overhead.gates_after,
        gate_overhead_percent=overhead.gate_overhead_percent,
        swap_count=result.swap_count,
        depth_before=overhead.depth_before,
        depth_after=overhead.depth_after,
        fidelity_before=fidelity.fidelity_before,
        fidelity_after=fidelity.fidelity_after,
        log_fidelity_before=fidelity.log_fidelity_before,
        log_fidelity_after=fidelity.log_fidelity_after,
    )


def touched_qubits(mapped) -> int:
    """Physical qubits a mapping acts on or places a virtual qubit on."""
    used = set(mapped.initial_layout.values()) | set(mapped.final_layout.values())
    for gate in mapped.mapped:
        used.update(gate.qubits)
    return len(used)


def records_digest(records: Sequence[MappingRecord]) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(encode_record(record).encode("ascii"))
    return digest.hexdigest()


def payloads_digest(payloads: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(payload)
    return digest.hexdigest()


def check_sweep(
    result: Result,
    population: Sequence,
    records: Sequence[MappingRecord],
    device,
    mapper_factory: Callable,
    seed: int,
    plant: str = "",
) -> None:
    """Serial re-map of seeded circuits: equal records, coupling-legal
    two-qubit gates and, for the first ``SAMPLE_CIRCUITS`` whose mapping
    touches at most ``ORACLE_QUBITS`` physical qubits, a passing
    state-vector oracle."""
    records = list(records)
    result.check(
        len(records) == len(population),
        f"{len(records)} records for {len(population)} circuits",
    )
    narrow = [
        index
        for index, benchmark in enumerate(population)
        if benchmark.circuit.num_qubits <= ORACLE_QUBITS
    ]
    candidates = random.Random(seed).sample(narrow, len(narrow))
    if plant == "record" and candidates:
        victim = candidates[0]
        records[victim] = dataclasses.replace(
            records[victim], swap_count=records[victim].swap_count + 1
        )
    checks = failures = 0
    oracle_s = 0.0
    for index in candidates:
        if checks == SAMPLE_CIRCUITS:
            break
        benchmark = population[index]
        mapped = mapper_factory().map(benchmark.circuit, device)
        if expected_record(benchmark, mapped) != records[index]:
            result.check(False, f"{benchmark.source}: parallel record differs from serial")
        for gate in mapped.mapped:
            if gate.is_unitary and gate.num_qubits == 2 and not device.coupling.has_edge(*gate.qubits):
                result.check(False, f"{benchmark.source}: {gate.name}{gate.qubits} off the coupling graph")
                break
        if touched_qubits(mapped) > ORACLE_QUBITS:
            continue  # routed wider than the oracle sample; the next candidate stands in
        start = time.perf_counter()
        ok = mapped.verify()
        oracle_s += time.perf_counter() - start
        checks += 1
        if not ok:
            failures += 1
            result.check(False, f"{benchmark.source}: state-vector oracle rejects the mapping")
    result.check(checks > 0, f"no sampled mapping touches at most {ORACLE_QUBITS} qubits: the oracle checked nothing")
    result.put("sim.verify.checks", checks)
    result.put("sim.verify.failures", failures)
    result.put("sim.verify.self_s", oracle_s)
    result.details["digest"] = records_digest(records)


def check_payloads(result: Result, served: Sequence[tuple], seed: int, plant: str = "") -> None:
    """Compare a seeded sample of ``(request, epoch, payload, reference)``
    responses with a fresh ``reference(request, epoch)`` compile."""
    picks = sorted(random.Random(seed).sample(range(len(served)), min(SAMPLE_RESPONSES, len(served))))
    expected: Dict[tuple, bytes] = {}
    for position, index in enumerate(picks):
        request, epoch, payload, reference = served[index]
        if plant == "payload" and position == 0:
            payload = payload.replace(b'"swap_count":', b'"swap_count":1')
        key = (request.circuit.content_hash(), epoch, id(reference))
        if key not in expected:
            expected[key] = reference(request, epoch)
        if payload != expected[key]:
            result.check(False, f"response {index} (epoch {epoch}) differs from a fresh compile")
    result.details["checked_responses"] = len(picks)


def quality(result: Result, records: Sequence[MappingRecord]) -> None:
    """Mean gate overhead and fidelity decrease, the paper's Fig. 3 axes."""
    result.put("gate_overhead_pct_mean", sum(r.gate_overhead_percent for r in records) / len(records))
    result.put("fidelity_decrease_pct_mean", sum(r.fidelity_decrease_percent for r in records) / len(records))


def service_quality(result: Result, payloads: List[bytes]) -> None:
    """:func:`quality` over the distinct payloads (each compiled artifact
    counts once, however often it was served), plus their digest."""
    from repro.service.jobs import CompileResponse

    quality(result, [CompileResponse(p, False, 0.0, "").record() for p in dict.fromkeys(payloads)])
    result.details["digest"] = payloads_digest(payloads)
