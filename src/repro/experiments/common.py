"""Shared experiment harness: map a suite, collect one record per circuit.

Every figure of the paper is a scatter over the same underlying sweep —
"We have compiled 200 quantum circuits by using the same hardware and
mapping configuration as described in caption of Fig. 3" — so the sweep
runs once and each figure module projects the records it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..circuit import SizeParameters, size_parameters
from ..compiler.mapper import MappingResult, QuantumMapper
from ..core.metrics import GraphMetrics, circuit_graph_metrics
from ..hardware.device import Device, surface17_extended_device
from ..workloads.suite import BenchmarkCircuit

__all__ = [
    "MappingRecord",
    "run_suite",
    "paper_configuration",
    "stratified_spearman",
    "records_to_csv",
    "DEFAULT_QUBIT_BANDS",
]

#: Qubit-count strata used to decouple graph-structure effects from the
#: circuit-width confounder (wider circuits see larger chip distances, so
#: raw overhead correlates with width before anything else).
DEFAULT_QUBIT_BANDS = ((9, 16), (17, 28), (29, 54))


@dataclass(frozen=True)
class MappingRecord:
    """One benchmark's profile and mapping outcome.

    Combines everything any of Figs. 3/5 plots: the classical size
    parameters, the Table I graph metrics (computed on the *decomposed*
    circuit, i.e. after lowering to the primitive gate set), and the
    overhead/fidelity results of the mapping run.
    """

    name: str
    family: str
    size: SizeParameters
    metrics: GraphMetrics
    gates_before: int
    gates_after: int
    gate_overhead_percent: float
    swap_count: int
    depth_before: int
    depth_after: int
    fidelity_before: float
    fidelity_after: float
    log_fidelity_before: float
    log_fidelity_after: float

    @property
    def is_synthetic(self) -> bool:
        """Squares in the paper's plots (random + reversible circuits)."""
        return self.family != "real"

    @property
    def fidelity_decrease(self) -> float:
        """Relative fidelity drop caused by mapping (Fig. 3(c) y-axis)."""
        return 1.0 - math.exp(self.log_fidelity_after - self.log_fidelity_before)

    @property
    def fidelity_decrease_percent(self) -> float:
        return 100.0 * self.fidelity_decrease

    def as_dict(self) -> Dict[str, float]:
        record = {
            "name": self.name,
            "family": self.family,
            "num_qubits": self.size.num_qubits,
            "num_gates": self.size.num_gates,
            "two_qubit_percent": self.size.two_qubit_percentage,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "gate_overhead_percent": self.gate_overhead_percent,
            "swap_count": self.swap_count,
            "fidelity_before": self.fidelity_before,
            "fidelity_after": self.fidelity_after,
            "fidelity_decrease_percent": self.fidelity_decrease_percent,
        }
        record.update(
            {f"metric_{k}": v for k, v in self.metrics.as_dict().items()}
        )
        return record


def paper_configuration() -> Device:
    """The evaluation device of Figs. 3 and 5.

    "mapped into an extended 100-qubit version of the Surface-17 hardware
    configuration ... error-rate values taken from [32]".
    """
    return surface17_extended_device(100)


def _record(benchmark: BenchmarkCircuit, result: MappingResult) -> MappingRecord:
    decomposed = result.decomposed
    return MappingRecord(
        name=benchmark.source,
        family=benchmark.family,
        size=size_parameters(benchmark.circuit),
        # Memoised on circuit content: Fig. 4/5 and Table I sweeps profile
        # the same decomposed circuits, so repeated experiments reuse the
        # vector instead of recomputing the Table I suite.
        metrics=circuit_graph_metrics(decomposed),
        gates_before=result.overhead.gates_before,
        gates_after=result.overhead.gates_after,
        gate_overhead_percent=result.overhead.gate_overhead_percent,
        swap_count=result.swap_count,
        depth_before=result.overhead.depth_before,
        depth_after=result.overhead.depth_after,
        fidelity_before=result.fidelity.fidelity_before,
        fidelity_after=result.fidelity.fidelity_after,
        log_fidelity_before=result.fidelity.log_fidelity_before,
        log_fidelity_after=result.fidelity.log_fidelity_after,
    )


def stratified_spearman(
    records: Sequence[MappingRecord],
    value_fn: Callable[[MappingRecord], float],
    target_fn: Optional[Callable[[MappingRecord], float]] = None,
    bands: Sequence = DEFAULT_QUBIT_BANDS,
    min_band_size: int = 8,
) -> float:
    """Width-controlled rank correlation against gate overhead.

    Computes the Spearman correlation of ``value_fn(record)`` against
    ``target_fn(record)`` (default: gate overhead %) *within* each qubit
    band and averages the per-band values.  Relative gate overhead is
    strongly confounded by circuit width (wider placements mean longer
    SWAP chains regardless of structure); stratifying removes that
    confounder so the graph-structure effect of Table I is visible.
    """
    from ..core.codesign import spearman_correlation

    if target_fn is None:
        target_fn = lambda r: r.gate_overhead_percent  # noqa: E731
    correlations = []
    for low, high in bands:
        members = [r for r in records if low <= r.size.num_qubits <= high]
        if len(members) < min_band_size:
            continue
        correlations.append(
            spearman_correlation(
                [value_fn(r) for r in members], [target_fn(r) for r in members]
            )
        )
    if not correlations:
        raise ValueError("no band had enough records")
    return float(sum(correlations) / len(correlations))


def run_suite(
    benchmarks: Sequence[BenchmarkCircuit],
    device: Optional[Device] = None,
    mapper: Optional[QuantumMapper] = None,
    progress: Optional[Callable[[int, int, str], None]] = None,
    workers: int = 1,
) -> List[MappingRecord]:
    """Map every benchmark and collect the records.

    Benchmarks wider than the device are skipped (the paper's suite is
    bounded by the 100-qubit chip by construction; this guards ad-hoc
    suites).  ``progress`` receives ``(index, total, name)`` per circuit.

    The sweep runs on :func:`repro.runtime.run_suite_parallel` with
    ``workers`` processes (``1``, the default, maps inline).  A mapping
    is a pure function of (circuit, device, seed), so the records do not
    depend on the worker count.  A circuit whose mapping raises does not
    abort the sweep: the failures are raised together at the end as one
    :class:`RuntimeError`.
    """
    from ..runtime import run_suite_parallel

    report = run_suite_parallel(
        benchmarks,
        device=device,
        mapper=mapper,
        workers=workers,
        progress=progress,
    )
    if report.failures:
        details = "; ".join(
            f"{f.name}: {f.error}" for f in report.failures[:5]
        )
        raise RuntimeError(
            f"{len(report.failures)} circuit(s) failed to map ({details})"
        )
    return report.records


def records_to_csv(records: Sequence[MappingRecord], path) -> "Path":
    """Write mapping records to a CSV file (one row per benchmark).

    Columns are the union of :meth:`MappingRecord.as_dict` keys (size
    parameters, overhead/fidelity results and every ``metric_*`` graph
    metric), so the file feeds any external plotting tool directly.
    """
    import csv
    from pathlib import Path

    if not records:
        raise ValueError("no records to write")
    path = Path(path)
    rows = [r.as_dict() for r in records]
    fieldnames = list(rows[0].keys())
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return path
