"""Circuit-fidelity estimation.

The paper's Fig. 3 caption: "Circuit fidelity is calculated as product of
fidelities for all one- and two-qubit gates in the circuit, based on the
error-rate values taken from [32]".  :func:`product_fidelity` implements
exactly that model; :func:`decoherence_fidelity` extends it with the
qubit-idling (T1/T2) exposure that a scheduled circuit reveals, for the
latency-aware ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..circuit import Circuit
from ..hardware.calibration import Calibration, SURFACE17_CALIBRATION

__all__ = [
    "product_fidelity",
    "log_fidelity",
    "fidelity_decrease",
    "decoherence_fidelity",
    "crosstalk_overlaps",
    "crosstalk_fidelity",
    "FidelityReport",
    "fidelity_report",
]


def _fidelity_walk(
    circuit: Circuit, calibration: Calibration, include_measurement: bool
) -> Tuple[float, float]:
    """One walk over ``circuit``: ``(product, log-sum)`` of gate fidelities.

    The product skips barriers, and measure/reset unless
    ``include_measurement``; the log-sum always skips all three
    directives.  A gate fidelity ``<= 0`` turns the log-sum into
    ``-inf`` while the product goes on multiplying.
    """
    gate_error = calibration.gate_error
    product = 1.0
    total = 0.0
    zero = False
    for gate in circuit:
        name = gate.name
        if name == "barrier":
            continue
        if name == "measure" or name == "reset":
            if include_measurement:
                product *= 1.0 - gate_error(gate)
            continue
        fidelity = 1.0 - gate_error(gate)
        product *= fidelity
        if zero:
            continue
        if fidelity <= 0.0:
            zero = True
        else:
            total += math.log(fidelity)
    return product, -math.inf if zero else total


def product_fidelity(
    circuit: Circuit,
    calibration: Calibration = SURFACE17_CALIBRATION,
    include_measurement: bool = False,
) -> float:
    """The paper's fidelity model: product of all gate fidelities.

    Parameters
    ----------
    circuit:
        Circuit on physical qubits (per-qubit/per-edge calibration
        overrides apply when present).
    calibration:
        Error-rate source; defaults to the Versluis Surface-17 numbers.
    include_measurement:
        Whether measurement/reset operations contribute their assignment
        error (the paper's model counts only one- and two-qubit gates,
        so the default is off).
    """
    return _fidelity_walk(circuit, calibration, include_measurement)[0]


def log_fidelity(
    circuit: Circuit, calibration: Calibration = SURFACE17_CALIBRATION
) -> float:
    """Natural log of :func:`product_fidelity` (robust for huge circuits).

    The product underflows to zero beyond a few thousand two-qubit gates;
    sums of logs stay meaningful for the paper's 100000-gate circuits.
    """
    return _fidelity_walk(circuit, calibration, False)[1]


def fidelity_decrease(
    before: Circuit,
    after: Circuit,
    calibration: Calibration = SURFACE17_CALIBRATION,
) -> float:
    """Relative fidelity drop caused by mapping — the y-axis of Fig. 3(c).

    ``(F_before - F_after) / F_before = 1 - F_after / F_before``,
    computed in log space so very deep circuits do not underflow.
    """
    delta = log_fidelity(after, calibration) - log_fidelity(before, calibration)
    return 1.0 - math.exp(delta)


def decoherence_fidelity(
    schedule,
    calibration: Calibration = SURFACE17_CALIBRATION,
) -> float:
    """Gate-fidelity product times per-qubit idle decoherence factors.

    Each qubit contributes ``exp(-t_idle / T2)`` for its idle time in the
    schedule (dephasing-limited, the standard first-order model).  Takes
    a :class:`~repro.compiler.scheduling.Schedule`.
    """
    base = product_fidelity(schedule.circuit, calibration)
    t2_ns = calibration.t2_us * 1000.0
    factor = 1.0
    for qubit in range(schedule.circuit.num_qubits):
        idle = schedule.idle_time_ns(qubit)
        if idle > 0:
            factor *= math.exp(-idle / t2_ns)
    return base * factor


def crosstalk_overlaps(schedule, coupling) -> int:
    """Count pairs of concurrent two-qubit gates on adjacent edges.

    Gate-induced crosstalk (the effect the paper's cited mitigation work
    — Murali et al. ASPLOS'20, Ding et al. MICRO'20 — compiles around)
    strikes when two entangling gates run simultaneously on coupled
    qubits.  Each such overlapping pair counts once.
    """
    two_qubit = [e for e in schedule.entries if e.gate.is_two_qubit]
    count = 0
    for i, a in enumerate(two_qubit):
        for b in two_qubit[i + 1 :]:
            if a.start_ns < b.end_ns and b.start_ns < a.end_ns:
                if any(
                    coupling.are_adjacent(qa, qb)
                    for qa in a.gate.qubits
                    for qb in b.gate.qubits
                ):
                    count += 1
    return count


def crosstalk_fidelity(
    schedule,
    coupling,
    calibration: Calibration = SURFACE17_CALIBRATION,
) -> float:
    """Gate-product fidelity times the crosstalk penalty.

    Each concurrent adjacent two-qubit-gate pair multiplies the fidelity
    by ``1 - calibration.crosstalk_error``.  A crosstalk-free schedule
    (``asap_schedule(..., crosstalk_free=True)``) has no penalty — at the
    cost of a longer schedule, which is exactly the trade-off the
    crosstalk-ablation bench quantifies.
    """
    base = product_fidelity(schedule.circuit, calibration)
    penalty = (1.0 - calibration.crosstalk_error) ** crosstalk_overlaps(
        schedule, coupling
    )
    return base * penalty


@dataclass(frozen=True)
class FidelityReport:
    """Before/after fidelity of a mapping step."""

    fidelity_before: float
    fidelity_after: float
    log_fidelity_before: float
    log_fidelity_after: float

    @property
    def decrease(self) -> float:
        """Relative fidelity decrease (Fig. 3(c) y-axis)."""
        return 1.0 - math.exp(self.log_fidelity_after - self.log_fidelity_before)

    @property
    def decrease_percent(self) -> float:
        return 100.0 * self.decrease

    def as_dict(self) -> Dict[str, float]:
        return {
            "fidelity_before": self.fidelity_before,
            "fidelity_after": self.fidelity_after,
            "decrease_percent": self.decrease_percent,
        }


def fidelity_report(
    before: Circuit,
    after: Circuit,
    calibration: Calibration = SURFACE17_CALIBRATION,
) -> FidelityReport:
    """Product and log fidelity of both circuits, one walk per circuit."""
    fidelity_before, log_before = _fidelity_walk(before, calibration, False)
    fidelity_after, log_after = _fidelity_walk(after, calibration, False)
    return FidelityReport(
        fidelity_before=fidelity_before,
        fidelity_after=fidelity_after,
        log_fidelity_before=log_before,
        log_fidelity_after=log_after,
    )
