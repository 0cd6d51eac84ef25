"""Device calibration: error rates, durations and coherence times.

The paper computes circuit fidelity "as product of fidelities for all
one- and two-qubit gates in the circuit, based on the error-rate values
taken from [32]" (Versluis et al., Phys. Rev. Applied 8, 034021).  This
module encodes those numbers as :data:`SURFACE17_CALIBRATION` and provides
the lookup machinery (with optional per-qubit / per-edge overrides) that
the fidelity model and the noise-aware passes consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet

from ..circuit.gates import Gate

__all__ = [
    "Calibration",
    "SURFACE17_CALIBRATION",
    "IBM_FALCON_CALIBRATION",
    "IDEAL_CALIBRATION",
]


@dataclass(frozen=True)
class Calibration:
    """Gate-level error and timing model of a device.

    Attributes
    ----------
    single_qubit_error:
        Default error probability of any one-qubit unitary.
    two_qubit_error:
        Default error probability of any two-qubit unitary (CZ/CNOT/SWAP
        primitives; a decomposed SWAP pays per primitive instead).
    measurement_error:
        Readout assignment error probability.
    single_qubit_duration_ns / two_qubit_duration_ns /
    measurement_duration_ns:
        Gate durations in nanoseconds (used by the scheduler and the
        decoherence-aware fidelity model).
    t1_us / t2_us:
        Relaxation and dephasing times in microseconds.
    qubit_errors:
        Optional per-qubit override of the one-qubit error rate.
    edge_errors:
        Optional per-edge override of the two-qubit error rate, keyed by
        ``frozenset({a, b})``.
    """

    single_qubit_error: float = 0.001
    two_qubit_error: float = 0.01
    measurement_error: float = 0.01
    single_qubit_duration_ns: float = 20.0
    two_qubit_duration_ns: float = 40.0
    measurement_duration_ns: float = 300.0
    t1_us: float = 30.0
    t2_us: float = 20.0
    qubit_errors: Dict[int, float] = field(default_factory=dict)
    edge_errors: Dict[FrozenSet[int], float] = field(default_factory=dict)
    #: Extra error probability charged to each pair of *simultaneously
    #: executing two-qubit gates on adjacent edges* (gate-induced
    #: crosstalk; see repro.metrics.fidelity.crosstalk_fidelity).
    crosstalk_error: float = 0.005
    name: str = ""

    def __post_init__(self) -> None:
        for label, value in (
            ("single_qubit_error", self.single_qubit_error),
            ("two_qubit_error", self.two_qubit_error),
            ("measurement_error", self.measurement_error),
            ("crosstalk_error", self.crosstalk_error),
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{label} must be in [0, 1), got {value}")
        for label, value in (
            ("single_qubit_duration_ns", self.single_qubit_duration_ns),
            ("two_qubit_duration_ns", self.two_qubit_duration_ns),
            ("measurement_duration_ns", self.measurement_duration_ns),
            ("t1_us", self.t1_us),
            ("t2_us", self.t2_us),
        ):
            if value <= 0:
                raise ValueError(f"{label} must be positive, got {value}")

    # ------------------------------------------------------------------
    def cache_key(self) -> tuple:
        """Hashable fingerprint of every number that feeds a cost model.

        Acts as the calibration's *version*: two calibrations with equal
        keys produce identical error/timing lookups, so derived tables
        (e.g. the noise-aware router's distance matrix) may be shared.
        """
        return (
            self.single_qubit_error,
            self.two_qubit_error,
            self.measurement_error,
            self.single_qubit_duration_ns,
            self.two_qubit_duration_ns,
            self.measurement_duration_ns,
            self.t1_us,
            self.t2_us,
            self.crosstalk_error,
            tuple(sorted(self.qubit_errors.items())),
            tuple(
                sorted((tuple(sorted(k)), v) for k, v in self.edge_errors.items())
            ),
        )

    # ------------------------------------------------------------------
    def gate_error(self, gate: Gate) -> float:
        """Error probability of one gate application on physical qubits."""
        name = gate.name
        if name == "barrier":
            return 0.0
        if name == "measure" or name == "reset":
            return self.measurement_error
        qubits = gate.qubits
        arity = len(qubits)
        if arity == 1:
            return self.qubit_errors.get(qubits[0], self.single_qubit_error)
        if arity == 2:
            return self.edge_error(*qubits)
        # Multi-qubit primitives cost like their CNOT decomposition; a
        # Toffoli needs six two-qubit gates.
        return min(0.999999, 6.0 * self.two_qubit_error)

    def edge_error(self, a: int, b: int) -> float:
        """Error probability of a two-qubit gate on physical qubits ``a, b``."""
        if not self.edge_errors:  # skip building the frozenset key
            return self.two_qubit_error
        return self.edge_errors.get(frozenset((a, b)), self.two_qubit_error)

    def gate_fidelity(self, gate: Gate) -> float:
        return 1.0 - self.gate_error(gate)

    def gate_duration_ns(self, gate: Gate) -> float:
        """Duration of one gate application in nanoseconds."""
        if gate.name == "barrier":
            return 0.0
        if gate.name in ("measure", "reset"):
            return self.measurement_duration_ns
        if gate.num_qubits == 1:
            return self.single_qubit_duration_ns
        if gate.num_qubits == 2:
            return self.two_qubit_duration_ns
        return 6.0 * self.two_qubit_duration_ns

    # ------------------------------------------------------------------
    def with_qubit_error(self, qubit: int, error: float) -> "Calibration":
        """Copy with a per-qubit one-qubit-gate error override."""
        overrides = dict(self.qubit_errors)
        overrides[qubit] = error
        return replace(self, qubit_errors=overrides)

    def with_edge_error(self, a: int, b: int, error: float) -> "Calibration":
        """Copy with a per-edge two-qubit-gate error override."""
        overrides = dict(self.edge_errors)
        overrides[frozenset((a, b))] = error
        return replace(self, edge_errors=overrides)

    def with_updates(
        self,
        edge_errors: "Dict[FrozenSet[int], float] | None" = None,
        qubit_errors: "Dict[int, float] | None" = None,
    ) -> "Calibration":
        """Copy with a batch of per-edge/per-qubit overrides merged in.

        The streaming-drift path (:mod:`repro.hardware.drift`) applies
        each :class:`~repro.hardware.drift.CalibrationDelta` through this
        method: existing overrides not named in the update are kept, and
        the result is a fresh frozen calibration whose
        :meth:`cache_key` reflects the new rates.
        """
        merged_edges = dict(self.edge_errors)
        for key, value in (edge_errors or {}).items():
            merged_edges[frozenset(key)] = value
        merged_qubits = dict(self.qubit_errors)
        for qubit, value in (qubit_errors or {}).items():
            merged_qubits[int(qubit)] = value
        return replace(
            self, edge_errors=merged_edges, qubit_errors=merged_qubits
        )

    def scaled(self, factor: float) -> "Calibration":
        """Copy with all error rates multiplied by ``factor`` (sweeps)."""
        clip = lambda e: min(0.999999, e * factor)  # noqa: E731
        return replace(
            self,
            single_qubit_error=clip(self.single_qubit_error),
            two_qubit_error=clip(self.two_qubit_error),
            measurement_error=clip(self.measurement_error),
            qubit_errors={q: clip(e) for q, e in self.qubit_errors.items()},
            edge_errors={k: clip(e) for k, e in self.edge_errors.items()},
        )


#: Error rates and timings of the Versluis et al. surface-code proposal:
#: 99.9% single-qubit and 99% CZ gate fidelity, 20/40 ns gate times,
#: transmon-typical coherence.  These are the numbers behind Fig. 3.
SURFACE17_CALIBRATION = Calibration(
    single_qubit_error=0.001,
    two_qubit_error=0.01,
    measurement_error=0.01,
    single_qubit_duration_ns=20.0,
    two_qubit_duration_ns=40.0,
    measurement_duration_ns=300.0,
    t1_us=30.0,
    t2_us=20.0,
    name="surface17-versluis",
)

#: Representative IBM Falcon-generation numbers, for cross-device sweeps.
IBM_FALCON_CALIBRATION = Calibration(
    single_qubit_error=0.0003,
    two_qubit_error=0.008,
    measurement_error=0.02,
    single_qubit_duration_ns=35.0,
    two_qubit_duration_ns=300.0,
    measurement_duration_ns=700.0,
    t1_us=100.0,
    t2_us=90.0,
    name="ibm-falcon",
)

#: Noise-free device (fidelity model degenerates to 1.0 everywhere).
IDEAL_CALIBRATION = Calibration(
    single_qubit_error=0.0,
    two_qubit_error=0.0,
    measurement_error=0.0,
    crosstalk_error=0.0,
    name="ideal",
)
