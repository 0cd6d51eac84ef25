"""Common circuit size parameters.

These are the three "classical" benchmark descriptors the paper contrasts
with interaction-graph profiling (Sec. III/IV): number of qubits, number
of gates and two-qubit-gate percentage, plus circuit depth.  They are
collected into a small record so experiment code and the profiler share
one definition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from .circuit import Circuit

__all__ = ["SizeParameters", "size_parameters"]


@dataclass(frozen=True)
class SizeParameters:
    """The common algorithm parameters used in the literature.

    Attributes
    ----------
    num_qubits:
        Qubits *used* by the circuit (idle register tails excluded, which
        matches how benchmark suites report qubit counts).
    num_gates:
        Proper gate count (directives excluded).
    num_two_qubit_gates:
        Count of two-qubit unitary gates.
    two_qubit_fraction:
        ``num_two_qubit_gates / num_gates`` (0 for empty circuits).
    depth:
        Dependency depth of the circuit.
    """

    num_qubits: int
    num_gates: int
    num_two_qubit_gates: int
    two_qubit_fraction: float
    depth: int

    @property
    def two_qubit_percentage(self) -> float:
        """Two-qubit-gate share in percent, as plotted in Fig. 3(b)."""
        return 100.0 * self.two_qubit_fraction

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


def size_parameters(circuit: Circuit) -> SizeParameters:
    """Compute the :class:`SizeParameters` of ``circuit``."""
    num_gates, depth = circuit.gates_and_depth()
    num_two_qubit_gates = circuit.num_two_qubit_gates
    return SizeParameters(
        num_qubits=len(circuit.used_qubits()),
        num_gates=num_gates,
        num_two_qubit_gates=num_two_qubit_gates,
        # Circuit.two_qubit_fraction, without walking the circuit again.
        two_qubit_fraction=num_two_qubit_gates / num_gates if num_gates else 0.0,
        depth=depth,
    )
