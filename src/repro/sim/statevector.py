"""Dense state-vector simulator.

Used as the library's *oracle*: compiler passes are validated by checking
that compiled circuits act on states exactly like their inputs (up to the
qubit permutation that mapping introduces).  The simulator is a plain
numpy implementation; it comfortably handles the <= 20 qubit circuits the
test-suite and equivalence checks use.

State convention: the state of an ``n``-qubit register is an ``ndarray``
of shape ``(2,) * n`` where axis ``i`` is qubit ``i`` and axis index 0/1
is the computational value.  Qubit 0 is the most significant bit of the
flattened amplitude index, matching the gate-matrix convention in
:mod:`repro.circuit.gates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..circuit.gates import Gate, gate_matrix

__all__ = [
    "zero_state",
    "basis_state",
    "random_product_state",
    "random_product_states",
    "apply_gate",
    "apply_gate_batched",
    "fused_operations",
    "run_batched",
    "Simulator",
    "SimulationResult",
    "statevector",
    "probabilities",
    "sample_counts",
]

_MAX_QUBITS = 26


def _check_width(num_qubits: int) -> None:
    if num_qubits > _MAX_QUBITS:
        raise ValueError(
            f"dense simulation of {num_qubits} qubits exceeds the "
            f"{_MAX_QUBITS}-qubit limit"
        )


def zero_state(num_qubits: int) -> np.ndarray:
    """|0...0> as a ``(2,)*n`` tensor."""
    _check_width(num_qubits)
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0
    return state


def basis_state(num_qubits: int, bits: Sequence[int]) -> np.ndarray:
    """Computational basis state |bits[0] bits[1] ...>."""
    if len(bits) != num_qubits:
        raise ValueError("bit string length must equal qubit count")
    _check_width(num_qubits)
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[tuple(int(b) for b in bits)] = 1.0
    return state


def random_product_state(
    num_qubits: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Haar-random single-qubit states tensored together.

    Product inputs span the full space, so agreement of two unitaries on a
    handful of random product states certifies equality with overwhelming
    probability — this is what the mapping verifier exploits.
    """
    _check_width(num_qubits)
    rng = rng or np.random.default_rng()
    state = np.ones((), dtype=complex)
    for _ in range(num_qubits):
        amplitudes = rng.normal(size=2) + 1j * rng.normal(size=2)
        amplitudes /= np.linalg.norm(amplitudes)
        state = np.tensordot(state, amplitudes, axes=0)
    return state.reshape((2,) * num_qubits)


def random_product_states(
    num_qubits: int,
    num_states: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """A batch of Haar-random product states, shape ``(num_states, 2, ..., 2)``.

    Amplitudes are drawn in exactly the order ``num_states`` sequential
    calls to :func:`random_product_state` would draw them, so a seeded
    generator produces identical inputs for the batched and the serial
    verification paths.
    """
    if num_states < 1:
        raise ValueError(f"need at least one state, got {num_states}")
    _check_width(num_qubits)
    rng = rng or np.random.default_rng()
    states = np.empty((num_states,) + (2,) * num_qubits, dtype=complex)
    for index in range(num_states):
        states[index] = random_product_state(num_qubits, rng)
    return states


def _apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], offset: int
) -> np.ndarray:
    """Contract ``matrix`` into qubit axes ``offset + q`` of ``state``."""
    k = len(qubits)
    tensor = matrix.reshape((2,) * (2 * k))
    axes = [q + offset for q in qubits]
    moved = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), axes))
    # tensordot placed the gate's output axes first; restore positions.
    return np.moveaxis(moved, range(k), axes)


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply a unitary gate to a state tensor; returns a new tensor."""
    return _apply_matrix(state, gate_matrix(gate), gate.qubits, 0)


def apply_gate_batched(states: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a batch of states (batch axis first)."""
    return _apply_matrix(states, gate_matrix(gate), gate.qubits, 1)


def fused_operations(circuit: Circuit) -> List[Tuple[np.ndarray, Tuple[int, ...]]]:
    """Collapse runs of same-qubit single-qubit gates into one matrix each.

    Returns the circuit as a list of ``(matrix, qubits)`` applications in
    which every maximal run of adjacent single-qubit gates on one qubit
    (adjacent in the dependency sense: no intervening gate touches that
    qubit) is pre-multiplied into a single 2x2 matrix.  Multi-qubit gates
    pass through unchanged, so the fused list applies the exact same
    unitary with fewer (and never more) state-tensor contractions.

    Raises
    ------
    ValueError
        If the circuit contains directives (measure/reset/barrier); fuse
        after :meth:`~repro.circuit.Circuit.without_directives`.
    """
    operations: List[Tuple[np.ndarray, Tuple[int, ...]]] = []
    pending: Dict[int, np.ndarray] = {}
    for gate in circuit:
        if gate.is_directive:
            raise ValueError("gate fusion requires a directive-free circuit")
        if gate.num_qubits == 1:
            qubit = gate.qubits[0]
            matrix = gate_matrix(gate)
            held = pending.get(qubit)
            # Later gates multiply from the left: run g1;g2 has matrix M2@M1.
            pending[qubit] = matrix if held is None else matrix @ held
            continue
        for qubit in gate.qubits:
            held = pending.pop(qubit, None)
            if held is not None:
                operations.append((held, (qubit,)))
        operations.append((gate_matrix(gate), gate.qubits))
    for qubit, held in pending.items():
        operations.append((held, (qubit,)))
    return operations


def run_batched(
    circuit: Circuit,
    initial_states: np.ndarray,
    fuse: bool = True,
) -> np.ndarray:
    """Run a batch of initial states through one measurement-free circuit.

    ``initial_states`` carries the batch on axis 0: shape ``(B, 2**n)`` or
    ``(B,) + (2,)*n``.  Every gate is applied to the whole batch in one
    tensor contraction, so the per-gate Python dispatch cost — what
    dominates serial oracle runs on the <= 14-qubit verification circuits
    — is paid once per circuit instead of once per trial.  With ``fuse``
    (the default) adjacent same-qubit single-qubit gates are merged by
    :func:`fused_operations` before simulation.

    Returns the final states, shape ``(B,) + (2,)*n``.

    Raises
    ------
    ValueError
        For ``measure``/``reset`` (their outcomes are probabilistic and
        cannot be batched; use :class:`Simulator` per state), or when the
        state batch has the wrong dimension.  Barriers are skipped.
    """
    _check_width(circuit.num_qubits)
    if any(g.name in ("measure", "reset") for g in circuit):
        raise ValueError("run_batched() requires a measurement-free circuit")
    n = circuit.num_qubits
    states = np.asarray(initial_states, dtype=complex)
    if states.ndim < 1 or states.shape[0] == 0:
        raise ValueError("initial_states needs a non-empty batch axis")
    batch = states.shape[0]
    if states.size != batch * 2 ** n:
        raise ValueError("initial states have wrong dimension")
    states = states.reshape((batch,) + (2,) * n).copy()
    unitary_part = circuit.without_directives()
    if fuse:
        operations = fused_operations(unitary_part)
    else:
        operations = [(gate_matrix(g), g.qubits) for g in unitary_part]
    for matrix, qubits in operations:
        states = _apply_matrix(states, matrix, qubits, 1)
    return states


@dataclass
class SimulationResult:
    """Final state plus classical record of a simulation run.

    Attributes
    ----------
    state:
        Final state tensor, shape ``(2,)*n``.
    measurements:
        For each measured qubit, the list of outcomes in program order.
    """

    state: np.ndarray
    measurements: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def num_qubits(self) -> int:
        return self.state.ndim

    def amplitudes(self) -> np.ndarray:
        """Flat amplitude vector of length ``2**n`` (qubit 0 = MSB)."""
        return self.state.reshape(-1)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes()) ** 2

    def last_outcome(self, qubit: int) -> Optional[int]:
        outcomes = self.measurements.get(qubit)
        return outcomes[-1] if outcomes else None


class Simulator:
    """Stateful executor for circuits, with seeded measurement sampling.

    ``measure`` collapses the state and records the outcome; ``reset``
    measures then flips to |0> if needed; ``barrier`` is a no-op.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    def run(
        self, circuit: Circuit, initial_state: Optional[np.ndarray] = None
    ) -> SimulationResult:
        _check_width(circuit.num_qubits)
        if initial_state is None:
            state = zero_state(circuit.num_qubits)
        else:
            state = np.asarray(initial_state, dtype=complex)
            if state.size != 2 ** circuit.num_qubits:
                raise ValueError("initial state has wrong dimension")
            state = state.reshape((2,) * circuit.num_qubits).copy()
        result = SimulationResult(state=state)
        for gate in circuit:
            if gate.name == "barrier":
                continue
            if gate.name == "measure":
                outcome, result.state = self._measure(result.state, gate.qubits[0])
                result.measurements.setdefault(gate.qubits[0], []).append(outcome)
                continue
            if gate.name == "reset":
                outcome, collapsed = self._measure(result.state, gate.qubits[0])
                if outcome == 1:
                    collapsed = apply_gate(collapsed, Gate("x", gate.qubits))
                result.state = collapsed
                continue
            result.state = apply_gate(result.state, gate)
        return result

    def _measure(self, state: np.ndarray, qubit: int) -> Tuple[int, np.ndarray]:
        moved = np.moveaxis(state, qubit, 0)
        p1 = float(np.sum(np.abs(moved[1]) ** 2))
        outcome = 1 if self._rng.random() < p1 else 0
        probability = p1 if outcome == 1 else 1.0 - p1
        if probability <= 0.0:  # numerical guard; pick the certain branch
            outcome = 1 - outcome
            probability = 1.0 - probability
        collapsed = np.zeros_like(moved)
        collapsed[outcome] = moved[outcome] / math.sqrt(probability)
        return outcome, np.moveaxis(collapsed, 0, qubit)


def statevector(
    circuit: Circuit, initial_state: Optional[np.ndarray] = None
) -> np.ndarray:
    """Final state of a measurement-free run of ``circuit`` from |0...0>.

    Raises
    ------
    ValueError
        If the circuit contains ``measure`` or ``reset`` (their outcomes
        are probabilistic; use :class:`Simulator` for those).
    """
    if any(g.name in ("measure", "reset") for g in circuit):
        raise ValueError("statevector() requires a measurement-free circuit")
    return Simulator(seed=0).run(circuit, initial_state).state


def probabilities(circuit: Circuit) -> np.ndarray:
    """Measurement probabilities of the final state (length ``2**n``)."""
    return np.abs(statevector(circuit).reshape(-1)) ** 2


def sample_counts(
    circuit: Circuit, shots: int, seed: Optional[int] = None
) -> Dict[str, int]:
    """Sample ``shots`` computational-basis outcomes of the final state.

    Returns a histogram keyed by bit strings (qubit 0 leftmost), built in
    one :func:`numpy.unique` pass rather than a per-shot Python loop.

    Raises
    ------
    ValueError
        When ``shots`` is not a positive integer.
    """
    if shots <= 0:
        raise ValueError(f"shots must be a positive integer, got {shots}")
    probs = probabilities(circuit.without_directives())
    rng = np.random.default_rng(seed)
    n = circuit.num_qubits
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    values, tallies = np.unique(outcomes, return_counts=True)
    return {
        (format(int(value), f"0{n}b") if n else ""): int(tally)
        for value, tally in zip(values, tallies)
    }
