"""Delta-debugging minimizer for failing fuzz samples.

Given a sample and a predicate ``still_fails``, the shrinker greedily
applies three reductions while the predicate keeps holding:

1. **Drop gates** — ddmin-style chunk removal, halving the chunk size
   down to single gates and restarting after every successful cut.
2. **Merge qubits** — redirect one qubit onto another (dropping gates
   that would collapse onto a single wire) and compact the register.
3. **Shrink the topology** — swap the device for the deterministic
   smallest member of its class that still fits the circuit.

Shrinking is deterministic: same failing sample and predicate, same
minimal reproducer.  Predicates are treated as opaque — any exception
they raise counts as "does not fail", so flaky oracles cannot trap the
shrinker in an invalid region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List

from ..circuit import Circuit, Gate
from .generator import FuzzSample, minimal_device

__all__ = ["ShrinkResult", "shrink_circuit", "shrink_sample"]

CircuitPredicate = Callable[[Circuit], bool]
SamplePredicate = Callable[[FuzzSample], bool]

#: Safety valve: total number of predicate evaluations per shrink.
_MAX_PROBES = 2000


@dataclass(frozen=True)
class ShrinkResult:
    """A minimized sample plus the bookkeeping of how it got there."""

    sample: FuzzSample
    gates_before: int
    gates_after: int
    qubits_before: int
    qubits_after: int
    probes: int

    @property
    def reduced(self) -> bool:
        return (
            self.gates_after < self.gates_before
            or self.qubits_after < self.qubits_before
        )


class _ProbeBudget:
    """Counts predicate calls and swallows predicate exceptions."""

    def __init__(self, predicate, limit: int = _MAX_PROBES) -> None:
        self._predicate = predicate
        self._limit = limit
        self.used = 0

    def __call__(self, candidate) -> bool:
        if self.used >= self._limit:
            return False
        self.used += 1
        try:
            return bool(self._predicate(candidate))
        except Exception:
            return False


def _rebuild(circuit: Circuit, gates: List[Gate]) -> Circuit:
    return Circuit(circuit.num_qubits, gates, name=circuit.name)


def _compact(circuit: Circuit) -> Circuit:
    """Renumber to the touched qubits only (width >= 1)."""
    used = sorted({q for gate in circuit.gates for q in gate.qubits})
    if not used:
        return Circuit(1, name=circuit.name)
    mapping = {q: i for i, q in enumerate(used)}
    gates = [
        replace(gate, qubits=tuple(mapping[q] for q in gate.qubits))
        for gate in circuit.gates
    ]
    return Circuit(len(used), gates, name=circuit.name)


def _drop_gates(circuit: Circuit, still_fails: CircuitPredicate) -> Circuit:
    """ddmin over the gate list: remove chunks, restart on success."""
    gates = list(circuit.gates)
    chunk = max(1, len(gates) // 2)
    while chunk >= 1:
        start = 0
        removed_any = False
        while start < len(gates):
            candidate = gates[:start] + gates[start + chunk:]
            if still_fails(_rebuild(circuit, candidate)):
                gates = candidate
                removed_any = True
                # Do not advance: the next chunk slid into this slot.
            else:
                start += chunk
        if removed_any and chunk > 1:
            chunk = max(1, len(gates) // 2)
        else:
            chunk //= 2
    return _rebuild(circuit, gates)


def _merge_qubits(circuit: Circuit, still_fails: CircuitPredicate) -> Circuit:
    """Try redirecting each qubit onto a lower one, compacting after."""
    current = circuit
    improved = True
    while improved:
        improved = False
        for victim in range(current.num_qubits - 1, 0, -1):
            for target in range(victim):
                gates: List[Gate] = []
                for gate in current.gates:
                    qubits = tuple(
                        target if q == victim else q for q in gate.qubits
                    )
                    if len(set(qubits)) != len(qubits):
                        continue  # gate collapsed onto one wire: drop it
                    gates.append(replace(gate, qubits=qubits))
                candidate = _compact(_rebuild(current, gates))
                if candidate.num_qubits >= current.num_qubits:
                    continue
                if still_fails(candidate):
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


def shrink_circuit(
    circuit: Circuit, still_fails: CircuitPredicate
) -> Circuit:
    """Minimize ``circuit`` while ``still_fails`` keeps returning true.

    The caller guarantees ``still_fails(circuit)`` holds on entry; the
    result is a (possibly identical) circuit on which it still holds.
    """
    budget = _ProbeBudget(still_fails)
    current = _drop_gates(circuit, budget)
    current = _merge_qubits(current, budget)
    # A second gate-drop pass: merging often unlocks more removals.
    current = _drop_gates(current, budget)
    compacted = _compact(current)
    if compacted.num_qubits < current.num_qubits and budget(compacted):
        current = compacted
    return current


def shrink_sample(
    sample: FuzzSample, still_fails: SamplePredicate
) -> ShrinkResult:
    """Minimize a failing sample: gates, then qubits, then the device."""
    budget = _ProbeBudget(still_fails)

    def circuit_fails(candidate: Circuit) -> bool:
        return budget(replace(sample, circuit=candidate))

    circuit = _drop_gates(sample.circuit, circuit_fails)
    circuit = _merge_qubits(circuit, circuit_fails)
    circuit = _drop_gates(circuit, circuit_fails)
    compacted = _compact(circuit)
    if compacted.num_qubits < circuit.num_qubits and circuit_fails(compacted):
        circuit = compacted
    current = replace(sample, circuit=circuit)

    try:
        smallest = minimal_device(
            sample.topology_class, circuit.num_qubits
        )
    except ValueError:
        smallest = None
    if (
        smallest is not None
        and smallest.num_qubits < current.device.num_qubits
    ):
        candidate = replace(current, device=smallest)
        if budget(candidate):
            current = candidate

    return ShrinkResult(
        sample=current,
        gates_before=len(sample.circuit),
        gates_after=len(current.circuit),
        qubits_before=sample.circuit.num_qubits,
        qubits_after=current.circuit.num_qubits,
        probes=budget.used,
    )
