"""``decompose_circuit`` lowers each distinct parameter-free gate once.

Its output must equal the concatenated ``decompose_gate`` output gate for
gate, parameter bit patterns included, for every standard gate kind
under every shipped gate set; repeats of a parameter-free gate share the
lowered gate objects, and parametrised gates keep the sign of zero.
"""

import math
import struct

import numpy as np
import pytest

from repro.circuit import Circuit, Gate
from repro.circuit.gates import STANDARD_GATES
from repro.compiler import decompose_circuit, decompose_gate
from repro.hardware import CNOT_GATESET, IBM_BASIS_GATESET, SURFACE17_GATESET

GATESETS = [SURFACE17_GATESET, IBM_BASIS_GATESET, CNOT_GATESET]
NUM_QUBITS = 4


def fields(circuit_or_gates):
    return [
        (g.name, g.qubits, tuple(struct.pack("<d", p) for p in g.params))
        for g in circuit_or_gates
    ]


def every_kind_with_repeats() -> Circuit:
    """Every standard kind on two qubit placements, each placement twice."""
    rng = np.random.default_rng(26)
    circuit = Circuit(NUM_QUBITS)
    for name, definition in sorted(STANDARD_GATES.items()):
        arity = definition.num_qubits or 2
        params = tuple(float(x) for x in rng.uniform(-3, 3, definition.num_params))
        low = tuple(range(arity))
        high = tuple(NUM_QUBITS - 1 - q for q in low)
        for qubits in (low, high):
            gate = Gate(name, qubits, params)
            circuit.append(gate).append(gate)
    return circuit


@pytest.mark.parametrize("gate_set", GATESETS, ids=lambda g: g.name)
class TestLoweringMemo:
    def test_equals_per_gate_lowering(self, gate_set):
        circuit = every_kind_with_repeats()
        expected = [lowered for g in circuit for lowered in decompose_gate(g, gate_set)]
        out = decompose_circuit(circuit, gate_set)
        assert fields(out) == fields(expected)
        assert out.num_qubits == circuit.num_qubits
        assert out.name == circuit.name

    def test_parameter_free_repeats_share_gates(self, gate_set):
        circuit = Circuit(3).ccx(0, 1, 2).h(0).ccx(0, 1, 2)
        out = decompose_circuit(circuit, gate_set)
        first = decompose_gate(circuit[0], gate_set)
        size = len(first)
        assert len(out) == 2 * size + len(decompose_gate(circuit[1], gate_set))
        repeat = out.gates[len(out) - size :]
        assert all(a is b for a, b in zip(out.gates[:size], repeat))

    def test_signed_zero_parameters_keep_their_sign(self, gate_set):
        # Gate equality treats cp(0.0) and cp(-0.0) as equal, but their
        # lowerings differ in the sign of every zero angle.
        circuit = Circuit(2).cp(0.0, 0, 1).cp(-0.0, 0, 1)
        out = decompose_circuit(circuit, gate_set)
        expected = [
            lowered for g in circuit for lowered in decompose_gate(g, gate_set)
        ]
        assert fields(out) == fields(expected)


def test_cnot_set_keeps_native_zero_phases():
    # Under the CNOT set the phase gates survive, so the signs are visible.
    out = decompose_circuit(Circuit(2).cp(0.0, 0, 1).cp(-0.0, 0, 1), CNOT_GATESET)
    signs = [math.copysign(1.0, g.params[0]) for g in out if g.name == "p"]
    assert signs == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
