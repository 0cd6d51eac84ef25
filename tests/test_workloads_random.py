"""Unit tests for the random-circuit generators."""

import pytest

from repro.workloads import (
    random_circuit,
    random_clifford_circuit,
    supremacy_style_circuit,
)


class TestRandomCircuit:
    def test_exact_gate_count(self):
        circuit = random_circuit(5, 120, 0.3, seed=0)
        assert circuit.num_gates == 120

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_exact_two_qubit_fraction(self, fraction):
        circuit = random_circuit(6, 200, fraction, seed=1)
        assert circuit.num_two_qubit_gates == round(200 * fraction)

    def test_deterministic_with_seed(self):
        a = random_circuit(4, 50, 0.4, seed=42)
        b = random_circuit(4, 50, 0.4, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_circuit(4, 50, 0.4, seed=1)
        b = random_circuit(4, 50, 0.4, seed=2)
        assert a != b

    def test_gate_pools_respected(self):
        circuit = random_circuit(
            4, 60, 0.5, seed=0, one_qubit_gates=("h",), two_qubit_gates=("cz",)
        )
        assert set(circuit.count_ops()) <= {"h", "cz"}

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(4, 10, 1.5)

    def test_two_qubit_on_single_qubit_register_rejected(self):
        with pytest.raises(ValueError):
            random_circuit(1, 10, 0.5)

    def test_single_qubit_register_all_1q(self):
        circuit = random_circuit(1, 10, 0.0, seed=3)
        assert circuit.num_gates == 10

    def test_parametric_angles_in_range(self):
        circuit = random_circuit(
            3, 40, 0.0, seed=5, one_qubit_gates=("rx", "ry", "rz")
        )
        for gate in circuit:
            assert 0.0 <= gate.params[0] < 6.3


class TestCliffordCircuit:
    def test_only_clifford_gates(self):
        circuit = random_clifford_circuit(5, 80, seed=0)
        assert set(circuit.count_ops()) <= {"h", "s", "sdg", "x", "y", "z", "cx", "cz"}

    def test_size(self):
        assert random_clifford_circuit(5, 80, seed=0).num_gates == 80


class TestSupremacyCircuit:
    def test_structure(self):
        circuit = supremacy_style_circuit(3, 3, depth=4, seed=0)
        assert circuit.num_qubits == 9
        # One H per qubit + depth * (one 1q per qubit + some cz).
        assert circuit.count_ops()["h"] >= 9

    def test_interactions_form_grid(self):
        from repro.core import InteractionGraph

        circuit = supremacy_style_circuit(3, 3, depth=8, seed=1)
        graph = InteractionGraph.from_circuit(circuit)
        # Grid interactions only: no edge between qubits that are not
        # grid-adjacent (|r1-r2| + |c1-c2| == 1).
        for a, b, _ in graph.edges():
            ra, ca = divmod(a, 3)
            rb, cb = divmod(b, 3)
            assert abs(ra - rb) + abs(ca - cb) == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            supremacy_style_circuit(0, 3, 2)

    def test_deterministic(self):
        assert supremacy_style_circuit(2, 3, 3, seed=9) == supremacy_style_circuit(
            2, 3, 3, seed=9
        )
