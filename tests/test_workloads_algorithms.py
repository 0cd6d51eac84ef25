"""Semantic tests for the real-algorithm workloads.

Each generator is validated against its mathematical specification using
the state-vector oracle, not just structurally.
"""

import math

import numpy as np
import pytest

from repro.sim import circuit_unitary, probabilities, sample_counts, statevector
from repro.workloads import (
    bernstein_vazirani,
    deutsch_jozsa,
    ghz_state,
    grover,
    inverse_qft,
    qft,
    quantum_phase_estimation,
    vqe_ansatz,
    w_state,
)


class TestGhz:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_state(self, n):
        probs = probabilities(ghz_state(n))
        assert probs[0] == pytest.approx(0.5 if n > 1 else 0.5, abs=0.01)
        assert probs[-1] == pytest.approx(0.5, abs=0.01)
        assert probs.sum() == pytest.approx(1.0)

    def test_interaction_graph_is_path(self):
        from repro.core import InteractionGraph

        graph = InteractionGraph.from_circuit(ghz_state(6))
        assert graph.num_edges == 5
        assert all(b - a == 1 for a, b, _ in graph.edges())


class TestWState:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_uniform_single_excitation(self, n):
        probs = probabilities(w_state(n))
        nonzero = np.nonzero(probs > 1e-9)[0]
        assert len(nonzero) == n
        for index in nonzero:
            assert bin(index).count("1") == 1
            assert probs[index] == pytest.approx(1.0 / n)


class TestQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dft_matrix(self, n):
        dim = 2 ** n
        omega = np.exp(2j * math.pi / dim)
        dft = np.array(
            [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
        ) / math.sqrt(dim)
        unitary = circuit_unitary(qft(n))
        # Allow global phase.
        phase = unitary[0, 0] / dft[0, 0]
        assert np.allclose(unitary, phase * dft, atol=1e-9)

    def test_inverse_qft_is_adjoint(self):
        identity = qft(3).compose(inverse_qft(3))
        unitary = circuit_unitary(identity)
        phase = unitary[0, 0]
        assert np.allclose(unitary, phase * np.eye(8), atol=1e-9)

    def test_no_swaps_variant(self):
        circuit = qft(4, do_swaps=False)
        assert "swap" not in circuit.count_ops()

    def test_gate_count(self):
        # n H gates + n(n-1)/2 controlled-phases + floor(n/2) swaps.
        circuit = qft(5)
        counts = circuit.count_ops()
        assert counts["h"] == 5
        assert counts["cp"] == 10
        assert counts["swap"] == 2


class TestQpe:
    @pytest.mark.parametrize("bits,phase", [(3, 1 / 8), (3, 3 / 8), (4, 5 / 16)])
    def test_exact_phase_readout(self, bits, phase):
        circuit = quantum_phase_estimation(bits, phase=phase)
        counts = sample_counts(circuit.without_directives(), shots=64, seed=0)
        best = max(counts, key=counts.get)
        measured = int(best[:bits], 2) / 2 ** bits
        assert measured == pytest.approx(phase)


class TestBernsteinVazirani:
    @pytest.mark.parametrize("secret", [[1, 0, 1], [0, 0, 0], [1, 1, 1, 1]])
    def test_recovers_secret(self, secret):
        circuit = bernstein_vazirani(secret)
        counts = sample_counts(circuit.without_directives(), shots=16, seed=0)
        best = max(counts, key=counts.get)
        assert [int(b) for b in best[: len(secret)]] == secret
        assert counts[best] == 16  # BV is deterministic

    def test_rejects_bad_secret(self):
        with pytest.raises(ValueError):
            bernstein_vazirani([0, 2])
        with pytest.raises(ValueError):
            bernstein_vazirani([])


class TestDeutschJozsa:
    def test_balanced_oracle_never_reads_zero(self):
        circuit = deutsch_jozsa(3, balanced=True)
        counts = sample_counts(circuit.without_directives(), shots=32, seed=1)
        assert all(key[:3] != "000" for key in counts)

    def test_constant_oracle_reads_zero(self):
        circuit = deutsch_jozsa(3, balanced=False)
        counts = sample_counts(circuit.without_directives(), shots=32, seed=1)
        assert set(key[:3] for key in counts) == {"000"}


class TestGrover:
    @pytest.mark.parametrize("marked", [[1, 1], [1, 0, 1], [0, 1, 1, 0]])
    def test_amplifies_marked_state(self, marked):
        circuit = grover(len(marked), marked=marked)
        counts = sample_counts(circuit.without_directives(), shots=300, seed=2)
        best = max(counts, key=counts.get)
        assert [int(b) for b in best[: len(marked)]] == marked
        assert counts[best] / 300 > 0.5

    def test_iterations_default_near_optimal(self):
        circuit = grover(3)
        # pi/4 * sqrt(8) ~ 2.2 -> 2 iterations.
        assert "grover" in circuit.name

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            grover(1)

    def test_rejects_bad_marked(self):
        with pytest.raises(ValueError):
            grover(3, marked=[1, 0])


class TestVqeAnsatz:
    def test_linear_entanglement_structure(self):
        from repro.core import InteractionGraph

        circuit = vqe_ansatz(5, num_layers=2, entanglement="linear", seed=0)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.num_edges == 4
        assert all(b - a == 1 for a, b, _ in graph.edges())

    def test_circular_closes_ring(self):
        from repro.core import InteractionGraph

        circuit = vqe_ansatz(5, num_layers=1, entanglement="circular", seed=0)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.has_edge(0, 4)

    def test_full_entanglement(self):
        from repro.core import InteractionGraph

        circuit = vqe_ansatz(4, num_layers=1, entanglement="full", seed=0)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.num_edges == 6

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            vqe_ansatz(4, entanglement="stellar")

    def test_deterministic_with_seed(self):
        assert vqe_ansatz(4, seed=3) == vqe_ansatz(4, seed=3)


class TestQuantumVolume:
    def test_square_by_default(self):
        from repro.workloads import quantum_volume

        circuit = quantum_volume(4, seed=0)
        # depth layers, each with floor(n/2) blocks of 2 cx.
        assert circuit.count_ops()["cx"] == 4 * 2 * 2

    def test_normalised_output(self):
        import numpy as np

        from repro.sim import statevector
        from repro.workloads import quantum_volume

        state = statevector(quantum_volume(4, seed=2))
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0)

    def test_dense_interaction_graph(self):
        from repro.core import InteractionGraph
        from repro.workloads import quantum_volume

        graph = InteractionGraph.from_circuit(quantum_volume(6, depth=20, seed=1))
        assert graph.num_edges >= 12  # approaches the complete graph (15)

    def test_odd_width_leaves_one_idle_per_layer(self):
        from repro.workloads import quantum_volume

        circuit = quantum_volume(5, depth=1, seed=3)
        assert circuit.count_ops()["cx"] == 2 * 2

    def test_deterministic(self):
        from repro.workloads import quantum_volume

        assert quantum_volume(4, seed=9) == quantum_volume(4, seed=9)

    def test_validation(self):
        from repro.workloads import quantum_volume

        with pytest.raises(ValueError):
            quantum_volume(1)
        with pytest.raises(ValueError):
            quantum_volume(4, depth=0)
