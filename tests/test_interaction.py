"""Unit tests for interaction graphs (repro.core.interaction)."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.core import InteractionGraph, interaction_graph
from repro.workloads import ghz_state, random_circuit


class TestConstruction:
    def test_from_circuit_weights(self):
        circuit = Circuit(3).cx(0, 1).cx(0, 1).cz(1, 2).h(0)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.weight(0, 1) == 2.0
        assert graph.weight(1, 2) == 1.0
        assert graph.weight(0, 2) == 0.0
        assert graph.num_edges == 2

    def test_edge_direction_collapsed(self):
        circuit = Circuit(2).cx(0, 1).cx(1, 0)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.weight(0, 1) == 2.0
        assert graph.num_edges == 1

    def test_directives_and_1q_ignored(self):
        circuit = Circuit(3).h(0).barrier(0, 1).measure(2)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.num_edges == 0

    def test_three_qubit_gates_ignored(self):
        graph = InteractionGraph.from_circuit(Circuit(3).ccx(0, 1, 2))
        assert graph.num_edges == 0

    def test_total_weight_equals_two_qubit_count(self):
        for seed in range(4):
            circuit = random_circuit(5, 50, 0.5, seed=seed)
            graph = InteractionGraph.from_circuit(circuit)
            assert graph.total_weight == circuit.num_two_qubit_gates

    def test_manual_construction_validation(self):
        graph = InteractionGraph(3)
        with pytest.raises(ValueError):
            graph.add_interaction(0, 0)
        with pytest.raises(ValueError):
            graph.add_interaction(0, 9)
        with pytest.raises(ValueError):
            graph.add_interaction(0, 1, weight=-2)

    def test_from_weights_dict(self):
        graph = InteractionGraph(3, {frozenset((0, 2)): 4.0})
        assert graph.weight(0, 2) == 4.0


class TestQueries:
    def test_degree_vs_weighted_degree(self):
        circuit = Circuit(3).cx(0, 1).cx(0, 1).cx(0, 2)
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.degree(0) == 2
        assert graph.weighted_degree(0) == 3.0

    def test_neighbors(self):
        graph = interaction_graph(ghz_state(4))
        assert graph.neighbors(1) == frozenset({0, 2})

    def test_adjacency_matrix_symmetric(self):
        graph = interaction_graph(random_circuit(6, 40, 0.6, seed=1))
        matrix = graph.adjacency_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)
        assert matrix.sum() == pytest.approx(2 * graph.total_weight)

    def test_edges_sorted(self):
        graph = interaction_graph(ghz_state(4))
        assert graph.edges() == [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]


class TestConnectivity:
    def test_connected_chain(self):
        assert interaction_graph(ghz_state(5)).is_connected()

    def test_isolated_qubit_disconnects(self):
        circuit = Circuit(3).cx(0, 1)  # qubit 2 never interacts
        graph = InteractionGraph.from_circuit(circuit)
        assert not graph.is_connected()
        assert len(graph.connected_components()) == 2

    def test_shortest_path_lengths(self):
        graph = interaction_graph(ghz_state(4))
        dist = graph.shortest_path_lengths()
        assert dist[0, 3] == 3
        assert dist[0, 0] == 0

    def test_unreachable_marked(self):
        graph = InteractionGraph.from_circuit(Circuit(3).cx(0, 1))
        assert graph.shortest_path_lengths()[0, 2] == -1

    def test_subgraph_without_isolated(self):
        circuit = Circuit(5).cx(1, 3)
        graph = InteractionGraph.from_circuit(circuit)
        compact = graph.subgraph_without_isolated()
        assert compact.num_qubits == 2
        assert compact.weight(0, 1) == 1.0


class TestExport:
    def test_networkx_weights(self):
        circuit = Circuit(3).cx(0, 1).cx(0, 1).cz(1, 2)
        nxg = InteractionGraph.from_circuit(circuit).to_networkx()
        assert nxg[0][1]["weight"] == 2.0
        assert nxg.number_of_nodes() == 3
