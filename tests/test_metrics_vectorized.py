"""Vectorised Table I metrics vs the per-node reference, and the metrics cache."""

import numpy as np
import pytest

from repro.core.interaction import InteractionGraph, interaction_graph
from repro.core.metrics import (
    METRIC_NAMES,
    circuit_graph_metrics,
    clear_metrics_cache,
    compute_metrics,
    metrics_cache_info,
)
from repro.fuzz.reference import _shortest_path_lengths, reference_metrics
from repro.workloads.qaoa import qaoa_maxcut, random_maxcut_instance
from repro.workloads.random_circuits import random_circuit

#: Relative tolerance for the betweenness pair — the vectorised path
#: accumulates the dependency sums in a different float order than the
#: reference stack walk.  Every other metric must match bit for bit.
BETWEENNESS_RTOL = 1e-12


def random_graph(num_qubits, edge_probability, seed):
    rng = np.random.default_rng(seed)
    graph = InteractionGraph(num_qubits)
    for a in range(num_qubits):
        for b in range(a + 1, num_qubits):
            if rng.random() < edge_probability:
                graph.add_interaction(a, b, float(rng.integers(1, 5)))
    return graph


def ring_graph(num_qubits):
    graph = InteractionGraph(num_qubits)
    for i in range(num_qubits):
        graph.add_interaction(i, (i + 1) % num_qubits)
    return graph


def grid_graph(rows, cols):
    graph = InteractionGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_interaction(node, node + 1)
            if r + 1 < rows:
                graph.add_interaction(node, node + cols)
    return graph


def assert_paths_agree(graph):
    assert_metrics_agree(
        reference_metrics(graph).as_dict(), compute_metrics(graph).as_dict()
    )


def assert_metrics_agree(reference, vectorized):
    for name in METRIC_NAMES:
        ref, vec = reference[name], vectorized[name]
        if name.startswith("betweenness"):
            assert abs(ref - vec) <= BETWEENNESS_RTOL * max(1.0, abs(ref)), (
                name,
                ref,
                vec,
            )
        else:
            assert ref == vec, (name, ref, vec)


class TestEquivalenceOnGraphFamilies:
    @pytest.mark.parametrize(
        "num_qubits,edge_probability,seed",
        [(6, 0.5, 0), (12, 0.3, 1), (20, 0.2, 2), (28, 0.12, 3), (16, 0.05, 4)],
    )
    def test_random_graphs(self, num_qubits, edge_probability, seed):
        assert_paths_agree(random_graph(num_qubits, edge_probability, seed))

    @pytest.mark.parametrize("num_nodes,num_edges,seed", [(10, 18, 5), (20, 40, 6)])
    def test_qaoa_graphs(self, num_nodes, num_edges, seed):
        edges = random_maxcut_instance(num_nodes, num_edges, seed=seed)
        circuit = qaoa_maxcut(num_nodes, edges, num_layers=2)
        assert_paths_agree(interaction_graph(circuit))

    @pytest.mark.parametrize("num_qubits", [5, 12, 21])
    def test_ring_graphs(self, num_qubits):
        assert_paths_agree(ring_graph(num_qubits))

    @pytest.mark.parametrize("rows,cols", [(2, 3), (4, 4), (5, 6)])
    def test_grid_graphs(self, rows, cols):
        assert_paths_agree(grid_graph(rows, cols))


class TestEquivalenceOnEdgeCases:
    def test_empty_graph(self):
        assert_paths_agree(InteractionGraph(0))

    def test_single_node(self):
        assert_paths_agree(InteractionGraph(1))

    def test_no_edges(self):
        assert_paths_agree(InteractionGraph(7))

    def test_isolated_nodes(self):
        graph = random_graph(10, 0.4, 7)
        padded = InteractionGraph(14)  # 4 qubits never interact
        for a, b, w in graph.edges():
            padded.add_interaction(a, b, w)
        assert_paths_agree(padded)
        assert compute_metrics(padded).connected == 0.0

    def test_disconnected_components(self):
        graph = InteractionGraph(9)
        for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8)]:
            graph.add_interaction(a, b)
        assert_paths_agree(graph)
        assert compute_metrics(graph).connected == 0.0

    def test_two_nodes_one_edge(self):
        graph = InteractionGraph(2)
        graph.add_interaction(0, 1, 3.0)
        assert_paths_agree(graph)


class TestShortestPathLengths:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matrix_exactly_matches_per_source_bfs(self, seed):
        graph = random_graph(18, 0.15, seed)
        assert np.array_equal(
            graph.shortest_path_lengths(), _shortest_path_lengths(graph)
        )

    def test_unreachable_pairs_are_minus_one(self):
        graph = InteractionGraph(4)
        graph.add_interaction(0, 1)
        dist = graph.shortest_path_lengths()
        assert dist[0, 1] == 1 and dist[0, 2] == -1 and dist[3, 3] == 0


class TestMetricsCache:
    def setup_method(self):
        clear_metrics_cache()

    def teardown_method(self):
        clear_metrics_cache()

    def test_repeat_call_returns_same_instance(self):
        circuit = random_circuit(6, 30, 0.5, seed=3)
        first = circuit_graph_metrics(circuit)
        second = circuit_graph_metrics(circuit)
        assert first is second
        assert metrics_cache_info() == {"size": 1, "hits": 1, "misses": 1}

    def test_matches_uncached_computation(self):
        circuit = random_circuit(5, 25, 0.4, seed=4)
        cached = circuit_graph_metrics(circuit)
        direct = compute_metrics(interaction_graph(circuit))
        assert cached == direct

    def test_mutation_invalidates_via_content_hash(self):
        circuit = random_circuit(4, 10, 0.5, seed=5)
        before = circuit_graph_metrics(circuit)
        circuit.cx(0, 1)
        after = circuit_graph_metrics(circuit)
        assert after is not before
        assert after.num_edges >= before.num_edges
        assert metrics_cache_info()["misses"] == 2

    def test_cache_bypass(self):
        circuit = random_circuit(4, 10, 0.5, seed=7)
        first = circuit_graph_metrics(circuit, cache=False)
        second = circuit_graph_metrics(circuit, cache=False)
        assert first is not second
        assert first == second
        assert metrics_cache_info() == {"size": 0, "hits": 0, "misses": 0}

    def test_clear_resets_entries_and_stats(self):
        circuit = random_circuit(4, 10, 0.5, seed=8)
        circuit_graph_metrics(circuit)
        circuit_graph_metrics(circuit)
        clear_metrics_cache()
        assert metrics_cache_info() == {"size": 0, "hits": 0, "misses": 0}
