"""Unit tests for the Table I metric suite, cross-validated with networkx."""


import networkx as nx
import numpy as np
import pytest

from repro.core import (
    InteractionGraph,
    METRIC_NAMES,
    PAPER_RETAINED_METRICS,
    TABLE1_ROWS,
    circuit_graph_metrics,
    compute_metrics,
)
from repro.workloads import ghz_state, random_circuit


def _graph_from_edges(n, edges):
    graph = InteractionGraph(n)
    for a, b in edges:
        graph.add_interaction(a, b)
    return graph


SAMPLE_GRAPHS = [
    _graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # path
    _graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # cycle
    _graph_from_edges(5, [(0, i) for i in range(1, 5)]),  # star
    _graph_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
    _graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
]


class TestCrossValidationWithNetworkx:
    @pytest.mark.parametrize("graph", SAMPLE_GRAPHS, ids=range(len(SAMPLE_GRAPHS)))
    def test_clustering(self, graph):
        ours = compute_metrics(graph).clustering_coefficient
        theirs = nx.average_clustering(graph.to_networkx())
        assert ours == pytest.approx(theirs, abs=1e-9)

    @pytest.mark.parametrize("graph", SAMPLE_GRAPHS[:4], ids=range(4))
    def test_avg_shortest_path_connected(self, graph):
        ours = compute_metrics(graph).avg_shortest_path
        theirs = nx.average_shortest_path_length(graph.to_networkx())
        assert ours == pytest.approx(theirs, abs=1e-9)

    @pytest.mark.parametrize("graph", SAMPLE_GRAPHS, ids=range(len(SAMPLE_GRAPHS)))
    def test_betweenness(self, graph):
        metrics = compute_metrics(graph)
        centrality = nx.betweenness_centrality(graph.to_networkx())
        values = list(centrality.values())
        assert metrics.betweenness_mean == pytest.approx(np.mean(values), abs=1e-9)
        assert metrics.betweenness_max == pytest.approx(max(values), abs=1e-9)

    @pytest.mark.parametrize("graph", SAMPLE_GRAPHS[:4], ids=range(4))
    def test_closeness_connected(self, graph):
        ours = compute_metrics(graph).closeness
        centrality = nx.closeness_centrality(graph.to_networkx())
        assert ours == pytest.approx(np.mean(list(centrality.values())), abs=1e-9)

    @pytest.mark.parametrize("graph", SAMPLE_GRAPHS, ids=range(len(SAMPLE_GRAPHS)))
    def test_algebraic_connectivity(self, graph):
        ours = compute_metrics(graph).algebraic_connectivity
        laplacian = nx.laplacian_matrix(graph.to_networkx()).todense()
        eigenvalues = sorted(np.linalg.eigvalsh(laplacian))
        assert ours == pytest.approx(max(0.0, eigenvalues[1]), abs=1e-8)

    def test_random_circuit_metrics_match_networkx(self):
        circuit = random_circuit(8, 60, 0.5, seed=11)
        graph = InteractionGraph.from_circuit(circuit)
        metrics = compute_metrics(graph)
        nxg = graph.to_networkx()
        assert metrics.clustering_coefficient == pytest.approx(
            nx.average_clustering(nxg), abs=1e-9
        )
        degrees = [d for _, d in nxg.degree()]
        assert metrics.max_degree == max(degrees)
        assert metrics.min_degree == min(degrees)


class TestMetricValues:
    def test_path_graph(self):
        metrics = compute_metrics(SAMPLE_GRAPHS[0])
        assert metrics.num_qubits == 4
        assert metrics.num_edges == 3
        assert metrics.max_degree == 2
        assert metrics.min_degree == 1
        assert metrics.diameter == 3
        assert metrics.connected == 1.0
        assert metrics.clustering_coefficient == 0.0

    def test_complete_graph(self):
        metrics = compute_metrics(SAMPLE_GRAPHS[3])
        assert metrics.density == pytest.approx(1.0)
        assert metrics.avg_shortest_path == pytest.approx(1.0)
        assert metrics.clustering_coefficient == pytest.approx(1.0)

    def test_disconnected_components(self):
        metrics = compute_metrics(SAMPLE_GRAPHS[4])
        assert metrics.connected == 0.0
        # Path metrics averaged over reachable pairs only.
        assert metrics.avg_shortest_path == pytest.approx(1.0)

    def test_weighted_adjacency_statistics(self):
        graph = InteractionGraph(3)
        graph.add_interaction(0, 1, 4.0)
        graph.add_interaction(1, 2, 2.0)
        metrics = compute_metrics(graph)
        off_diag = [4.0, 0.0, 2.0]
        assert metrics.adjacency_mean == pytest.approx(np.mean(off_diag))
        assert metrics.adjacency_std == pytest.approx(np.std(off_diag))
        assert metrics.adjacency_variance == pytest.approx(np.var(off_diag))
        assert metrics.adjacency_max == 4.0
        assert metrics.adjacency_min_nonzero == 2.0
        assert metrics.weight_mean == pytest.approx(3.0)

    def test_degenerate_empty_graph(self):
        metrics = compute_metrics(InteractionGraph(0))
        assert all(np.isfinite(v) for v in metrics.as_dict().values())

    def test_single_node(self):
        metrics = compute_metrics(InteractionGraph(1))
        assert metrics.num_qubits == 1
        assert metrics.avg_shortest_path == 0.0

    def test_no_edges(self):
        metrics = compute_metrics(InteractionGraph(4))
        assert metrics.num_edges == 0
        assert metrics.density == 0.0
        assert metrics.adjacency_std == 0.0


class TestMetricVectorApi:
    def test_metric_names_complete(self):
        metrics = circuit_graph_metrics(ghz_state(3))
        assert set(metrics.as_dict()) == set(METRIC_NAMES)

    def test_vector_order(self):
        metrics = circuit_graph_metrics(ghz_state(3))
        vector = metrics.vector(["num_edges", "max_degree"])
        assert vector.tolist() == [2.0, 2.0]

    def test_paper_retained_subset(self):
        assert set(PAPER_RETAINED_METRICS) <= set(METRIC_NAMES)
        assert len(PAPER_RETAINED_METRICS) == 4

    def test_table1_rows_present(self):
        assert len(TABLE1_ROWS) == 4
        assert any("Hopcount" in row[0] for row in TABLE1_ROWS)


class TestMetricBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_on_random_circuits(self, seed):
        circuit = random_circuit(7, 50, 0.5, seed=seed)
        metrics = circuit_graph_metrics(circuit)
        n = metrics.num_qubits
        assert 0 <= metrics.min_degree <= metrics.avg_degree <= metrics.max_degree
        assert metrics.max_degree <= n - 1
        assert 0.0 <= metrics.density <= 1.0
        assert 0.0 <= metrics.clustering_coefficient <= 1.0
        assert 0.0 <= metrics.betweenness_mean <= metrics.betweenness_max <= 1.0
        assert metrics.avg_shortest_path <= metrics.diameter
        assert metrics.adjacency_variance == pytest.approx(
            metrics.adjacency_std ** 2
        )


class TestNewMetrics:
    def test_assortativity_matches_networkx(self):
        graph = _graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        ours = compute_metrics(graph).assortativity
        theirs = nx.degree_assortativity_coefficient(graph.to_networkx())
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_assortativity_star_is_negative(self):
        star = _graph_from_edges(5, [(0, i) for i in range(1, 5)])
        assert compute_metrics(star).assortativity < 0

    def test_assortativity_regular_graph_zero(self):
        cycle = _graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert compute_metrics(cycle).assortativity == 0.0

    def test_assortativity_empty(self):
        assert compute_metrics(InteractionGraph(3)).assortativity == 0.0

    def test_weight_entropy_uniform_is_one(self):
        graph = InteractionGraph(4)
        for a, b in [(0, 1), (1, 2), (2, 3)]:
            graph.add_interaction(a, b, 5.0)
        assert compute_metrics(graph).weight_entropy == pytest.approx(1.0)

    def test_weight_entropy_skewed_is_low(self):
        graph = InteractionGraph(4)
        graph.add_interaction(0, 1, 100.0)
        graph.add_interaction(1, 2, 1.0)
        graph.add_interaction(2, 3, 1.0)
        assert compute_metrics(graph).weight_entropy < 0.5

    def test_weight_entropy_degenerate(self):
        single = InteractionGraph(2)
        single.add_interaction(0, 1)
        assert compute_metrics(single).weight_entropy == 0.0
        assert compute_metrics(InteractionGraph(2)).weight_entropy == 0.0
