"""Unit tests for coupling graphs (repro.hardware.topology)."""

from collections import deque

import numpy as np
import pytest

from repro.hardware import CouplingGraph, TopologyError
from repro.hardware.library import grid, ring, surface_code_grid


def path4():
    return CouplingGraph(4, [(0, 1), (1, 2), (2, 3)], name="p4")


class TestConstruction:
    def test_basics(self):
        graph = path4()
        assert graph.num_qubits == 4
        assert graph.num_edges == 3
        assert graph.edges == ((0, 1), (1, 2), (2, 3))

    def test_duplicate_edges_merged(self):
        graph = CouplingGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            CouplingGraph(2, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(TopologyError, match="leaves register"):
            CouplingGraph(2, [(0, 2)])

    def test_negative_count_rejected(self):
        with pytest.raises(TopologyError):
            CouplingGraph(-1, [])

    def test_equality_and_hash(self):
        assert path4() == CouplingGraph(4, [(2, 3), (0, 1), (1, 2)])
        assert hash(path4()) == hash(CouplingGraph(4, [(2, 3), (0, 1), (1, 2)]))
        assert path4() != CouplingGraph(4, [(0, 1)])


class TestQueries:
    def test_neighbors_and_degree(self):
        graph = path4()
        assert graph.neighbors(1) == frozenset({0, 2})
        assert graph.degree(0) == 1
        assert graph.max_degree() == 2

    def test_has_edge(self):
        graph = path4()
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)
        assert graph.are_adjacent(2, 3)

    def test_qubit_range_checked(self):
        with pytest.raises(TopologyError):
            path4().degree(9)


class TestDistances:
    def test_distance(self):
        graph = path4()
        assert graph.distance(0, 3) == 3
        assert graph.distance(2, 2) == 0

    def test_distance_matrix_symmetric(self):
        matrix = path4().distance_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert matrix[0, 3] == 3

    def test_distance_matrix_readonly(self):
        matrix = path4().distance_matrix()
        with pytest.raises(ValueError):
            matrix[0, 0] = 9

    def test_shortest_path_endpoints(self):
        path = path4().shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 4
        graph = path4()
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_shortest_path_trivial(self):
        assert path4().shortest_path(2, 2) == [2]

    def test_disconnected_distance_raises(self):
        graph = CouplingGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError, match="disconnected"):
            graph.distance(0, 3)

    def test_diameter_and_average(self):
        graph = path4()
        assert graph.diameter() == 3
        # distances: 1,2,3,1,2,1 -> mean 10/6 over ordered pairs same.
        assert graph.average_distance() == pytest.approx(10 / 6)

    def test_diameter_disconnected_raises(self):
        with pytest.raises(TopologyError):
            CouplingGraph(3, [(0, 1)]).diameter()


def bfs_distances(graph):
    """Per-source BFS hop counts (-1 when unreachable), built from scratch."""
    n = graph.num_qubits
    dist = np.full((n, n), -1)
    for source in range(n):
        dist[source, source] = 0
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if dist[source, neighbor] < 0:
                    dist[source, neighbor] = dist[source, current] + 1
                    queue.append(neighbor)
    return dist


GRAPHS = {
    "ring": lambda: ring(9),
    "grid": lambda: grid(3, 4),
    "surface": lambda: surface_code_grid(30),
    "disconnected": lambda: CouplingGraph(7, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]),
}


class TestSharedTables:
    """Graphs with equal edge sets share one read-only pair of tables."""

    def test_equal_edges_share_arrays(self):
        a = CouplingGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], name="a")
        b = CouplingGraph(5, [(4, 3), (2, 3), (1, 2), (0, 1), (1, 0)], name="b")
        assert np.shares_memory(a.distance_matrix(), b.distance_matrix())
        a.shortest_path(0, 4)
        b.shortest_path(4, 0)
        assert a._next_hop is b._next_hop

    def test_different_edges_do_not_share(self):
        a = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        b = CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not np.shares_memory(a.distance_matrix(), b.distance_matrix())
        assert a.distance(0, 3) == 3 and b.distance(0, 3) == 1

    def test_shared_arrays_are_read_only(self):
        graph = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
        graph.shortest_path(0, 3)
        matrix = graph.distance_matrix()
        with pytest.raises(ValueError):
            matrix[0, 1] = 7
        with pytest.raises(ValueError):
            matrix.setflags(write=True)
        for table in (graph._distances, graph._next_hop):
            with pytest.raises(ValueError):
                table[0, 1] = 7
        assert CouplingGraph(4, [(2, 3), (1, 2), (0, 1)]).distance(0, 1) == 1

    def test_pickled_copy_matches(self):
        import pickle

        graph = surface_code_grid(30)
        graph.distance(0, 1)
        clone = pickle.loads(pickle.dumps(graph))
        assert np.array_equal(clone.distance_matrix(), graph.distance_matrix())
        assert clone.shortest_path(0, 29) == graph.shortest_path(0, 29)

    @pytest.mark.parametrize("kind", sorted(GRAPHS))
    def test_queries_match_a_fresh_build(self, kind):
        graph = GRAPHS[kind]()
        GRAPHS[kind]().distance_matrix()  # a twin fills the shared tables
        expected = bfs_distances(graph)
        assert np.array_equal(graph.distance_matrix(), expected)
        n = graph.num_qubits
        for a in range(n):
            for b in range(n):
                if expected[a, b] < 0:
                    with pytest.raises(TopologyError, match="disconnected"):
                        graph.distance(a, b)
                    with pytest.raises(TopologyError, match="disconnected"):
                        graph.shortest_path(a, b)
                    continue
                assert graph.distance(a, b) == expected[a, b]
                # Each step goes to the smallest-index neighbor one hop closer.
                path, current = [a], a
                while current != b:
                    current = min(
                        q
                        for q in graph.neighbors(current)
                        if expected[q, b] == expected[current, b] - 1
                    )
                    path.append(current)
                assert graph.shortest_path(a, b) == path
        if (expected < 0).any():
            with pytest.raises(TopologyError):
                graph.diameter()
            with pytest.raises(TopologyError):
                graph.average_distance()
        else:
            assert graph.diameter() == expected.max()
            assert graph.average_distance() == expected.sum() / (n * (n - 1))

    def test_empty_graph(self):
        graph = CouplingGraph(0, [])
        assert graph.distance_matrix().shape == (0, 0)
        assert graph.diameter() == 0


class TestConnectivity:
    def test_connected(self):
        assert path4().is_connected()
        assert not CouplingGraph(3, [(0, 1)]).is_connected()
        assert CouplingGraph(0, []).is_connected()

    def test_truncate_connected_prefix(self):
        graph = path4().truncate_connected(3)
        assert graph.num_qubits == 3
        assert graph.is_connected()

    def test_truncate_bfs_relabels(self):
        # star: 0 connected to 1,2,3; truncating to 2 keeps 0 and 1.
        star = CouplingGraph(4, [(0, 1), (0, 2), (0, 3)])
        cut = star.truncate_connected(2)
        assert cut.edges == ((0, 1),)

    def test_truncate_too_large(self):
        with pytest.raises(TopologyError):
            path4().truncate_connected(9)

    def test_truncate_zero(self):
        assert path4().truncate_connected(0).num_qubits == 0

    def test_truncate_preserves_positions(self):
        graph = CouplingGraph(
            3, [(0, 1), (1, 2)], positions={0: (0, 0), 1: (1, 0), 2: (2, 0)}
        )
        cut = graph.truncate_connected(2)
        assert cut.positions == {0: (0, 0), 1: (1, 0)}


class TestExport:
    def test_to_networkx(self):
        nxg = path4().to_networkx()
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 3
