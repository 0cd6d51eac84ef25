"""Unit tests for the topology generators (repro.hardware.library)."""


import pytest

from repro.hardware import (
    TOPOLOGY_GENERATORS,
    TopologyError,
    fully_connected,
    grid,
    heavy_hex,
    line,
    ring,
    rotated_surface_code,
    square_grid,
    star,
    surface7,
    surface17,
    surface_code_grid,
)


class TestSurfaceLattices:
    def test_surface7_shape(self):
        graph = surface7()
        assert graph.num_qubits == 7
        assert graph.num_edges == 8
        assert graph.is_connected()
        assert graph.max_degree() == 4
        # The central qubit (3) has full degree.
        assert graph.degree(3) == 4

    def test_surface17_shape(self):
        graph = surface17()
        assert graph.num_qubits == 17
        assert graph.is_connected()
        assert graph.max_degree() == 4
        # distance-3 rotated code: 24 data-ancilla couplings.
        assert graph.num_edges == 24

    @pytest.mark.parametrize("distance", [2, 3, 4, 5, 6])
    def test_rotated_surface_code_counts(self, distance):
        graph = rotated_surface_code(distance)
        assert graph.num_qubits == 2 * distance * distance - 1
        assert graph.is_connected()
        assert graph.max_degree() <= 4

    def test_rotated_surface_code_bipartite_structure(self):
        # Data qubits sit at even/even positions, ancillas at odd/odd; every
        # edge joins one of each, so the graph is bipartite.
        graph = rotated_surface_code(3)
        positions = graph.positions
        for a, b in graph.edges:
            xa = positions[a][0]
            xb = positions[b][0]
            assert (xa % 2 == 0) != (xb % 2 == 0)

    def test_rotated_surface_code_min_distance(self):
        with pytest.raises(TopologyError):
            rotated_surface_code(1)

    @pytest.mark.parametrize("n", [1, 5, 7, 17, 50, 100])
    def test_surface_code_grid_exact_size(self, n):
        graph = surface_code_grid(n)
        assert graph.num_qubits == n
        assert graph.is_connected()
        assert graph.max_degree() <= 4

    def test_surface_code_grid_100_is_paper_device(self):
        graph = surface_code_grid(100)
        assert graph.num_qubits == 100
        # Planar lattice: diameter grows like sqrt(n).
        assert 10 <= graph.diameter() <= 25

    def test_surface_code_grid_rejects_zero(self):
        with pytest.raises(TopologyError):
            surface_code_grid(0)


class TestRegularTopologies:
    def test_grid(self):
        graph = grid(3, 4)
        assert graph.num_qubits == 12
        assert graph.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert graph.is_connected()
        assert graph.max_degree() == 4

    def test_grid_rejects_bad_dims(self):
        with pytest.raises(TopologyError):
            grid(0, 3)

    @pytest.mark.parametrize("n", [1, 4, 9, 10, 23])
    def test_square_grid_exact(self, n):
        graph = square_grid(n)
        assert graph.num_qubits == n
        assert graph.is_connected()

    def test_line(self):
        graph = line(5)
        assert graph.num_edges == 4
        assert graph.diameter() == 4
        assert graph.max_degree() == 2

    def test_ring(self):
        graph = ring(6)
        assert graph.num_edges == 6
        assert graph.diameter() == 3
        assert all(graph.degree(q) == 2 for q in range(6))

    def test_ring_minimum_size(self):
        with pytest.raises(TopologyError):
            ring(2)

    def test_fully_connected(self):
        graph = fully_connected(5)
        assert graph.num_edges == 10
        assert graph.diameter() == 1

    def test_star(self):
        graph = star(5)
        assert graph.degree(0) == 4
        assert all(graph.degree(q) == 1 for q in range(1, 5))
        assert graph.diameter() == 2

    def test_heavy_hex(self):
        graph = heavy_hex(2, 2)
        assert graph.is_connected()
        assert graph.max_degree() == 3
        # Subdividing every edge doubles path parity: no triangles.
        for a, b in graph.edges:
            shared = graph.neighbors(a) & graph.neighbors(b)
            assert not shared


class TestGeneratorRegistry:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
    def test_generators_produce_requested_size(self, name):
        generator = TOPOLOGY_GENERATORS[name]
        graph = generator(8)
        assert graph.num_qubits == 8
        assert graph.is_connected()
