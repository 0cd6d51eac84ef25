"""Unit tests for the advanced placement passes (isomorphism / SABRE)."""

import pytest

from repro.circuit import Circuit
from repro.compiler import (
    IsomorphismPlacement,
    QuantumMapper,
    SabrePlacement,
    SabreRouter,
    TrivialPlacement,
    TrivialRouter,
)
from repro.core import InteractionGraph
from repro.hardware import line_device
from repro.workloads import ghz_state, ising_ring, qft, random_circuit


class TestIsomorphismPlacement:
    def test_chain_embeds_on_line_with_zero_swaps(self):
        device = line_device(6)
        circuit = ghz_state(6)
        mapper = QuantumMapper(IsomorphismPlacement(), TrivialRouter())
        result = mapper.map(circuit, device)
        assert result.swap_count == 0
        assert result.verify()

    def test_ring_embeds_on_surface(self, dev17):
        # An 8-cycle is a subgraph of the Surface-17 lattice.
        circuit = ising_ring(8, steps=1)
        placement = IsomorphismPlacement()
        layout = placement.place(circuit, dev17)
        graph = InteractionGraph.from_circuit(circuit)
        for a, b, _ in graph.edges():
            assert dev17.coupling.are_adjacent(layout.physical(a), layout.physical(b))

    def test_embedding_is_exact_or_none(self, dev7):
        placement = IsomorphismPlacement()
        graph = InteractionGraph.from_circuit(ghz_state(4))
        embedding = placement.find_embedding(graph, dev7)
        assert embedding is not None
        for a, b, _ in graph.edges():
            assert dev7.coupling.are_adjacent(embedding[a], embedding[b])

    def test_dense_graph_returns_none(self, dev7):
        # K5 needs degree 4 everywhere; surface-7 has only one degree-4 node.
        circuit = Circuit(5)
        for a in range(5):
            for b in range(a + 1, 5):
                circuit.cz(a, b)
        placement = IsomorphismPlacement()
        graph = InteractionGraph.from_circuit(circuit)
        assert placement.find_embedding(graph, dev7) is None

    def test_falls_back_gracefully(self, dev7):
        circuit = Circuit(5)
        for a in range(5):
            for b in range(a + 1, 5):
                circuit.cz(a, b)
        layout = IsomorphismPlacement().place(circuit, dev7)
        images = [layout.physical(v) for v in range(5)]
        assert len(set(images)) == 5

    def test_degree_prefilter(self, dev7):
        # A star with 5 leaves needs a degree-5 hub; surface-7 max is 4.
        circuit = Circuit(6)
        for leaf in range(1, 6):
            circuit.cz(0, leaf)
        graph = InteractionGraph.from_circuit(circuit)
        assert IsomorphismPlacement().find_embedding(graph, dev7) is None

    def test_isolated_qubits_parked(self, dev7):
        circuit = Circuit(5).cz(0, 1)  # qubits 2-4 never interact
        layout = IsomorphismPlacement().place(circuit, dev7)
        images = [layout.physical(v) for v in range(5)]
        assert len(set(images)) == 5
        assert dev7.coupling.are_adjacent(layout.physical(0), layout.physical(1))

    def test_empty_interaction_graph(self, dev7):
        layout = IsomorphismPlacement().place(Circuit(3).h(0), dev7)
        assert layout.num_virtual == 3

    def test_budget_exhaustion_falls_back(self, dev17):
        placement = IsomorphismPlacement(max_nodes=1)
        circuit = ising_ring(8, steps=1)
        layout = placement.place(circuit, dev17)  # must not raise
        assert layout.num_virtual == circuit.num_qubits

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            IsomorphismPlacement(max_nodes=0)


class TestSabrePlacement:
    def test_valid_layout(self, dev17):
        circuit = random_circuit(10, 80, 0.5, seed=1)
        layout = SabrePlacement(seed=0).place(circuit, dev17)
        images = [layout.physical(v) for v in range(10)]
        assert len(set(images)) == 10

    def test_beats_trivial_placement(self, dev17):
        circuit = qft(10, do_swaps=False)
        router = SabreRouter(seed=0)
        trivial_layout = TrivialPlacement().place(circuit, dev17)
        sabre_layout = SabrePlacement(iterations=2, seed=0).place(circuit, dev17)
        base = router.route(circuit, dev17, trivial_layout).swap_count
        refined = router.route(circuit, dev17, sabre_layout).swap_count
        assert refined <= base

    def test_end_to_end_verified(self, dev7):
        mapper = QuantumMapper(SabrePlacement(seed=3), SabreRouter(seed=3))
        result = mapper.map(random_circuit(6, 40, 0.4, seed=2), dev7)
        assert result.verify()

    def test_handles_directives(self, dev7):
        circuit = Circuit(4).h(0).cx(0, 1).barrier().measure_all()
        layout = SabrePlacement(seed=0).place(circuit, dev7)
        assert layout.num_virtual == 4

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            SabrePlacement(iterations=0)
