"""Tests for BRIDGE routing in the trivial router."""

from repro.circuit import Circuit
from repro.compiler import Layout, TrivialRouter
from repro.hardware import line_device
from repro.sim import verify_mapping


class TestBridgeRouting:
    def test_distance2_cx_bridged(self):
        device = line_device(3)
        circuit = Circuit(3).cx(0, 2)
        result = TrivialRouter(use_bridge=True).route(
            circuit, device, Layout.trivial(3, 3)
        )
        assert result.swap_count == 0
        assert result.bridge_count == 1
        assert result.initial_layout == result.final_layout
        assert [g.name for g in result.circuit] == ["cx"] * 4
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )

    def test_longer_distances_still_swap(self):
        device = line_device(4)
        circuit = Circuit(4).cx(0, 3)
        result = TrivialRouter(use_bridge=True).route(
            circuit, device, Layout.trivial(4, 4)
        )
        assert result.swap_count > 0
        assert result.bridge_count == 0
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )

    def test_non_cx_gates_not_bridged(self):
        device = line_device(3)
        circuit = Circuit(3).cz(0, 2)
        result = TrivialRouter(use_bridge=True).route(
            circuit, device, Layout.trivial(3, 3)
        )
        assert result.swap_count == 1
        assert result.bridge_count == 0
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )

    def test_bridge_off_by_default(self):
        device = line_device(3)
        result = TrivialRouter().route(
            Circuit(3).cx(0, 2), device, Layout.trivial(3, 3)
        )
        assert result.swap_count == 1
        assert result.bridge_count == 0

    def test_bridge_count_threaded_through_mapper(self):
        from repro.compiler import QuantumMapper, TrivialPlacement

        mapper = QuantumMapper(TrivialPlacement(), TrivialRouter(use_bridge=True))
        result = mapper.map(Circuit(3).cx(0, 2), line_device(3))
        assert result.bridge_count == 1
        assert result.overhead.bridge_count == 1
        assert result.overhead.as_dict()["bridge_count"] == 1
        assert result.verify()

    def test_bridge_count_zero_without_bridge(self):
        from repro.compiler import trivial_mapper

        result = trivial_mapper().map(Circuit(3).cx(0, 2), line_device(3))
        assert result.bridge_count == 0
        assert result.overhead.bridge_count == 0

    def test_bridge_sequence_semantics(self):
        device = line_device(3)
        circuit = Circuit(3).h(0).cx(0, 2).h(2).cx(0, 2)
        result = TrivialRouter(use_bridge=True).route(
            circuit, device, Layout.trivial(3, 3)
        )
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )
