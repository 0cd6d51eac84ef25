"""Unit tests for the routing passes.

The two key invariants, checked for every router on every test circuit:
(1) every two-qubit gate in the output acts on coupled physical qubits;
(2) the output is semantically equivalent to the input given the
    initial/final layouts (state-vector oracle).
"""

import pytest

from repro.circuit import Circuit
from repro.compiler import (
    Layout,
    NoiseAwareRouter,
    RoutingError,
    SabreRouter,
    TrivialRouter,
)
from repro.hardware import (
    CouplingGraph,
    Device,
    line_device,
    all_to_all_device,
)
from repro.sim import verify_mapping
from repro.workloads import qft, random_circuit

ROUTERS = [TrivialRouter(), SabreRouter(seed=0), NoiseAwareRouter(seed=0)]


def _route_and_verify(router, circuit, device, layout=None):
    layout = layout or Layout.trivial(circuit.num_qubits, device.num_qubits)
    result = router.route(circuit, device, layout)
    for gate in result.circuit:
        if gate.is_two_qubit:
            assert device.coupling.are_adjacent(*gate.qubits), gate
    assert verify_mapping(
        circuit.without_directives(),
        result.circuit.without_directives(),
        result.initial_layout,
        result.final_layout,
    )
    return result


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
class TestRouterInvariants:
    def test_line_chain(self, router):
        device = line_device(5)
        circuit = Circuit(5).cx(0, 4).cx(1, 3).h(2).cx(0, 1)
        result = _route_and_verify(router, circuit, device)
        assert result.swap_count > 0

    def test_surface7_random(self, router, dev7):
        circuit = random_circuit(7, 40, 0.4, seed=8)
        _route_and_verify(router, circuit, dev7)

    def test_qft(self, router, dev7):
        _route_and_verify(router, qft(6, do_swaps=False).without_directives(), dev7)

    def test_adjacent_gates_need_no_swaps(self, router):
        device = line_device(4)
        circuit = Circuit(4).cx(0, 1).cx(1, 2).cx(2, 3)
        result = _route_and_verify(router, circuit, device)
        assert result.swap_count == 0
        assert result.initial_layout == result.final_layout

    def test_all_to_all_never_swaps(self, router):
        device = all_to_all_device(6)
        circuit = random_circuit(6, 60, 0.6, seed=2)
        result = router.route(
            circuit, device, Layout.trivial(6, 6)
        )
        assert result.swap_count == 0

    def test_one_qubit_gates_remapped(self, router):
        device = line_device(3)
        layout = Layout(2, 3, {0: 2, 1: 0})
        circuit = Circuit(2).h(0).x(1)
        result = router.route(circuit, device, layout)
        names = {(g.name, g.qubits) for g in result.circuit}
        assert ("h", (2,)) in names
        assert ("x", (0,)) in names

    def test_measure_follows_layout(self, router):
        device = line_device(3)
        circuit = Circuit(3).cx(0, 2).measure(0).measure(2)
        result = router.route(circuit, device, Layout.trivial(3, 3))
        measured = [g.qubits[0] for g in result.circuit if g.name == "measure"]
        assert measured == [result.final_layout[0], result.final_layout[2]]

    def test_input_layout_not_mutated(self, router):
        device = line_device(4)
        layout = Layout.trivial(4, 4)
        router.route(Circuit(4).cx(0, 3), device, layout)
        assert layout == Layout.trivial(4, 4)

    def test_rejects_three_qubit_gates(self, router):
        device = line_device(3)
        with pytest.raises(RoutingError, match="arity"):
            router.route(Circuit(3).ccx(0, 1, 2), device, Layout.trivial(3, 3))

    def test_rejects_disconnected_device(self, router):
        broken = Device(CouplingGraph(4, [(0, 1), (2, 3)]))
        with pytest.raises(RoutingError, match="disconnected"):
            router.route(Circuit(2).cx(0, 1), broken, Layout.trivial(2, 4))

    def test_rejects_mismatched_layout(self, router):
        device = line_device(4)
        with pytest.raises(RoutingError, match="does not match"):
            router.route(Circuit(2).cx(0, 1), device, Layout.trivial(3, 4))


class TestTrivialRouterSpecifics:
    def test_deterministic(self):
        device = line_device(6)
        circuit = random_circuit(6, 30, 0.5, seed=1)
        a = TrivialRouter().route(circuit, device, Layout.trivial(6, 6))
        b = TrivialRouter().route(circuit, device, Layout.trivial(6, 6))
        assert a.circuit == b.circuit

    def test_swap_count_matches_distance(self):
        # Single far gate on a line: needs exactly distance-1 swaps.
        device = line_device(5)
        circuit = Circuit(5).cx(0, 4)
        result = TrivialRouter().route(circuit, device, Layout.trivial(5, 5))
        assert result.swap_count == 3

    def test_gate_operand_order_preserved(self):
        device = line_device(3)
        circuit = Circuit(3).cx(2, 0)  # control=2, target=0
        result = TrivialRouter().route(circuit, device, Layout.trivial(3, 3))
        final_gate = [g for g in result.circuit if g.name == "cx"][0]
        # control must still be the (moved) virtual qubit 2.
        assert result.final_layout[2] == final_gate.qubits[0]
        assert result.final_layout[0] == final_gate.qubits[1]


class TestSabreRouterSpecifics:
    def test_beats_trivial_on_average(self, dev7):
        trivial_total = 0
        sabre_total = 0
        for seed in range(6):
            circuit = random_circuit(7, 60, 0.5, seed=seed)
            layout = Layout.trivial(7, 7)
            trivial_total += TrivialRouter().route(circuit, dev7, layout).swap_count
            sabre_total += SabreRouter(seed=0).route(circuit, dev7, layout).swap_count
        assert sabre_total < trivial_total

    def test_seeded_determinism(self, dev7):
        circuit = random_circuit(7, 50, 0.5, seed=4)
        a = SabreRouter(seed=5).route(circuit, dev7, Layout.trivial(7, 7))
        b = SabreRouter(seed=5).route(circuit, dev7, Layout.trivial(7, 7))
        assert a.circuit == b.circuit

    def test_lookahead_zero_still_works(self, dev7):
        router = SabreRouter(lookahead_size=0, seed=0)
        circuit = random_circuit(7, 30, 0.5, seed=3)
        result = router.route(circuit, dev7, Layout.trivial(7, 7))
        assert verify_mapping(
            circuit.without_directives(),
            result.circuit.without_directives(),
            result.initial_layout,
            result.final_layout,
        )


class TestDistanceCacheCalibration:
    """Regression: a calibration update must never serve a stale table.

    The distance-cache key is *derived* from ``metric_name`` and
    ``uses_calibration``; before the fix the key and the matrix builder
    were two independent overrides, so a fidelity-aware subclass that
    overrode only ``_build_distance_matrix`` silently reused tables
    computed under old calibration data.  The service-layer result
    cache makes that bug user-visible, hence these gates.
    """

    def test_calibration_aware_metric_invalidates_on_update(self):
        from dataclasses import replace

        from repro.compiler.routing import clear_distance_cache

        class EdgeErrorRouter(SabreRouter):
            # Declaring the metric fidelity-aware is all a subclass
            # should need for correct invalidation.
            metric_name = "edge-error-metric"
            uses_calibration = True

            def _build_distance_matrix(self, device):
                dist = super()._build_distance_matrix(device)
                return dist * (1.0 + device.calibration.two_qubit_error)

        clear_distance_cache()
        device = line_device(4)
        router = EdgeErrorRouter(seed=0)
        before = router._distance_matrix(device)
        updated = replace(
            device,
            calibration=replace(device.calibration, two_qubit_error=0.25),
        )
        after = router._distance_matrix(updated)
        assert after[0, 3] == pytest.approx(3 * 1.25)
        assert (before != after).any(), "stale distance table served"

    def test_noise_aware_router_invalidates_on_calibration_update(self):
        from dataclasses import replace

        from repro.compiler.routing import clear_distance_cache

        clear_distance_cache()
        device = line_device(5)
        router = NoiseAwareRouter(seed=0)
        stale = router._distance_matrix(device)
        updated = replace(
            device,
            calibration=device.calibration.with_edge_error(1, 2, 0.3),
        )
        warm = router._distance_matrix(updated)
        assert (warm != stale).any()
        # The warm-cache answer must be byte-identical to a cold build.
        clear_distance_cache()
        cold = router._distance_matrix(updated)
        assert (warm == cold).all()

    def test_hop_metric_shared_across_calibrations(self):
        from dataclasses import replace

        device = line_device(4)
        router = SabreRouter(seed=0)
        key = router._distance_cache_key(device)
        updated = replace(
            device,
            calibration=device.calibration.with_edge_error(0, 1, 0.3),
        )
        # Hop counts ignore calibration, so the table may be shared.
        assert router._distance_cache_key(updated) == key


class TestNoiseAwareRouterSpecifics:
    def test_prefers_reliable_detour(self):
        # Ring of 4: two routes between opposite corners; poison one side.
        coupling = CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        from repro.hardware import SURFACE17_CALIBRATION, CNOT_GATESET

        calibration = SURFACE17_CALIBRATION.with_edge_error(0, 1, 0.2)
        device = Device(coupling, calibration, CNOT_GATESET)
        circuit = Circuit(4).cx(0, 2)
        result = NoiseAwareRouter(seed=0).route(
            circuit, device, Layout.trivial(4, 4)
        )
        swaps = [g for g in result.circuit if g.name == "swap"]
        assert len(swaps) == 1
        # The swap should use the clean side (via qubit 3), not edge (0,1).
        assert set(swaps[0].qubits) != {0, 1}
