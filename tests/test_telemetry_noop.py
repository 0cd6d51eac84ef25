"""Disabled telemetry is a true no-op.

The instrumented stack must behave *bit for bit* like the
pre-instrumentation code when telemetry is off (the default): identical
routed circuits (the router's RNG stream is untouched), zero span
records, zero metric series.
"""

from repro.compiler import decompose_circuit, sabre_mapper
from repro.compiler.layout import Layout
from repro.compiler.routing import SabreRouter
from repro.hardware import surface17_device
from repro.sim import verify_mapping
from repro.telemetry import metrics, tracing
from repro.workloads import qft


def _routed(enabled: bool):
    """Route the same circuit with telemetry on/off; fresh seeded router."""
    device = surface17_device()
    circuit = decompose_circuit(qft(6, do_swaps=False), device.gate_set)
    layout = Layout.trivial(circuit.num_qubits, device.num_qubits)
    with tracing.capture(enabled=enabled) as spans:
        router = SabreRouter(seed=11)
        result = router.route(circuit, device, layout)
    return result, spans


class TestNoopGuarantee:
    def test_disabled_routing_matches_enabled_bit_for_bit(self):
        off, off_spans = _routed(enabled=False)
        on, on_spans = _routed(enabled=True)
        # Instrumentation must not perturb the router: same RNG stream,
        # same swaps, same circuit, same layout either way.
        assert off.circuit == on.circuit
        assert off.swap_count == on.swap_count
        assert off.bridge_count == on.bridge_count
        assert off.final_layout == on.final_layout
        # ...and disabled telemetry records exactly nothing.
        assert off_spans == []
        assert [s.name for s in on_spans] == ["route.sabre"]

    def test_disabled_mapping_records_nothing(self):
        device = surface17_device()
        circuit = qft(5, do_swaps=False)
        with tracing.capture(enabled=False) as spans:
            with metrics.capture_registry() as registry:
                sabre_mapper(seed=3).map(circuit, device)
        assert spans == []
        assert registry.snapshot() == {}

    def test_disabled_oracle_matches_enabled_verdict(self):
        device = surface17_device()
        result = sabre_mapper(seed=3).map(qft(4, do_swaps=False), device)
        args = (
            result.decomposed,
            result.mapped,
            result.initial_layout,
            result.final_layout,
        )
        with tracing.capture(enabled=False) as spans:
            off = verify_mapping(*args)
        assert spans == []
        with tracing.capture(enabled=True) as spans:
            on = verify_mapping(*args)
        assert off is on is True
        assert [s.name for s in spans] == ["oracle.verify"]
        assert spans[0].attributes["verdict"] is True
