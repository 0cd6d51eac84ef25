"""Span attributes cost nothing while telemetry is off.

``QuantumMapper.map``, ``Router.route`` and ``MappingResult.schedule``
label their spans with gate counts, and ``Circuit.num_gates`` walks the
whole circuit.  Untraced, none of them may count; traced, the spans
carry the same counts as the circuits they describe.
"""

import pytest

from repro.circuit import Circuit
from repro.compiler.mapper import MAPPERS
from repro.hardware import surface17_device
from repro.telemetry import tracing
from repro.workloads import qft

_NUM_GATES = Circuit.num_gates


@pytest.fixture
def counted(monkeypatch):
    """Record every circuit whose ``num_gates`` is evaluated."""
    seen = []

    def num_gates(circuit):
        seen.append(circuit)
        return _NUM_GATES.fget(circuit)

    monkeypatch.setattr(Circuit, "num_gates", property(num_gates))
    return seen


@pytest.mark.parametrize("name", sorted(MAPPERS))
def test_untraced_map_counts_no_gates(counted, name):
    assert not tracing.is_enabled()
    result = MAPPERS[name]().map(qft(5), surface17_device())
    assert counted == []
    result.schedule()
    assert counted == []


def test_traced_spans_carry_gate_counts():
    circuit = qft(5)
    with tracing.capture() as spans:
        result = MAPPERS["sabre"]().map(circuit, surface17_device())
        result.schedule()
    gates = {
        span.name: span.attributes["gates"]
        for span in spans
        if "gates" in span.attributes
    }
    assert gates == {
        "map.run": circuit.num_gates,
        "route.sabre": result.decomposed.num_gates,
        "map.schedule": result.mapped.num_gates,
    }
