"""Unit tests for the end-to-end mappers (repro.compiler.mapper)."""

import pytest

from repro.circuit import Circuit
from repro.compiler import (
    QuantumMapper,
    TrivialPlacement,
    TrivialRouter,
    noise_aware_mapper,
    sabre_mapper,
    trivial_mapper,
)
from repro.hardware import surface17_device
from repro.workloads import cuccaro_adder, ghz_state, qft, random_circuit

MAPPERS = [trivial_mapper(), sabre_mapper(), noise_aware_mapper()]


@pytest.mark.parametrize("mapper", MAPPERS, ids=lambda m: m.name)
class TestMapperInvariants:
    def test_output_in_gate_set(self, mapper, dev7):
        result = mapper.map(qft(5), dev7)
        for gate in result.mapped:
            assert dev7.gate_set.supports(gate), gate

    def test_output_respects_coupling(self, mapper, dev7):
        result = mapper.map(random_circuit(7, 50, 0.5, seed=0), dev7)
        for gate in result.mapped:
            if gate.is_two_qubit:
                assert dev7.coupling.are_adjacent(*gate.qubits)

    def test_semantically_verified(self, mapper, dev7):
        for circuit in (ghz_state(4), qft(5), cuccaro_adder(2)):
            result = mapper.map(circuit.without_directives(), dev7)
            assert result.verify(), (mapper.name, circuit.name)

    def test_toffoli_circuits_supported(self, mapper, dev7):
        # 3-qubit gates must be decomposed before routing, transparently.
        result = mapper.map(Circuit(3).ccx(0, 1, 2), dev7)
        assert result.verify()

    def test_overhead_report_consistent(self, mapper, dev7):
        result = mapper.map(random_circuit(6, 40, 0.5, seed=1), dev7)
        report = result.overhead
        assert report.gates_after == result.mapped.num_gates
        assert report.gates_before == result.decomposed.num_gates
        assert report.gates_after >= report.gates_before
        assert report.gate_overhead_percent >= 0.0

    def test_fidelity_report_consistent(self, mapper, dev7):
        result = mapper.map(random_circuit(6, 40, 0.5, seed=2), dev7)
        assert 0.0 <= result.fidelity.fidelity_after <= result.fidelity.fidelity_before
        assert result.fidelity.decrease >= 0.0

    def test_layouts_are_injective(self, mapper, dev17):
        result = mapper.map(random_circuit(10, 60, 0.4, seed=3), dev17)
        for layout in (result.initial_layout, result.final_layout):
            assert len(set(layout.values())) == len(layout)


class TestMappingResult:
    def test_schedule_and_latency(self, dev7):
        result = trivial_mapper().map(ghz_state(4), dev7)
        schedule = result.schedule()
        assert schedule.latency_ns == result.latency_ns
        assert schedule.latency_ns > 0

    def test_swap_count_matches_router(self, dev7):
        result = trivial_mapper().map(Circuit(5).cx(0, 4), dev7)
        assert result.swap_count == result.overhead.swap_count

    def test_verify_rejects_too_wide(self):
        device = surface17_device()
        result = trivial_mapper().map(random_circuit(16, 40, 0.5, seed=0), device)
        with pytest.raises(ValueError, match="verification"):
            result.verify()

    def test_compact_covers_layout_positions(self, dev17):
        result = trivial_mapper().map(ghz_state(3), dev17)
        compact, initial, final = result._compact()
        assert set(initial.values()) <= set(range(compact.num_qubits))
        assert set(final.values()) <= set(range(compact.num_qubits))

    def test_mapper_name_recorded(self, dev7):
        assert trivial_mapper().map(ghz_state(2), dev7).mapper_name == "trivial"


class TestPipelineOptions:
    def test_optimize_output_shrinks_or_equals(self, dev7):
        base = QuantumMapper(TrivialPlacement(), TrivialRouter())
        optimising = QuantumMapper(
            TrivialPlacement(), TrivialRouter(), optimize_output=True
        )
        circuit = qft(5, do_swaps=False)
        plain = base.map(circuit, dev7)
        optimised = optimising.map(circuit, dev7)
        assert optimised.mapped.num_gates <= plain.mapped.num_gates
        assert optimised.verify()

    def test_optimize_input(self, dev7):
        redundant = Circuit(3).h(0).h(0).cx(0, 1).cx(0, 1).cx(1, 2)
        mapper = QuantumMapper(
            TrivialPlacement(), TrivialRouter(), optimize_input=True
        )
        result = mapper.map(redundant, dev7)
        assert result.decomposed.num_gates < 10
        assert result.verify()

    def test_custom_name(self):
        mapper = QuantumMapper(TrivialPlacement(), TrivialRouter(), name="mine")
        assert mapper.name == "mine"

    def test_default_name_composes(self):
        mapper = QuantumMapper(TrivialPlacement(), TrivialRouter())
        assert mapper.name == "trivial+trivial"


class TestMapperQualityOrdering:
    def test_sabre_beats_trivial_on_qft(self, dev17):
        circuit = qft(10, do_swaps=False)
        trivial_result = trivial_mapper().map(circuit, dev17)
        sabre_result = sabre_mapper().map(circuit, dev17)
        assert sabre_result.swap_count < trivial_result.swap_count
        assert (
            sabre_result.fidelity.fidelity_after
            >= trivial_result.fidelity.fidelity_after
        )
