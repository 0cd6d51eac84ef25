"""End-to-end integration scenarios across subsystem boundaries.

Each test exercises a realistic multi-module pipeline the way a
downstream user would: generate → persist → reload → compile → schedule
→ lower → measure, checking cross-module consistency rather than any
single unit.
"""

import pytest

from repro import (
    ControlModel,
    FullStack,
    MapperAdvisor,
    profile_suite,
    sabre_mapper,
    surface17_device,
    trivial_mapper,
)
from repro.compiler import asap_schedule
from repro.experiments import records_to_csv, run_suite
from repro.fullstack import compile_to_isa
from repro.hardware import surface17_extended_device
from repro.workloads import (
    evaluation_suite,
    ghz_state,
    load_suite,
    qaoa_maxcut,
    random_maxcut_instance,
    save_suite,
)


class TestCorpusRoundtripPipeline:
    def test_generate_save_reload_map(self, tmp_path):
        """The archival path: a reloaded corpus maps identically."""
        suite = evaluation_suite(num_circuits=6, seed=3, max_qubits=10, max_gates=80)
        save_suite(suite, tmp_path / "corpus")
        reloaded = load_suite(tmp_path / "corpus")

        device = surface17_device()
        original_records = run_suite(suite, device=device)
        reloaded_records = run_suite(reloaded, device=device)
        for a, b in zip(original_records, reloaded_records):
            assert a.swap_count == b.swap_count
            assert a.gates_after == b.gates_after
            assert a.fidelity_after == pytest.approx(b.fidelity_after)

    def test_records_to_csv_from_reloaded_suite(self, tmp_path):
        suite = evaluation_suite(num_circuits=4, seed=1, max_qubits=8, max_gates=60)
        save_suite(suite, tmp_path / "corpus")
        records = run_suite(load_suite(tmp_path / "corpus"), device=surface17_device())
        path = records_to_csv(records, tmp_path / "results.csv")
        assert path.read_text().count("\n") == len(records) + 1


class TestFullStackConsistency:
    def test_isa_matches_schedule(self):
        device = surface17_device()
        result = sabre_mapper().map(ghz_state(5), device)
        schedule = result.schedule()
        program = compile_to_isa(schedule, cycle_ns=20.0)
        # Instruction count = schedule entries minus barriers.
        expected = sum(1 for e in schedule.entries if e.gate.name != "barrier")
        assert program.num_instructions == expected

    def test_control_constraint_consistency(self):
        """ControlModel's checker agrees with the constrained scheduler."""
        device = surface17_device()
        result = trivial_mapper().map(
            qaoa_maxcut(
                8,
                random_maxcut_instance(8, 12, seed=2),
                num_layers=1,
                entangler="cx",
                seed=2,
            ),
            device,
        )
        model = ControlModel(max_parallel_2q=1)
        free = asap_schedule(result.mapped, device.calibration)
        constrained = asap_schedule(
            result.mapped, device.calibration, max_parallel_2q=1
        )
        assert model.satisfies(constrained)
        # If the free schedule had any 2q parallelism, it must violate.
        two_qubit_starts = {
            e.start_ns for e in free.entries if e.gate.is_two_qubit
        }
        if len(two_qubit_starts) < sum(
            1 for e in free.entries if e.gate.is_two_qubit
        ):
            assert not model.satisfies(free)

    def test_advisor_stack_sampling_matches_ideal(self):
        """Mapping must not change measurement statistics (GHZ parity)."""
        device = surface17_device()
        stack = FullStack(device, advisor=MapperAdvisor())
        report = stack.execute(ghz_state(4), shots=400, seed=3)
        # All sampled outcomes must have the 4 data qubits aligned.
        layout = report.mapping.final_layout
        compact, _, final = report.mapping._compact()
        for bits, count in report.counts.items():
            data = [bits[final[v]] for v in range(4)]
            assert len(set(data)) == 1, (bits, data)


class TestProfilingToCompilationLoop:
    def test_profile_predicts_relative_cost_within_suite(self):
        """The co-design loop on a fresh suite: harder profiles cost more
        swaps per 2q gate under SABRE (rank correlation, width-fixed)."""
        from repro.core import routing_difficulty, spearman_correlation
        from repro.workloads import random_circuit

        device = surface17_extended_device(50)
        mapper = sabre_mapper()
        circuits = [
            ghz_state(10).repeated(8),
            qaoa_maxcut(
                10,
                random_maxcut_instance(10, 14, seed=4),
                num_layers=4,
                entangler="cx",
                seed=4,
            ),
            random_circuit(10, 150, 0.3, seed=4),
            random_circuit(10, 150, 0.7, seed=4),
        ]
        profiles = profile_suite(
            [type("B", (), {"circuit": c, "family": "?", "source": c.name})() for c in circuits]
        )
        scores = [routing_difficulty(p.metrics) for p in profiles]
        pressure = []
        for circuit in circuits:
            result = mapper.map(circuit, device)
            pressure.append(result.swap_count / circuit.num_two_qubit_gates)
        assert spearman_correlation(scores, pressure) > 0.5
