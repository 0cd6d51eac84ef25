"""Unit tests for the QISA, control model and full-stack pipeline."""

import pytest

from repro.circuit import Circuit
from repro.compiler import asap_schedule, trivial_mapper
from repro.core import MapperAdvisor
from repro.fullstack import ControlModel, FullStack, compile_to_isa
from repro.workloads import ghz_state


class TestIsa:
    def test_bundles_group_parallel_ops(self):
        schedule = asap_schedule(Circuit(4).h(0).h(1).h(2).h(3))
        program = compile_to_isa(schedule)
        assert len(program.bundles) == 1
        assert len(program.bundles[0].instructions) == 4

    def test_qwait_between_bundles(self):
        # h (20ns) then measure (300ns) then h: cycle 0, 1, then 1+15=16.
        schedule = asap_schedule(Circuit(1).h(0).measure(0).h(0))
        program = compile_to_isa(schedule, cycle_ns=20.0)
        waits = [b.wait_cycles for b in program.bundles]
        assert waits[0] == 0
        assert waits[2] == 14  # 300ns / 20ns = 15 cycles, minus issue slot

    def test_mnemonics(self):
        schedule = asap_schedule(Circuit(2).h(0).cz(0, 1).measure(1))
        program = compile_to_isa(schedule)
        histogram = program.instruction_histogram()
        assert histogram == {"H": 1, "CZ": 1, "MEASZ": 1}

    def test_text_rendering(self):
        schedule = asap_schedule(Circuit(2).rz(0.5, 0).cz(0, 1))
        text = compile_to_isa(schedule).to_text()
        assert "RZ Q0, 0.500000" in text
        assert "CZ Q0, Q1" in text

    def test_barriers_dropped(self):
        schedule = asap_schedule(Circuit(2).h(0).barrier())
        program = compile_to_isa(schedule)
        assert program.num_instructions == 1

    def test_duration_cycles(self):
        schedule = asap_schedule(Circuit(1).h(0).h(0).h(0))
        program = compile_to_isa(schedule, cycle_ns=20.0)
        assert program.duration_cycles == 3

    def test_cycle_validation(self):
        schedule = asap_schedule(Circuit(1).h(0))
        with pytest.raises(ValueError):
            compile_to_isa(schedule, cycle_ns=0.0)


class TestControlModel:
    def test_violation_detection(self):
        schedule = asap_schedule(Circuit(4).cz(0, 1).cz(2, 3))
        strict = ControlModel(max_parallel_2q=1)
        violations = strict.violations(schedule)
        assert violations
        assert violations[0].kind == "two-qubit"
        assert violations[0].count == 2

    def test_satisfied_when_unconstrained(self):
        schedule = asap_schedule(Circuit(4).cz(0, 1).cz(2, 3))
        assert ControlModel().satisfies(schedule)

    def test_reschedule_fixes_violations(self):
        schedule = asap_schedule(Circuit(4).cz(0, 1).cz(2, 3))
        strict = ControlModel(max_parallel_2q=1)
        fixed = strict.reschedule(schedule)
        assert strict.satisfies(fixed)
        assert fixed.latency_ns > schedule.latency_ns

    def test_measurement_limit(self):
        schedule = asap_schedule(Circuit(3).measure(0).measure(1).measure(2))
        model = ControlModel(max_parallel_measure=2)
        assert not model.satisfies(schedule)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ControlModel(max_parallel_2q=0)


class TestFullStack:
    def test_end_to_end_ghz(self, dev7):
        stack = FullStack(dev7, mapper=trivial_mapper())
        report = stack.execute(ghz_state(3), shots=200, seed=0)
        assert report.mapping.verify()
        assert report.latency_ns > 0
        assert report.program.num_instructions > 0
        assert 0.0 < report.estimated_fidelity < 1.0
        # GHZ statistics survive mapping: only the two extremal outcomes.
        assert report.counts is not None
        assert sum(report.counts.values()) == 200
        top_two = sorted(report.counts.values(), reverse=True)[:2]
        assert sum(top_two) == 200

    def test_no_shots_no_counts(self, dev7):
        report = FullStack(dev7).execute(ghz_state(3))
        assert report.counts is None

    def test_control_constraint_stretches_latency(self, dev7):
        circuit = Circuit(4).cz(0, 3).cz(1, 4) if False else ghz_state(5)
        free = FullStack(dev7).execute(circuit)
        tight = FullStack(dev7, control=ControlModel(max_parallel_2q=1)).execute(
            circuit
        )
        assert tight.latency_ns >= free.latency_ns

    def test_advisor_stack(self, dev7):
        stack = FullStack(dev7, advisor=MapperAdvisor())
        report = stack.execute(ghz_state(4))
        assert report.mapping.mapper_name in ("light", "sabre")

    def test_mapper_and_advisor_exclusive(self, dev7):
        with pytest.raises(ValueError, match="not both"):
            FullStack(dev7, mapper=trivial_mapper(), advisor=MapperAdvisor())

    def test_compile_only(self, dev7):
        result = FullStack(dev7).compile(ghz_state(3))
        assert result.mapped.num_gates >= 3
