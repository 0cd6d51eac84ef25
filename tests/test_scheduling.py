"""Unit tests for the schedulers (repro.compiler.scheduling)."""

import pytest

from repro.circuit import Circuit
from repro.compiler import alap_schedule, asap_schedule


def overlapping(a, b):
    return a.start_ns < b.end_ns and b.start_ns < a.end_ns


class TestAsap:
    def test_serial_chain_times(self):
        circuit = Circuit(2).h(0).cz(0, 1).h(1)
        schedule = asap_schedule(circuit)
        starts = {
            (e.gate.name, e.gate.qubits): e.start_ns for e in schedule.entries
        }
        assert starts[("h", (0,))] == 0.0
        assert starts[("cz", (0, 1))] == 20.0
        assert starts[("h", (1,))] == 60.0
        assert schedule.latency_ns == 80.0

    def test_parallel_gates_start_together(self):
        schedule = asap_schedule(Circuit(4).h(0).h(1).h(2).h(3))
        assert {e.start_ns for e in schedule.entries} == {0.0}
        assert schedule.latency_ns == 20.0
        assert schedule.num_time_slots == 1

    def test_qubit_exclusivity(self):
        circuit = Circuit(3).cz(0, 1).cz(1, 2).h(0)
        schedule = asap_schedule(circuit)
        for i, a in enumerate(schedule.entries):
            for b in schedule.entries[i + 1 :]:
                if set(a.gate.qubits) & set(b.gate.qubits):
                    assert not overlapping(a, b), (a, b)

    def test_measurement_duration(self):
        schedule = asap_schedule(Circuit(1).measure(0))
        assert schedule.latency_ns == 300.0

    def test_barrier_takes_no_time(self):
        with_barrier = asap_schedule(Circuit(2).h(0).barrier().h(1))
        # barrier synchronises: h(1) cannot start before h(0) ends.
        h1 = [e for e in with_barrier.entries if e.gate.qubits == (1,)][0]
        assert h1.start_ns == 20.0

    def test_parallelism_metric(self):
        parallel = asap_schedule(Circuit(2).h(0).h(1))
        serial = asap_schedule(Circuit(1).h(0).h(0))
        assert parallel.parallelism() == pytest.approx(2.0)
        assert serial.parallelism() == pytest.approx(1.0)

    def test_empty_circuit(self):
        schedule = asap_schedule(Circuit(2))
        assert schedule.latency_ns == 0.0
        assert schedule.parallelism() == 0.0

    def test_gates_at(self):
        schedule = asap_schedule(Circuit(2).h(0).cz(0, 1))
        assert len(schedule.gates_at(0.0)) == 1
        assert schedule.gates_at(25.0)[0].gate.name == "cz"

    def test_idle_time(self):
        # q1 idles while q0 runs two H gates before the CZ.
        circuit = Circuit(2).h(1).h(0).h(0).cz(0, 1)
        schedule = asap_schedule(circuit)
        assert schedule.idle_time_ns(1) == pytest.approx(20.0)
        assert schedule.idle_time_ns(0) == pytest.approx(0.0)


class TestControlConstraint:
    def test_limit_defers_two_qubit_gates(self):
        circuit = Circuit(4).cz(0, 1).cz(2, 3)
        unconstrained = asap_schedule(circuit)
        constrained = asap_schedule(circuit, max_parallel_2q=1)
        assert unconstrained.latency_ns == 40.0
        assert constrained.latency_ns == 80.0

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            asap_schedule(Circuit(2).cz(0, 1), max_parallel_2q=0)

    def test_one_qubit_gates_unconstrained(self):
        schedule = asap_schedule(Circuit(3).h(0).h(1).h(2), max_parallel_2q=1)
        assert schedule.latency_ns == 20.0


class TestTimeSlotQuantisation:
    def test_float_noise_collapses_to_one_slot(self):
        # 0.1 + 0.2 != 0.3 in binary floats; on the 1e-6 ns grid the
        # two start times are the same slot.
        from repro.circuit import Gate
        from repro.compiler.scheduling import Schedule, ScheduledGate

        circuit = Circuit(2).h(0).h(1)
        entries = [
            ScheduledGate(Gate("h", (0,)), 0.1 + 0.2, 20.0),
            ScheduledGate(Gate("h", (1,)), 0.3, 20.0),
        ]
        assert (0.1 + 0.2) != 0.3
        assert Schedule(entries, circuit).num_time_slots == 1

    def test_distinct_starts_still_counted(self):
        from repro.circuit import Gate
        from repro.compiler.scheduling import Schedule, ScheduledGate

        circuit = Circuit(2).h(0).h(1)
        entries = [
            ScheduledGate(Gate("h", (0,)), 0.0, 20.0),
            ScheduledGate(Gate("h", (1,)), 20.0, 20.0),
        ]
        assert Schedule(entries, circuit).num_time_slots == 2


class TestAlap:
    def test_same_latency_as_asap(self):
        circuit = Circuit(3).h(0).cz(0, 1).h(2).cz(1, 2)
        assert alap_schedule(circuit).latency_ns == asap_schedule(circuit).latency_ns

    def test_gates_sink_late(self):
        # A lone H on q1 should sit at the end, not the beginning.
        circuit = Circuit(2).h(1).h(0).h(0).h(0)
        alap = alap_schedule(circuit)
        h1 = [e for e in alap.entries if e.gate.qubits == (1,)][0]
        assert h1.start_ns == pytest.approx(40.0)

    def test_dependencies_still_respected(self):
        circuit = Circuit(2).h(0).cz(0, 1).h(1)
        schedule = alap_schedule(circuit)
        by_gate = {
            (e.gate.name, e.gate.qubits): e for e in schedule.entries
        }
        assert by_gate[("h", (0,))].end_ns <= by_gate[("cz", (0, 1))].start_ns
        assert by_gate[("cz", (0, 1))].end_ns <= by_gate[("h", (1,))].start_ns
