"""Unit tests for the overhead and fidelity metrics."""

import math

import pytest

from repro.circuit import Circuit
from repro.compiler import asap_schedule
from repro.hardware import IDEAL_CALIBRATION
from repro.metrics import (
    decoherence_fidelity,
    fidelity_decrease,
    fidelity_report,
    gate_overhead,
    log_fidelity,
    overhead_report,
    product_fidelity,
)


class TestOverhead:
    def test_gate_overhead(self):
        before = Circuit(2).h(0).cx(0, 1)
        after = Circuit(2).h(0).cx(0, 1).cx(0, 1).cx(0, 1)
        assert gate_overhead(before, after) == pytest.approx(1.0)

    def test_empty_before(self):
        assert gate_overhead(Circuit(1), Circuit(1).h(0)) == 0.0

    def test_report_fields(self):
        before = Circuit(2).h(0).cx(0, 1)
        after = before.copy().swap(0, 1)
        report = overhead_report(before, after, swap_count=1)
        assert report.gates_before == 2
        assert report.gates_after == 3
        assert report.added_gates == 1
        assert report.gate_overhead_percent == pytest.approx(50.0)
        assert report.swap_count == 1
        assert report.depth_overhead >= 0.0

    def test_report_excludes_directives(self):
        before = Circuit(2).h(0).measure_all()
        report = overhead_report(before, before)
        assert report.gates_before == 1
        assert report.gate_overhead == 0.0

    def test_as_dict(self):
        report = overhead_report(Circuit(1).h(0), Circuit(1).h(0).x(0))
        record = report.as_dict()
        assert record["gate_overhead_percent"] == pytest.approx(100.0)


class TestProductFidelity:
    def test_paper_model(self):
        # 2 single-qubit + 1 two-qubit gate with Versluis rates.
        circuit = Circuit(2).h(0).h(1).cz(0, 1)
        expected = (1 - 0.001) ** 2 * (1 - 0.01)
        assert product_fidelity(circuit) == pytest.approx(expected)

    def test_measurement_excluded_by_default(self):
        bare = Circuit(1).x(0)
        measured = Circuit(1).x(0).measure(0)
        assert product_fidelity(bare) == product_fidelity(measured)
        assert product_fidelity(measured, include_measurement=True) < product_fidelity(
            measured
        )

    def test_ideal_calibration(self):
        circuit = Circuit(2).h(0).cz(0, 1)
        assert product_fidelity(circuit, IDEAL_CALIBRATION) == 1.0

    def test_empty_circuit(self):
        assert product_fidelity(Circuit(3)) == 1.0

    def test_monotone_in_gate_count(self):
        short = Circuit(2).cz(0, 1)
        long = Circuit(2).cz(0, 1).cz(0, 1).cz(0, 1)
        assert product_fidelity(long) < product_fidelity(short)

    def test_log_fidelity_consistent(self):
        circuit = Circuit(2).h(0).cz(0, 1).h(1).cz(0, 1)
        assert math.exp(log_fidelity(circuit)) == pytest.approx(
            product_fidelity(circuit)
        )

    def test_log_fidelity_survives_huge_circuits(self):
        huge = Circuit(2)
        for _ in range(5000):
            huge.cz(0, 1)
        assert product_fidelity(huge) == pytest.approx(0.0, abs=1e-12)
        assert log_fidelity(huge) == pytest.approx(5000 * math.log(0.99))


class TestFidelityDecrease:
    def test_no_change(self):
        circuit = Circuit(2).cz(0, 1)
        assert fidelity_decrease(circuit, circuit) == pytest.approx(0.0)

    def test_added_gates_decrease(self):
        before = Circuit(2).cz(0, 1)
        after = Circuit(2).cz(0, 1).cz(0, 1)
        assert fidelity_decrease(before, after) == pytest.approx(0.01)

    def test_report(self):
        before = Circuit(2).cz(0, 1)
        after = Circuit(2).cz(0, 1).cz(0, 1).h(0)
        report = fidelity_report(before, after)
        assert report.fidelity_before > report.fidelity_after
        assert report.decrease_percent == pytest.approx(
            100 * (1 - (0.99 * 0.999)), rel=1e-6
        )

    def test_decrease_stable_for_deep_circuits(self):
        """The log-space path keeps Fig. 3(c) meaningful at 10^5 gates."""
        before = Circuit(2)
        for _ in range(20000):
            before.cz(0, 1)
        after = before.copy()
        for _ in range(100):
            after.cz(0, 1)
        value = fidelity_decrease(before, after)
        assert value == pytest.approx(1 - 0.99 ** 100)


class TestDecoherenceFidelity:
    def test_idle_qubits_penalised(self):
        # q1 idles ~ 40ns while q0 runs two gates before the CZ.
        busy = Circuit(2).h(1).h(0).h(0).cz(0, 1)
        tight = Circuit(2).h(0).h(0).h(1).cz(0, 1)
        sched_busy = asap_schedule(busy)
        sched_tight = asap_schedule(tight)
        f_busy = decoherence_fidelity(sched_busy)
        f_tight = decoherence_fidelity(sched_tight)
        assert f_busy <= f_tight

    def test_bounded_by_gate_product(self):
        circuit = Circuit(2).h(1).h(0).h(0).cz(0, 1)
        schedule = asap_schedule(circuit)
        assert decoherence_fidelity(schedule) <= product_fidelity(circuit)
