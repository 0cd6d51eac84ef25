"""The Fig. 3 reports against naive per-gate loops, bit for bit.

``fidelity_report``, ``product_fidelity``, ``log_fidelity``,
``overhead_report`` and ``Circuit.depth`` each walk a circuit once; the
loops below restate the per-gate model gate by gate (one walk per
quantity, dictionary levels for the depth) and must agree exactly,
including signed zeros, infinities and directive handling.
"""

import math
import struct

import numpy as np
import pytest

from repro.circuit import Circuit, Gate
from repro.hardware import SURFACE17_CALIBRATION
from repro.metrics import (
    fidelity_report,
    log_fidelity,
    overhead_report,
    product_fidelity,
)

NUM_QUBITS = 6
DIRECTIVES = ("measure", "reset", "barrier")


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def naive_error(gate, calibration):
    if gate.name == "barrier":
        return 0.0
    if gate.name in ("measure", "reset"):
        return calibration.measurement_error
    if len(gate.qubits) == 1:
        return calibration.qubit_errors.get(
            gate.qubits[0], calibration.single_qubit_error
        )
    if len(gate.qubits) == 2:
        a, b = gate.qubits
        return calibration.edge_errors.get(
            frozenset((a, b)), calibration.two_qubit_error
        )
    return min(0.999999, 6.0 * calibration.two_qubit_error)


def naive_product(circuit, calibration, include_measurement=False):
    fidelity = 1.0
    for gate in circuit:
        if gate.name == "barrier":
            continue
        if gate.name in ("measure", "reset") and not include_measurement:
            continue
        fidelity *= 1.0 - naive_error(gate, calibration)
    return fidelity


def naive_log(circuit, calibration):
    total = 0.0
    for gate in circuit:
        if gate.name in DIRECTIVES:
            continue
        fidelity = 1.0 - naive_error(gate, calibration)
        if fidelity <= 0.0:
            return -math.inf
        total += math.log(fidelity)
    return total


def naive_depth(circuit, count_directives=False):
    level = {}
    for gate in circuit:
        start = max((level.get(q, 0) for q in gate.qubits), default=0)
        advance = 1 if (count_directives or gate.name not in DIRECTIVES) else 0
        for q in gate.qubits:
            level[q] = start + advance if advance else max(level.get(q, 0), start)
    return max(level.values(), default=0)


def naive_gate_count(circuit):
    return sum(1 for gate in circuit if gate.name not in DIRECTIVES)


def random_circuit(seed: int, length: int = 120) -> Circuit:
    """Mixed 1q/2q/3q gates with barriers (partial, full, empty),
    measurements and resets."""
    rng = np.random.default_rng(seed)
    kinds = ["h", "x", "rz", "cx", "cz", "swap", "ccx", "measure", "reset", "barrier"]
    circuit = Circuit(NUM_QUBITS)
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "barrier":
            width = int(rng.integers(0, NUM_QUBITS + 1))
            qubits = tuple(int(q) for q in rng.permutation(NUM_QUBITS)[:width])
            circuit.append(Gate("barrier", qubits))
            continue
        arity = {"cx": 2, "cz": 2, "swap": 2, "ccx": 3}.get(kind, 1)
        qubits = tuple(int(q) for q in rng.permutation(NUM_QUBITS)[:arity])
        params = (float(rng.uniform(-3, 3)),) if kind == "rz" else ()
        circuit.append(Gate(kind, qubits, params))
    return circuit


CALIBRATIONS = {
    "default": SURFACE17_CALIBRATION,
    "overrides": SURFACE17_CALIBRATION.with_qubit_error(0, 0.02)
    .with_qubit_error(3, 0.0)
    .with_edge_error(0, 1, 0.05)
    .with_edge_error(4, 2, 0.003),
    # A certain failure on one edge: the log turns -inf, the product
    # goes on multiplying (to zero here).
    "dead_edge": SURFACE17_CALIBRATION.with_edge_error(0, 1, 1.0),
    # An out-of-range error rate: the product changes sign.
    "negative": SURFACE17_CALIBRATION.with_edge_error(1, 2, 1.5)
    .with_qubit_error(5, 2.0),
}

CIRCUITS = {
    "empty": Circuit(NUM_QUBITS),
    "directives_only": Circuit(NUM_QUBITS).barrier().measure(0).reset(1),
    "zero_width_barrier": Circuit(NUM_QUBITS).h(0).append(Gate("barrier", ())).cx(0, 1),
    **{f"random_{seed}": random_circuit(seed) for seed in range(6)},
}


@pytest.mark.parametrize("calibration", CALIBRATIONS.values(), ids=list(CALIBRATIONS))
@pytest.mark.parametrize("circuit", CIRCUITS.values(), ids=list(CIRCUITS))
class TestFidelityWalk:
    def test_gate_error_matches_model(self, circuit, calibration):
        for gate in circuit:
            assert bits(calibration.gate_error(gate)) == bits(
                naive_error(gate, calibration)
            )

    def test_product(self, circuit, calibration):
        for include in (False, True):
            assert bits(product_fidelity(circuit, calibration, include)) == bits(
                naive_product(circuit, calibration, include)
            )

    def test_log(self, circuit, calibration):
        assert bits(log_fidelity(circuit, calibration)) == bits(
            naive_log(circuit, calibration)
        )

    def test_report(self, circuit, calibration):
        after = CIRCUITS["random_5"]
        report = fidelity_report(circuit, after, calibration)
        expected = (
            naive_product(circuit, calibration),
            naive_product(after, calibration),
            naive_log(circuit, calibration),
            naive_log(after, calibration),
        )
        got = (
            report.fidelity_before,
            report.fidelity_after,
            report.log_fidelity_before,
            report.log_fidelity_after,
        )
        assert [bits(v) for v in got] == [bits(v) for v in expected]


def test_dead_edge_exercises_both_paths():
    # The fixture must reach the -inf log while the product keeps going.
    circuit = Circuit(NUM_QUBITS).cx(0, 1).h(2).cx(1, 2)
    calibration = CALIBRATIONS["dead_edge"]
    assert log_fidelity(circuit, calibration) == -math.inf
    assert bits(product_fidelity(circuit, calibration)) == bits(0.0)
    negative = CALIBRATIONS["negative"]
    assert product_fidelity(Circuit(NUM_QUBITS).cx(1, 2), negative) < 0.0
    assert log_fidelity(Circuit(NUM_QUBITS).cx(1, 2), negative) == -math.inf


@pytest.mark.parametrize("circuit", CIRCUITS.values(), ids=list(CIRCUITS))
class TestDepthWalk:
    def test_depth(self, circuit):
        for count in (False, True):
            assert circuit.depth(count_directives=count) == naive_depth(circuit, count)
        assert circuit.depth() == naive_depth(circuit)

    def test_gates_and_depth(self, circuit):
        for count in (False, True):
            assert circuit.gates_and_depth(count) == (
                naive_gate_count(circuit),
                naive_depth(circuit, count),
            )

    def test_overhead_report(self, circuit):
        after = CIRCUITS["random_4"]
        report = overhead_report(circuit, after, swap_count=7, bridge_count=2)
        assert (
            report.gates_before,
            report.gates_after,
            report.depth_before,
            report.depth_after,
            report.swap_count,
            report.bridge_count,
        ) == (
            naive_gate_count(circuit),
            naive_gate_count(after),
            naive_depth(circuit),
            naive_depth(after),
            7,
            2,
        )
