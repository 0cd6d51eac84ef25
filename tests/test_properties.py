"""Property-based tests (hypothesis) on the core data structures.

Invariants covered:

* circuit IR: QASM round-trip identity; inverse composition = identity;
  depth bounds; remap bijectivity,
* interaction graphs: total weight = two-qubit gate count; degree and
  adjacency-statistic bounds,
* layouts: SWAP sequences keep the layout a bijection,
* compilation: decomposition and optimisation preserve the unitary;
  routing preserves semantics under the layout contract,
* metrics: gate-fidelity product bounds and monotonicity.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, parse_qasm, to_qasm
from repro.compiler import (
    Layout,
    SabreRouter,
    TrivialRouter,
    decompose_circuit,
    optimize_circuit,
)
from repro.core import InteractionGraph, compute_metrics
from repro.hardware import SURFACE17_GATESET, CNOT_GATESET, line_device
from repro.metrics import product_fidelity
from repro.sim import circuits_equivalent, verify_mapping

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_ANGLES = st.floats(
    min_value=-2 * math.pi,
    max_value=2 * math.pi,
    allow_nan=False,
    allow_infinity=False,
)


@st.composite
def small_circuits(draw, max_qubits=4, max_gates=25, allow_directives=False):
    num_qubits = draw(st.integers(2, max_qubits))
    num_gates = draw(st.integers(0, max_gates))
    circuit = Circuit(num_qubits)
    one_q = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
    rot = ["rx", "ry", "rz", "p"]
    two_q = ["cx", "cz", "swap"]
    rot2 = ["rzz", "cp", "crz"]
    for _ in range(num_gates):
        kind = draw(st.integers(0, 3 if not allow_directives else 4))
        if kind == 0:
            circuit.add(draw(st.sampled_from(one_q)), draw(st.integers(0, num_qubits - 1)))
        elif kind == 1:
            circuit.add(
                draw(st.sampled_from(rot)),
                draw(st.integers(0, num_qubits - 1)),
                params=(draw(_ANGLES),),
            )
        elif kind == 2:
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            circuit.add(draw(st.sampled_from(two_q)), a, b)
        elif kind == 3:
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            circuit.add(draw(st.sampled_from(rot2)), a, b, params=(draw(_ANGLES),))
        else:
            circuit.barrier()
    return circuit


# ---------------------------------------------------------------------------
# Circuit IR properties
# ---------------------------------------------------------------------------


class TestCircuitProperties:
    @given(small_circuits(allow_directives=True))
    @settings(max_examples=40, deadline=None)
    def test_qasm_roundtrip_preserves_structure(self, circuit):
        parsed = parse_qasm(to_qasm(circuit))
        assert parsed.num_qubits == circuit.num_qubits
        assert [g.name for g in parsed] == [g.name for g in circuit]
        for original, reparsed in zip(circuit, parsed):
            assert reparsed.qubits == original.qubits
            for p, q in zip(original.params, reparsed.params):
                assert q == pytest.approx(p, abs=1e-12)

    @given(small_circuits(max_gates=12))
    @settings(max_examples=20, deadline=None)
    def test_inverse_composition_is_identity(self, circuit):
        identity = circuit.compose(circuit.inverse())
        assert circuits_equivalent(identity, Circuit(circuit.num_qubits))

    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_depth_bounds(self, circuit):
        depth = circuit.depth()
        assert depth <= circuit.num_gates
        if circuit.num_gates:
            assert depth >= 1
        assert len(circuit.moments()) >= depth

    @given(small_circuits())
    @settings(max_examples=30, deadline=None)
    def test_remap_roundtrip(self, circuit):
        n = circuit.num_qubits
        forward = {q: (q + 1) % n for q in range(n)}
        backward = {v: k for k, v in forward.items()}
        assert circuit.remap_qubits(forward).remap_qubits(backward) == circuit


class TestInteractionGraphProperties:
    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_total_weight_counts_two_qubit_gates(self, circuit):
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.total_weight == circuit.num_two_qubit_gates

    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_metric_bounds(self, circuit):
        metrics = compute_metrics(InteractionGraph.from_circuit(circuit))
        n = metrics.num_qubits
        assert 0 <= metrics.min_degree <= metrics.max_degree <= max(0, n - 1)
        assert 0.0 <= metrics.density <= 1.0
        assert 0.0 <= metrics.clustering_coefficient <= 1.0
        assert metrics.adjacency_variance >= 0.0
        assert metrics.avg_shortest_path <= metrics.diameter + 1e-12
        assert all(np.isfinite(v) for v in metrics.as_dict().values())

    @given(small_circuits())
    @settings(max_examples=30, deadline=None)
    def test_adjacency_matrix_total(self, circuit):
        graph = InteractionGraph.from_circuit(circuit)
        assert graph.adjacency_matrix().sum() == pytest.approx(
            2 * graph.total_weight
        )


class TestLayoutProperties:
    @given(
        st.integers(1, 5),
        st.integers(5, 8),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_swaps_preserve_bijection(self, num_virtual, num_physical, swaps):
        layout = Layout.trivial(num_virtual, num_physical)
        for a, b in swaps:
            a %= num_physical
            b %= num_physical
            if a != b:
                layout.swap_physical(a, b)
        images = [layout.physical(v) for v in range(num_virtual)]
        assert len(set(images)) == num_virtual
        for v in range(num_virtual):
            assert layout.virtual(layout.physical(v)) == v


class TestCompilationProperties:
    @given(small_circuits(max_qubits=3, max_gates=10))
    @settings(max_examples=15, deadline=None)
    def test_decomposition_preserves_unitary(self, circuit):
        for gate_set in (SURFACE17_GATESET, CNOT_GATESET):
            lowered = decompose_circuit(circuit, gate_set)
            assert circuits_equivalent(circuit, lowered)

    @given(small_circuits(max_qubits=3, max_gates=14))
    @settings(max_examples=15, deadline=None)
    def test_optimizer_preserves_unitary(self, circuit):
        optimised = optimize_circuit(circuit)
        assert len(optimised) <= len(circuit)
        assert circuits_equivalent(circuit, optimised)

    @given(small_circuits(max_qubits=4, max_gates=12), st.sampled_from([0, 1]))
    @settings(max_examples=15, deadline=None)
    def test_routing_preserves_semantics(self, circuit, which):
        device = line_device(circuit.num_qubits)
        router = (TrivialRouter(), SabreRouter(seed=0))[which]
        result = router.route(
            circuit, device, Layout.trivial(circuit.num_qubits, device.num_qubits)
        )
        for gate in result.circuit:
            if gate.is_two_qubit:
                assert device.coupling.are_adjacent(*gate.qubits)
        assert verify_mapping(
            circuit.without_directives(),
            result.circuit.without_directives(),
            result.initial_layout,
            result.final_layout,
            trials=2,
        )


class TestFidelityProperties:
    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_fidelity_bounds(self, circuit):
        fidelity = product_fidelity(circuit)
        assert 0.0 <= fidelity <= 1.0

    @given(small_circuits(max_gates=15))
    @settings(max_examples=30, deadline=None)
    def test_fidelity_monotone_under_extension(self, circuit):
        extended = circuit.copy().cz(0, 1)
        assert product_fidelity(extended) <= product_fidelity(circuit)


@st.composite
def connected_topologies(draw, min_qubits=3, max_qubits=7):
    """Random connected coupling graphs (spanning tree + extra edges)."""
    from repro.hardware import CouplingGraph

    n = draw(st.integers(min_qubits, max_qubits))
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        edges.add((parent, node))
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 2))
        if b >= a:
            b += 1
        edges.add((min(a, b), max(a, b)))
    return CouplingGraph(n, sorted(edges))


class TestRoutingOnRandomTopologies:
    @given(connected_topologies(), small_circuits(max_qubits=3, max_gates=10))
    @settings(max_examples=15, deadline=None)
    def test_routing_any_connected_chip(self, coupling, circuit):
        from repro.hardware import CNOT_GATESET, Device, SURFACE17_CALIBRATION

        device = Device(coupling, SURFACE17_CALIBRATION, CNOT_GATESET)
        if circuit.num_qubits > device.num_qubits:
            return
        layout = Layout.trivial(circuit.num_qubits, device.num_qubits)
        for router in (TrivialRouter(), SabreRouter(seed=0)):
            result = router.route(circuit, device, layout)
            for gate in result.circuit:
                if gate.is_two_qubit:
                    assert coupling.are_adjacent(*gate.qubits)
            assert verify_mapping(
                circuit.without_directives(),
                result.circuit.without_directives(),
                result.initial_layout,
                result.final_layout,
                trials=2,
            )
