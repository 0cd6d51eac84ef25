"""Batched oracle equivalence: batched simulation vs the serial reference."""

import numpy as np
import pytest

from repro.circuit import Circuit, Gate
from repro.circuit.gates import gate_matrix
from repro.compiler.mapper import sabre_mapper, trivial_mapper
from repro.hardware.device import grid_device, line_device
from repro.sim import (
    Simulator,
    allclose_up_to_global_phase,
    apply_gate_batched,
    circuit_unitary,
    fused_operations,
    random_product_state,
    random_product_states,
    run_batched,
    sample_counts,
    statevector,
    verify_mapping,
    zero_state,
)
from repro.fuzz.reference import _embed_virtual_state, reference_verify
from repro.sim.equivalence import _embed_states
from repro.workloads.random_circuits import random_circuit


def _ghz(n):
    circuit = Circuit(n)
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


class TestRandomProductStates:
    def test_matches_sequential_draws(self):
        """A seeded batch draws exactly like sequential single-state calls."""
        batch = random_product_states(4, 5, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        for index in range(5):
            expected = random_product_state(4, rng)
            assert np.array_equal(batch[index], expected)

    def test_shape_and_normalisation(self):
        batch = random_product_states(3, 7, np.random.default_rng(0))
        assert batch.shape == (7, 2, 2, 2)
        norms = np.sum(np.abs(batch) ** 2, axis=(1, 2, 3))
        assert np.allclose(norms, 1.0)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one"):
            random_product_states(3, 0)


class TestApplyGateBatched:
    def test_matches_per_state_application(self):
        states = random_product_states(3, 4, np.random.default_rng(1))
        gate = Gate("cx", (2, 0))
        batched = apply_gate_batched(states, gate)
        simulator = Simulator(seed=0)
        circuit = Circuit(3)
        circuit.cx(2, 0)
        for index in range(4):
            expected = simulator.run(circuit, initial_state=states[index]).state
            assert np.allclose(batched[index], expected)


class TestFusedOperations:
    def test_merges_adjacent_single_qubit_runs(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.t(0)
        circuit.x(1)
        circuit.cx(0, 1)
        circuit.s(1)
        circuit.z(1)
        operations = circuit.num_operations
        fused = fused_operations(circuit)
        assert len(fused) < operations
        # h;t on qubit 0 fuse into T @ H (later gate multiplies from left).
        matrix, qubits = fused[0]
        assert qubits == (0,)
        expected = gate_matrix(Gate("t", (0,))) @ gate_matrix(Gate("h", (0,)))
        assert np.allclose(matrix, expected)

    def test_preserves_circuit_unitary(self):
        circuit = random_circuit(4, 40, 0.4, seed=9)
        state = random_product_state(4, np.random.default_rng(3))
        fused_out = run_batched(circuit, state[np.newaxis], fuse=True)[0]
        plain_out = run_batched(circuit, state[np.newaxis], fuse=False)[0]
        assert np.allclose(fused_out, plain_out)

    def test_trailing_single_qubit_gates_are_flushed(self):
        circuit = Circuit(2)
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.h(1)
        fused = fused_operations(circuit)
        touched = sorted(qubits for _, qubits in fused[1:])
        assert touched == [(0,), (1,)]

    def test_rejects_directives(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.barrier()
        with pytest.raises(ValueError, match="directive"):
            fused_operations(circuit)


class TestRunBatched:
    def test_matches_serial_simulation(self):
        circuit = random_circuit(5, 60, 0.35, seed=11)
        states = random_product_states(5, 6, np.random.default_rng(5))
        batched = run_batched(circuit, states)
        simulator = Simulator(seed=0)
        for index in range(6):
            expected = simulator.run(circuit, initial_state=states[index]).state
            assert np.allclose(batched[index], expected, atol=1e-12)

    def test_accepts_flat_state_batch(self):
        circuit = _ghz(3)
        flat = zero_state(3).reshape(1, -1)
        out = run_batched(circuit, flat)
        assert np.allclose(out[0], statevector(circuit))

    def test_skips_barriers(self):
        circuit = Circuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.cx(0, 1)
        out = run_batched(circuit, zero_state(2)[np.newaxis])
        assert np.allclose(out[0], statevector(circuit.without_directives()))

    def test_rejects_measurement(self):
        circuit = Circuit(1)
        circuit.h(0)
        circuit.measure(0)
        with pytest.raises(ValueError, match="measurement-free"):
            run_batched(circuit, zero_state(1)[np.newaxis])

    def test_rejects_wrong_dimension(self):
        circuit = _ghz(2)
        with pytest.raises(ValueError, match="wrong dimension"):
            run_batched(circuit, np.zeros((2, 3), dtype=complex))

    def test_rejects_empty_batch(self):
        circuit = _ghz(2)
        with pytest.raises(ValueError, match="non-empty batch"):
            run_batched(circuit, np.zeros((0, 4), dtype=complex))


def _embed_reference(virtual_state, num_physical, layout):
    """The original per-filler ``tensordot`` embedding, kept as the test
    oracle for the single-allocation implementation."""
    num_virtual = virtual_state.ndim
    zero = np.array([1.0, 0.0], dtype=complex)
    state = virtual_state
    for _ in range(num_physical - num_virtual):
        state = np.tensordot(state, zero, axes=0)
    assigned = set(layout[v] for v in range(num_virtual))
    free = [p for p in range(num_physical) if p not in assigned]
    destination = [layout[v] for v in range(num_virtual)] + free
    return np.moveaxis(state, range(num_physical), destination)


class TestEmbedding:
    @pytest.mark.parametrize(
        "layout", [{0: 0, 1: 1, 2: 2}, {0: 4, 1: 0, 2: 2}, {0: 3, 1: 1, 2: 4}]
    )
    def test_matches_reference_embedding(self, layout):
        state = random_product_state(3, np.random.default_rng(8))
        fast = _embed_virtual_state(state, 5, layout)
        assert np.array_equal(fast, _embed_reference(state, 5, layout))

    def test_batched_embedding_stacks_single_embeddings(self):
        states = random_product_states(2, 4, np.random.default_rng(2))
        layout = {0: 2, 1: 0}
        embedded = _embed_states(states, 4, layout, 2)
        assert embedded.shape == (4, 2, 2, 2, 2)
        for index in range(4):
            assert np.array_equal(
                embedded[index], _embed_reference(states[index], 4, layout)
            )


#: The batched oracle and the serial reference loop, compared below.
ORACLES = (verify_mapping, reference_verify)


class TestVerifyMappingBatched:
    @pytest.mark.parametrize("make_mapper", [trivial_mapper, sabre_mapper])
    def test_batched_agrees_with_serial_on_mapped_circuits(self, make_mapper):
        device = grid_device(3, 3)
        for seed in (0, 1, 2):
            circuit = random_circuit(5, 30, 0.4, seed=seed)
            result = make_mapper().map(circuit, device)
            assert result.verify(trials=4, seed=99)
            # The reference sees the compacted register verify() builds.
            compact, initial, final = result._compact()
            assert reference_verify(
                result.original, compact, initial, final, trials=4, seed=99
            )

    def test_wrong_mapping_rejected_on_both_paths(self):
        """A corrupted mapped circuit must fail identically on each path."""
        device = line_device(4)
        circuit = random_circuit(3, 20, 0.4, seed=7)
        result = trivial_mapper().map(circuit, device)
        broken = result.mapped.copy()
        broken.x(0)  # corrupt: extra gate the original never applies
        for oracle in ORACLES:
            assert not oracle(
                result.original,
                broken,
                result.initial_layout,
                result.final_layout,
                trials=4,
                seed=99,
            )

    def test_same_seed_same_inputs_across_paths(self):
        """Seeded batched/serial runs verify the identical trial states."""
        circuit = _ghz(3)
        mapped = _ghz(3)
        layout = {0: 0, 1: 1, 2: 2}
        for oracle in ORACLES:
            assert oracle(circuit, mapped, layout, layout, trials=5, seed=17)

    def test_permuted_readout_verified(self):
        """The final layout, not the identity, defines correctness."""
        original = Circuit(2)
        original.h(0)
        original.cx(0, 1)
        mapped = Circuit(2)
        mapped.h(1)
        mapped.cx(1, 0)
        swapped = {0: 1, 1: 0}
        for oracle in ORACLES:
            assert oracle(original, mapped, swapped, swapped)
            assert not oracle(original, mapped, {0: 0, 1: 1}, {0: 0, 1: 1})


class TestSampleCounts:
    @pytest.mark.parametrize("shots", [0, -3])
    def test_rejects_non_positive_shots(self, shots):
        with pytest.raises(ValueError, match="positive"):
            sample_counts(_ghz(2), shots)

    def test_histogram_sums_to_shots(self):
        counts = sample_counts(_ghz(3), shots=500, seed=3)
        assert sum(counts.values()) == 500
        assert set(counts) <= {"000", "111"}

    def test_seed_reproducible(self):
        assert sample_counts(_ghz(2), 100, seed=5) == sample_counts(
            _ghz(2), 100, seed=5
        )


class TestGlobalPhase:
    def test_batched_path_ignores_global_phase(self):
        original = Circuit(1)
        original.x(0)
        phased = Circuit(1)
        phased.x(0)
        phased.z(0)
        phased.x(0)
        phased.z(0)
        phased.x(0)  # Z X Z X = -I, so this equals -X
        layout = {0: 0}
        assert allclose_up_to_global_phase(
            circuit_unitary(phased), -circuit_unitary(original)
        )
        for oracle in ORACLES:
            assert oracle(original, phased, layout, layout)
