"""Unit tests for the peephole optimiser (repro.compiler.optimize).

Every pass must preserve the circuit unitary (up to global phase); the
suite checks that invariant on randomised circuits as well as the
specific rewrites.
"""

import math

import pytest

from repro.circuit import Circuit
from repro.compiler import (
    cancel_inverse_pairs,
    merge_rotations,
    optimize_circuit,
    remove_trivial_gates,
)
from repro.sim import circuits_equivalent
from repro.workloads import random_circuit


class TestRemoveTrivial:
    def test_identity_removed(self):
        assert len(remove_trivial_gates(Circuit(1).i(0).x(0))) == 1

    def test_zero_rotation_removed(self):
        circuit = Circuit(1).rz(0.0, 0).rx(2 * math.pi, 0).ry(0.5, 0)
        cleaned = remove_trivial_gates(circuit)
        assert [g.name for g in cleaned] == ["ry"]

    def test_nonzero_kept(self):
        assert len(remove_trivial_gates(Circuit(1).rz(0.1, 0))) == 1


class TestCancelInversePairs:
    def test_adjacent_self_inverse(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1).cx(0, 1)
        assert len(cancel_inverse_pairs(circuit)) == 0

    def test_s_sdg_pair(self):
        assert len(cancel_inverse_pairs(Circuit(1).s(0).sdg(0))) == 0

    def test_rotation_inverse_pair(self):
        circuit = Circuit(1).rz(0.7, 0).rz(-0.7, 0)
        # rz pair is merged-or-cancelled only by exact inverse match.
        assert len(cancel_inverse_pairs(circuit)) == 0

    def test_non_inverse_kept(self):
        assert len(cancel_inverse_pairs(Circuit(1).h(0).x(0))) == 2

    def test_blocked_by_intervening_gate(self):
        circuit = Circuit(1).h(0).x(0).h(0)
        assert len(cancel_inverse_pairs(circuit)) == 3

    def test_disjoint_gates_do_not_block(self):
        circuit = Circuit(2).h(0).x(1).h(0)
        assert len(cancel_inverse_pairs(circuit)) == 1

    def test_commuting_gate_does_not_block(self):
        # rz on the control commutes with cx: the two cx cancel.
        circuit = Circuit(2).cx(0, 1).rz(0.5, 0).cx(0, 1)
        optimised = cancel_inverse_pairs(circuit)
        assert [g.name for g in optimised] == ["rz"]

    def test_commute_through_disabled(self):
        circuit = Circuit(2).cx(0, 1).rz(0.5, 0).cx(0, 1)
        assert len(cancel_inverse_pairs(circuit, commute_through=False)) == 3

    def test_symmetric_operands_cancel(self):
        circuit = Circuit(2).cz(0, 1).cz(1, 0)
        assert len(cancel_inverse_pairs(circuit)) == 0
        circuit = Circuit(2).swap(0, 1).swap(1, 0)
        assert len(cancel_inverse_pairs(circuit)) == 0

    def test_asymmetric_operands_do_not_cancel(self):
        circuit = Circuit(2).cx(0, 1).cx(1, 0)
        assert len(cancel_inverse_pairs(circuit)) == 2

    def test_barrier_blocks_cancellation(self):
        circuit = Circuit(1).h(0).barrier(0).h(0)
        assert len(cancel_inverse_pairs(circuit).without_directives()) == 2

    def test_measure_never_cancelled(self):
        circuit = Circuit(1).measure(0).measure(0)
        assert len(cancel_inverse_pairs(circuit)) == 2


class TestMergeRotations:
    def test_same_axis_merged(self):
        circuit = Circuit(1).rz(0.3, 0).rz(0.4, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.7)

    def test_merge_to_zero_drops(self):
        circuit = Circuit(1).rz(0.3, 0).rz(-0.3, 0)
        assert len(merge_rotations(circuit)) == 0

    def test_different_axes_not_merged(self):
        assert len(merge_rotations(Circuit(1).rz(0.3, 0).rx(0.4, 0))) == 2

    def test_disjoint_qubits_do_not_block(self):
        circuit = Circuit(2).rz(0.3, 0).h(1).rz(0.4, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 2

    def test_two_qubit_rotation_merge(self):
        circuit = Circuit(2).rzz(0.2, 0, 1).rzz(0.3, 0, 1)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.5)

    def test_crz_operand_order_respected(self):
        circuit = Circuit(2).crz(0.2, 0, 1).crz(0.3, 1, 0)
        assert len(merge_rotations(circuit)) == 2


class TestOptimizeCircuit:
    def test_fixpoint_cascade(self):
        # x t tdg x -> x x -> empty (needs two rounds).
        circuit = Circuit(1).x(0).t(0).tdg(0).x(0)
        assert len(optimize_circuit(circuit)) == 0

    def test_semantics_preserved_on_random_circuits(self):
        for seed in range(5):
            circuit = random_circuit(4, 60, 0.4, seed=seed)
            optimised = optimize_circuit(circuit)
            assert len(optimised) <= len(circuit)
            assert circuits_equivalent(circuit, optimised)

    def test_semantics_preserved_with_measures_stripped(self):
        circuit = Circuit(3).h(0).h(0).cx(0, 1).rz(0.1, 1).rz(-0.1, 1).cx(0, 1)
        optimised = optimize_circuit(circuit)
        assert circuits_equivalent(circuit, optimised)
        assert len(optimised) == 0

    def test_idempotent(self):
        circuit = random_circuit(4, 40, 0.3, seed=7)
        once = optimize_circuit(circuit)
        twice = optimize_circuit(once)
        assert once == twice
