"""Unit tests for the exact (optimal) A* router."""

import pytest

from repro.circuit import Circuit
from repro.compiler import (
    ExactRouter,
    Layout,
    RoutingError,
    SabreRouter,
    TrivialRouter,
    optimal_swap_count,
)
from repro.hardware import all_to_all_device, line_device
from repro.sim import verify_mapping
from repro.workloads import random_circuit


class TestExactRouterCorrectness:
    def test_single_far_gate_on_line(self):
        device = line_device(5)
        circuit = Circuit(5).cx(0, 4)
        result = ExactRouter().route(circuit, device, Layout.trivial(5, 5))
        assert result.swap_count == 3  # distance 4 -> 3 swaps
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )

    def test_crossing_pairs(self):
        # cx(0,3) and cx(1,2) on a line: 2 swaps suffice (not 3).
        device = line_device(4)
        circuit = Circuit(4).cx(0, 3).cx(1, 2)
        assert optimal_swap_count(circuit, device) == 2

    def test_adjacent_gates_cost_zero(self):
        device = line_device(3)
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        assert optimal_swap_count(circuit, device) == 0

    def test_all_to_all_cost_zero(self):
        device = all_to_all_device(5)
        circuit = random_circuit(5, 20, 0.6, seed=0)
        assert optimal_swap_count(circuit, device) == 0

    def test_one_qubit_gates_pass_through(self):
        device = line_device(3)
        circuit = Circuit(3).h(0).cx(0, 2).x(1)
        result = ExactRouter().route(circuit, device, Layout.trivial(3, 3))
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_never_worse_than_heuristics(self, seed, dev7):
        circuit = random_circuit(5, 10, 0.6, seed=seed, two_qubit_gates=("cx",))
        layout = Layout.trivial(5, 7)
        optimal = ExactRouter().route(circuit, dev7, layout)
        sabre = SabreRouter(seed=0).route(circuit, dev7, layout)
        trivial = TrivialRouter().route(circuit, dev7, layout)
        assert optimal.swap_count <= sabre.swap_count
        assert optimal.swap_count <= trivial.swap_count
        assert verify_mapping(
            circuit,
            optimal.circuit,
            optimal.initial_layout,
            optimal.final_layout,
        )

    def test_respects_custom_initial_layout(self):
        device = line_device(4)
        layout = Layout(2, 4, {0: 0, 1: 3})
        circuit = Circuit(2).cx(0, 1)
        result = ExactRouter().route(circuit, device, layout)
        assert result.swap_count == 2
        assert result.initial_layout == {0: 0, 1: 3}


class TestExactRouterLimits:
    def test_state_budget_raises(self):
        device = line_device(6)
        circuit = random_circuit(6, 30, 0.7, seed=1, two_qubit_gates=("cx",))
        with pytest.raises(RoutingError, match="exceeded"):
            ExactRouter(max_states=3).route(
                circuit, device, Layout.trivial(6, 6)
            )

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            ExactRouter(max_states=0)

    def test_rejects_three_qubit_gates(self):
        device = line_device(3)
        with pytest.raises(RoutingError, match="arity"):
            ExactRouter().route(
                Circuit(3).ccx(0, 1, 2), device, Layout.trivial(3, 3)
            )


class TestOptimalityGapKnownCases:
    def test_line_reversal_lower_bound(self):
        """Fully reversing qubits on a line: known n(n-1)/2 SWAP bound
        when every distant pair must interact once in reverse order."""
        device = line_device(4)
        circuit = Circuit(4).cx(0, 3).cx(1, 3).cx(0, 2)
        optimal = optimal_swap_count(circuit, device)
        assert 2 <= optimal <= 3

    def test_zero_swap_placement_exists(self, dev7):
        # The same chain needs 0 swaps if the initial layout matches.
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        layout = Layout(3, 7, {0: 0, 1: 3, 2: 5})  # 0-3-5 is a path on s7
        assert (
            ExactRouter().route(circuit, dev7, layout).swap_count == 0
        )
