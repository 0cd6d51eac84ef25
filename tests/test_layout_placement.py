"""Unit tests for layouts and placement passes."""

import pytest

from repro.circuit import Circuit
from repro.compiler import (
    GraphSimilarityPlacement,
    Layout,
    LayoutError,
    NoiseAwarePlacement,
    RandomPlacement,
    TrivialPlacement,
)
from repro.hardware import line_device


class TestLayout:
    def test_trivial(self):
        layout = Layout.trivial(3, 5)
        assert layout.as_dict() == {0: 0, 1: 1, 2: 2}
        assert layout.virtual(0) == 0
        assert layout.is_free(4)

    def test_explicit_mapping(self):
        layout = Layout(2, 4, {0: 3, 1: 1})
        assert layout.physical(0) == 3
        assert layout.virtual(3) == 0
        assert layout.virtual(0) is None

    def test_too_many_virtual(self):
        with pytest.raises(LayoutError, match="do not fit"):
            Layout(5, 3)

    def test_non_injective_rejected(self):
        with pytest.raises(LayoutError, match="injective"):
            Layout(2, 4, {0: 1, 1: 1})

    def test_incomplete_assignment_rejected(self):
        with pytest.raises(LayoutError):
            Layout(2, 4, {0: 1})

    def test_physical_out_of_range_rejected(self):
        with pytest.raises(LayoutError):
            Layout(1, 2, {0: 5})

    def test_swap_physical_assigned_pair(self):
        layout = Layout.trivial(2, 3)
        layout.swap_physical(0, 1)
        assert layout.as_dict() == {0: 1, 1: 0}

    def test_swap_physical_with_free(self):
        layout = Layout.trivial(1, 3)
        layout.swap_physical(0, 2)
        assert layout.physical(0) == 2
        assert layout.is_free(0)

    def test_swap_is_involution(self):
        layout = Layout.trivial(3, 5)
        layout.swap_physical(1, 4)
        layout.swap_physical(1, 4)
        assert layout == Layout.trivial(3, 5)

    def test_copy_independent(self):
        layout = Layout.trivial(2, 3)
        clone = layout.copy()
        clone.swap_physical(0, 1)
        assert layout.physical(0) == 0

    def test_lookup_bounds(self):
        layout = Layout.trivial(2, 3)
        with pytest.raises(LayoutError):
            layout.physical(7)
        with pytest.raises(LayoutError):
            layout.virtual(7)
        with pytest.raises(LayoutError):
            layout.swap_physical(0, 9)


class TestTrivialPlacement:
    def test_identity(self, dev7):
        circuit = Circuit(4).cx(0, 1)
        layout = TrivialPlacement().place(circuit, dev7)
        assert layout.as_dict() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_does_not_fit(self, dev7):
        with pytest.raises(LayoutError, match="does not fit"):
            TrivialPlacement().place(Circuit(9), dev7)


class TestRandomPlacement:
    def test_valid_and_seeded(self, dev7):
        circuit = Circuit(5)
        a = RandomPlacement(seed=3).place(circuit, dev7)
        b = RandomPlacement(seed=3).place(circuit, dev7)
        assert a.as_dict() == b.as_dict()
        images = list(a.as_dict().values())
        assert len(set(images)) == 5

    def test_different_seeds_usually_differ(self, dev7):
        a = RandomPlacement(seed=1).place(Circuit(6), dev7)
        b = RandomPlacement(seed=2).place(Circuit(6), dev7)
        assert a.as_dict() != b.as_dict()


class TestGraphSimilarityPlacement:
    def test_heavy_pair_placed_adjacent(self, dev7):
        # One dominating interaction: its endpoints must share an edge.
        circuit = Circuit(4)
        for _ in range(10):
            circuit.cx(0, 1)
        circuit.cx(2, 3)
        layout = GraphSimilarityPlacement().place(circuit, dev7)
        assert dev7.coupling.are_adjacent(layout.physical(0), layout.physical(1))

    def test_chain_on_line_needs_no_swaps(self):
        device = line_device(5)
        circuit = Circuit(5)
        for q in range(4):
            circuit.cx(q, q + 1)
        layout = GraphSimilarityPlacement().place(circuit, device)
        # Chain neighbours end up adjacent on the line.
        for q in range(4):
            assert device.coupling.distance(
                layout.physical(q), layout.physical(q + 1)
            ) <= 2

    def test_seed_lands_on_max_degree(self, dev7):
        circuit = Circuit(2).cx(0, 1).cx(0, 1)
        layout = GraphSimilarityPlacement().place(circuit, dev7)
        # Virtual 0 (heaviest) sits on the best-connected physical qubit (3).
        assert dev7.coupling.degree(layout.physical(0)) == 4

    def test_no_interactions_still_valid(self, dev7):
        layout = GraphSimilarityPlacement().place(Circuit(3).h(0), dev7)
        images = list(layout.as_dict().values())
        assert len(set(images)) == 3


class TestNoiseAwarePlacement:
    def test_avoids_bad_edges(self):
        device = line_device(4)
        # Poison the (0,1) edge; a single heavy interaction should avoid it.
        bad_cal = device.calibration.with_edge_error(0, 1, 0.4)
        from repro.hardware import Device

        noisy = Device(device.coupling, bad_cal, device.gate_set)
        circuit = Circuit(2)
        for _ in range(5):
            circuit.cx(0, 1)
        layout = NoiseAwarePlacement().place(circuit, noisy)
        placed_edge = frozenset(
            (layout.physical(0), layout.physical(1))
        )
        assert placed_edge != frozenset((0, 1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            NoiseAwarePlacement(error_weight=-1)
