"""Incremental SABRE scoring vs the reference SABRE loop.

The router, which scores swap candidates by the delta of the two moved
qubits, must be bit-for-bit equivalent to the pre-optimisation loop kept
as :func:`repro.fuzz.reference.reference_route`: same routed circuit,
same swap count, same final layout, for any circuit/device/seed
combination.  These tests pin that equivalence on ring, grid and
Surface-17 topologies, plus regression pins for the stall-fallback and
decay-reset behaviour and for the distance-matrix caching layer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.compiler import (
    Layout,
    NoiseAwareRouter,
    SabreRouter,
    decompose_circuit,
)
from repro.compiler.routing import (
    _DISTANCE_CACHE,
    clear_distance_cache,
)
from repro.fuzz.reference import reference_route
from repro.hardware import (
    CNOT_GATESET,
    CouplingGraph,
    Device,
    SURFACE17_CALIBRATION,
    grid_device,
    line_device,
    ring,
    surface17_device,
)
from repro.sim import verify_mapping
from repro.workloads import qft, random_circuit

RING8 = Device(ring(8), SURFACE17_CALIBRATION, CNOT_GATESET, name="ring-8")

DEVICES = [RING8, grid_device(4, 4), surface17_device()]


def _route_both(router_cls, circuit, device, seed, **kwargs):
    layout = Layout.trivial(circuit.num_qubits, device.num_qubits)
    router = router_cls(seed=seed, **kwargs)
    fast = router.route(circuit, device, layout)
    slow = reference_route(router, circuit, device, layout)
    return fast, slow


def _assert_identical(fast, slow):
    assert fast.circuit == slow.circuit
    assert fast.swap_count == slow.swap_count
    assert fast.initial_layout == slow.initial_layout
    assert fast.final_layout == slow.final_layout


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name or "grid")
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_circuits_identical(self, device, seed):
        circuit = random_circuit(
            min(8, device.num_qubits), 120, 0.5, seed=seed
        )
        fast, slow = _route_both(SabreRouter, circuit, device, seed=seed + 7)
        _assert_identical(fast, slow)
        assert verify_mapping(
            circuit, fast.circuit, fast.initial_layout, fast.final_layout
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_noise_aware_identical(self, seed):
        device = surface17_device()
        circuit = random_circuit(10, 100, 0.5, seed=seed)
        fast, slow = _route_both(NoiseAwareRouter, circuit, device, seed=seed)
        _assert_identical(fast, slow)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noise_aware_nonuniform_calibration_identical(self, seed):
        calibration = SURFACE17_CALIBRATION.with_edge_error(
            0, 1, 0.03
        ).with_edge_error(2, 5, 0.002)
        device = surface17_device(calibration=calibration)
        circuit = random_circuit(10, 80, 0.5, seed=seed)
        fast, slow = _route_both(NoiseAwareRouter, circuit, device, seed=seed)
        _assert_identical(fast, slow)

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        num_gates=st.integers(min_value=1, max_value=80),
        frac=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_equivalence_on_ring(self, seed, num_gates, frac):
        circuit = random_circuit(8, num_gates, frac, seed=seed)
        fast, slow = _route_both(SabreRouter, circuit, RING8, seed=seed % 97)
        _assert_identical(fast, slow)

    def test_qft_on_surface17_identical(self):
        device = surface17_device()
        circuit = decompose_circuit(qft(8), device.gate_set)
        fast, slow = _route_both(SabreRouter, circuit, device, seed=11)
        _assert_identical(fast, slow)
        assert fast.swap_count > 0


class TestStallFallback:
    """``stall_limit`` exhaustion falls back to shortest-path insertion."""

    def test_stall_fallback_pinned(self):
        circuit = Circuit(8).cx(0, 4)
        result = SabreRouter(seed=3, stall_limit=0).route(
            circuit, RING8, Layout.trivial(8, 8)
        )
        assert result.swap_count == 3
        swaps = [g.qubits for g in result.circuit if g.name == "swap"]
        assert swaps == [(4, 5), (0, 7), (7, 6)]
        assert verify_mapping(
            circuit, result.circuit, result.initial_layout, result.final_layout
        )

    def test_stall_fallback_identical_across_paths(self):
        circuit = Circuit(8).cx(0, 4).cx(1, 5).cx(2, 6)
        fast, slow = _route_both(
            SabreRouter, circuit, RING8, seed=3, stall_limit=0
        )
        _assert_identical(fast, slow)


class TestDecayReset:
    """Decay bookkeeping is deterministic under a fixed seed."""

    def test_decay_reset_swap_sequence_pinned(self):
        device = line_device(5)
        circuit = decompose_circuit(qft(5), device.gate_set)
        result = SabreRouter(seed=13).route(
            circuit, device, Layout.trivial(5, 5)
        )
        assert result.swap_count == 9
        swaps = [g.qubits for g in result.circuit if g.name == "swap"]
        assert swaps[:6] == [(0, 1), (1, 2), (2, 3), (1, 2), (3, 4), (2, 3)]

    def test_decay_reset_interval_identical_across_paths(self):
        device = line_device(5)
        circuit = decompose_circuit(qft(5), device.gate_set)
        for interval in (1, 5, 1000):
            fast, slow = _route_both(
                SabreRouter,
                circuit,
                device,
                seed=13,
                decay_reset_interval=interval,
            )
            _assert_identical(fast, slow)


class TestDistanceMatrix:
    def test_unreachable_pairs_are_infinite(self):
        """-1 sentinels from CouplingGraph become +inf, never negative."""
        disconnected = CouplingGraph(4, [(0, 1), (2, 3)])
        device = Device(disconnected, SURFACE17_CALIBRATION, CNOT_GATESET)
        dist = SabreRouter()._build_distance_matrix(device)
        assert math.isinf(dist[0, 2]) and dist[0, 2] > 0
        assert math.isinf(dist[1, 3])
        assert dist[0, 1] == 1.0 and dist[2, 3] == 1.0
        assert not (dist < 0).any()

    def test_distance_matrix_memoised(self):
        clear_distance_cache()
        device = surface17_device()
        first = SabreRouter()._distance_matrix(device)
        second = SabreRouter()._distance_matrix(device)
        assert first is second

    def test_cached_matrix_is_read_only(self):
        clear_distance_cache()
        dist = SabreRouter()._distance_matrix(surface17_device())
        with pytest.raises(ValueError):
            dist[0, 0] = 42.0

    def test_noise_cache_keyed_on_calibration_version(self):
        clear_distance_cache()
        base = surface17_device()
        bumped = surface17_device(
            calibration=SURFACE17_CALIBRATION.with_edge_error(0, 2, 0.2)
        )
        router = NoiseAwareRouter()
        d_base = router._distance_matrix(base)
        d_bumped = router._distance_matrix(bumped)
        assert d_base is not d_bumped
        assert not np.array_equal(d_base, d_bumped)
        # Same coupling + same calibration shares a single cached table.
        assert router._distance_matrix(surface17_device()) is d_base

    def test_hop_and_noise_tables_do_not_collide(self):
        clear_distance_cache()
        device = surface17_device()
        hops = SabreRouter()._distance_matrix(device)
        noise = NoiseAwareRouter()._distance_matrix(device)
        assert hops is not noise

    def test_clear_distance_cache(self):
        device = surface17_device()
        first = SabreRouter()._distance_matrix(device)
        clear_distance_cache()
        assert len(_DISTANCE_CACHE) == 0
        assert SabreRouter()._distance_matrix(device) is not first

    def test_cache_is_bounded(self):
        clear_distance_cache()
        router = SabreRouter()
        for n in range(3, 40):
            router._distance_matrix(line_device(n))
        assert len(_DISTANCE_CACHE) <= 32


class TestSurface17RandomCircuits:
    """Whole routes of 60-gate random circuits on Surface-17 match."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_routes_match_reference(self, seed):
        device = surface17_device()
        circuit = random_circuit(10, 60, 0.6, seed=seed)
        fast, slow = _route_both(SabreRouter, circuit, device, seed=seed)
        _assert_identical(fast, slow)
