"""Streaming calibration drift: deltas, epochs, replayable plans.

Pins the drift subsystem's contracts: a :class:`CalibrationStream`
bumps a monotonic epoch per applied delta and reports exactly which
sites moved; a seeded :class:`DriftPlan` replays identically anywhere;
and :meth:`Calibration.cache_key` is a sound version fingerprint
(permutation-invariant, single-value sensitive, pickle-stable).
"""

import pickle
from dataclasses import replace

import pytest

from repro.compiler.routing import clear_distance_cache
from repro.compiler.scheduling import alap_schedule, asap_schedule
from repro.hardware import resolve_device
from repro.hardware.calibration import SURFACE17_CALIBRATION
from repro.hardware.drift import (
    CalibrationDelta,
    CalibrationStream,
    DriftPlan,
    diff_calibrations,
)
from repro.service.cache import calibration_version
from repro.workloads import random_circuit


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_distance_cache()
    yield
    clear_distance_cache()


class TestCalibrationDelta:
    def test_canonical_regardless_of_construction_order(self):
        a = CalibrationDelta.of(
            edge_errors={(0, 1): 0.02, (2, 3): 0.03}, qubit_errors={5: 0.004}
        )
        b = CalibrationDelta.of(
            edge_errors={frozenset((3, 2)): 0.03, (1, 0): 0.02},
            qubit_errors={5: 0.004},
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_out_of_range_errors(self):
        with pytest.raises(ValueError, match="must be in"):
            CalibrationDelta.of(edge_errors={(0, 1): 1.5})
        with pytest.raises(ValueError, match="must be in"):
            CalibrationDelta.of(qubit_errors={0: -0.1})

    def test_empty_and_accessors(self):
        assert CalibrationDelta.of().empty
        delta = CalibrationDelta.of(edge_errors={(1, 0): 0.02})
        assert not delta.empty
        assert delta.edge_errors() == {frozenset((0, 1)): 0.02}


class TestCalibrationStream:
    def test_epoch_is_monotonic_and_diffs_report_changes(self):
        stream = CalibrationStream(SURFACE17_CALIBRATION)
        assert stream.epoch == 0
        diff = stream.apply(CalibrationDelta.of(edge_errors={(0, 2): 0.05}))
        assert diff.epoch == 1 and stream.epoch == 1
        assert diff.edge_changes == (
            ((0, 2), SURFACE17_CALIBRATION.two_qubit_error, 0.05),
        )
        # Re-applying the same value bumps the epoch but changes nothing.
        diff2 = stream.apply(CalibrationDelta.of(edge_errors={(0, 2): 0.05}))
        assert diff2.epoch == 2 and diff2.empty
        assert stream.calibration.edge_errors[frozenset((0, 2))] == 0.05

    def test_subscribers_see_every_update(self):
        stream = CalibrationStream(SURFACE17_CALIBRATION)
        seen = []
        stream.subscribe(lambda diff, old, new: seen.append(diff.epoch))
        stream.apply(CalibrationDelta.of(qubit_errors={3: 0.002}))
        stream.apply(CalibrationDelta.of(edge_errors={(0, 2): 0.02}))
        assert seen == [1, 2]

    def test_qubit_changes_reported_with_old_and_new(self):
        stream = CalibrationStream(SURFACE17_CALIBRATION)
        diff = stream.apply(CalibrationDelta.of(qubit_errors={3: 0.002}))
        assert diff.qubit_changes == (
            (3, SURFACE17_CALIBRATION.single_qubit_error, 0.002),
        )
        assert diff.magnitude() == pytest.approx(0.001)


class TestDiffCalibrations:
    def test_default_rate_change_flags_defaults(self):
        new = replace(SURFACE17_CALIBRATION, two_qubit_error=0.02)
        diff = diff_calibrations(SURFACE17_CALIBRATION, new)
        assert diff.defaults_changed and not diff.empty

    def test_identical_calibrations_diff_empty(self):
        assert diff_calibrations(
            SURFACE17_CALIBRATION, SURFACE17_CALIBRATION
        ).empty


class TestDriftPlan:
    def test_same_seed_same_plan(self):
        device = resolve_device("surface17")
        a = DriftPlan.generate(device, num_updates=30, seed=5)
        b = DriftPlan.generate(device, num_updates=30, seed=5)
        assert a == b and len(a) == 30
        assert a != DriftPlan.generate(device, num_updates=30, seed=6)

    def test_replay_walks_two_streams_identically(self):
        device = resolve_device("grid:4x5")
        plan = DriftPlan.generate(device, num_updates=12, seed=9)
        one = CalibrationStream(device.calibration)
        two = CalibrationStream(device.calibration)
        diffs_one = plan.replay(one)
        diffs_two = plan.replay(two)
        assert diffs_one == diffs_two
        assert one.calibration == two.calibration
        assert one.epoch == two.epoch == 12

    def test_rates_stay_in_bounds(self):
        device = resolve_device("line:16")
        plan = DriftPlan.generate(
            device, num_updates=50, seed=3, magnitude=0.9
        )
        stream = CalibrationStream(device.calibration)
        plan.replay(stream)
        for value in stream.calibration.edge_errors.values():
            assert 0.0 < value <= 0.3  # keeps 3e < 1 for the noise metric


class TestCalibrationCacheKeyProperties:
    """Regression guard for the calibration-aware key (PR 6)."""

    def test_edge_ordering_permutation_invariance(self):
        edges = {
            frozenset((0, 2)): 0.02,
            frozenset((1, 4)): 0.03,
            frozenset((2, 5)): 0.04,
        }
        forward = replace(SURFACE17_CALIBRATION, edge_errors=dict(edges))
        backward = replace(
            SURFACE17_CALIBRATION,
            edge_errors=dict(reversed(list(edges.items()))),
        )
        assert forward.cache_key() == backward.cache_key()
        assert calibration_version(forward) == calibration_version(backward)

    def test_sensitivity_to_any_single_value_change(self):
        base = replace(
            SURFACE17_CALIBRATION,
            qubit_errors={1: 0.002},
            edge_errors={frozenset((0, 2)): 0.02},
        )
        reference = base.cache_key()
        perturbed = [
            replace(base, single_qubit_error=0.0011),
            replace(base, two_qubit_error=0.011),
            replace(base, measurement_error=0.011),
            replace(base, single_qubit_duration_ns=21.0),
            replace(base, two_qubit_duration_ns=41.0),
            replace(base, measurement_duration_ns=301.0),
            replace(base, t1_us=31.0),
            replace(base, t2_us=21.0),
            replace(base, crosstalk_error=0.0051),
            base.with_qubit_error(1, 0.0021),
            base.with_qubit_error(2, 0.002),
            base.with_edge_error(0, 2, 0.021),
            base.with_edge_error(1, 4, 0.02),
        ]
        keys = {c.cache_key() for c in perturbed}
        assert len(keys) == len(perturbed)
        assert reference not in keys
        versions = {calibration_version(c) for c in perturbed}
        assert len(versions) == len(perturbed)
        assert calibration_version(base) not in versions

    def test_pickle_roundtrip_stability(self):
        base = replace(
            SURFACE17_CALIBRATION,
            qubit_errors={3: 0.002, 1: 0.003},
            edge_errors={frozenset((0, 2)): 0.02, frozenset((1, 4)): 0.03},
        )
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(base, protocol=protocol))
            assert clone.cache_key() == base.cache_key()
            assert calibration_version(clone) == calibration_version(base)

    def test_with_updates_merges_and_changes_key(self):
        base = SURFACE17_CALIBRATION.with_edge_error(0, 2, 0.02)
        updated = base.with_updates(
            edge_errors={frozenset((1, 4)): 0.03},
            qubit_errors={5: 0.002},
        )
        assert updated.edge_errors[frozenset((0, 2))] == 0.02  # kept
        assert updated.edge_errors[frozenset((1, 4))] == 0.03
        assert updated.qubit_errors[5] == 0.002
        assert updated.cache_key() != base.cache_key()
        assert base.with_updates() == base


class TestScheduleEpochPinning:
    def test_schedules_pin_the_stream_epoch(self):
        circuit = random_circuit(4, 30, 0.5, seed=2)
        stream = CalibrationStream(SURFACE17_CALIBRATION)
        stream.apply(
            CalibrationDelta.of(edge_errors={(0, 2): 0.02})
        )
        asap = asap_schedule(circuit, stream=stream)
        alap = alap_schedule(circuit, stream=stream)
        assert asap.calibration_epoch == 1
        assert alap.calibration_epoch == 1
        # Without a stream there is no epoch to pin.
        assert asap_schedule(circuit).calibration_epoch is None

    def test_pinned_durations_ignore_later_drift(self):
        circuit = random_circuit(4, 30, 0.5, seed=2)
        stream = CalibrationStream(SURFACE17_CALIBRATION)
        before = asap_schedule(circuit, stream=stream)
        # Drift after scheduling: the built schedule is immutable.
        stream.apply(CalibrationDelta.of(qubit_errors={0: 0.01}))
        after = asap_schedule(circuit, stream=stream)
        assert before.calibration_epoch == 0
        assert after.calibration_epoch == 1
        # Error-rate drift leaves durations (and hence latency) alone.
        assert before.latency_ns == after.latency_ns
