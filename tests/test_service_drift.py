"""Streaming calibration drift through the serving layer.

Pins the epoch semantics of ``CompilationService.apply_drift``: jobs
admitted at epoch N resolve with epoch-N payload bytes even when drift
lands mid-flight, the next identical request misses the cache and
recompiles under the N+1 calibration, hit/miss counters stay exact,
worker counts stay byte-identical across a drifting request stream, a
worker respawned after a drift serves the drifted calibration, and
``stats()["drift"]`` counts the parent's wholesale noise-table rebuilds.
"""

import pytest

from repro.compiler.routing import NoiseAwareRouter, clear_distance_cache
from repro.hardware import resolve_device
from repro.hardware.drift import CalibrationDelta
from repro.service import (
    CompilationService,
    CompileRequest,
    ResultKey,
    ServiceClient,
    ServiceError,
    build_corpus,
    calibration_version,
    result_key,
)

DEVICE = "surface7"
# (0, 2) and (1, 4) are coupling edges of surface7.
DELTA = CalibrationDelta.of(edge_errors={(0, 2): 0.03})
SECOND_DELTA = CalibrationDelta.of(edge_errors={(1, 4): 0.04})


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(6, seed=3, min_qubits=4, max_qubits=6)


def _payload_calibration(response) -> str:
    return response.to_dict()["key"]["calibration"]


class TestEpochKeying:
    def test_epoch_defaults_to_zero(self):
        # Pre-drift call sites (and cached pickles) build 4-field keys;
        # they must keep meaning "epoch 0".
        key = ResultKey(circuit="c", device="d", calibration="v", mapper="m")
        assert key.epoch == 0

    def test_result_key_threads_epoch(self, corpus):
        device = resolve_device(DEVICE)
        base = result_key(corpus[0], DEVICE, device, "sabre")
        bumped = result_key(corpus[0], DEVICE, device, "sabre", epoch=3)
        assert base.epoch == 0 and bumped.epoch == 3
        # Same digest, different epoch: still distinct cache rows.
        assert base.calibration == bumped.calibration
        assert base != bumped

    def test_apply_drift_requires_running_service(self):
        service = CompilationService(workers=0, devices=(DEVICE,))
        with pytest.raises(ServiceError, match="not running"):
            service.apply_drift(DELTA, device=DEVICE)


class TestEpochPinning:
    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_drift_invalidates_cache_with_exact_counters(
        self, corpus, workers
    ):
        with CompilationService(workers=workers, devices=(DEVICE,)) as service:
            client = ServiceClient(service)
            first = client.compile(corpus[0], device=DEVICE, timeout=120.0)
            repeat = client.compile(corpus[0], device=DEVICE, timeout=120.0)
            epoch0_version = calibration_version(
                service._devices[DEVICE].calibration
            )
            diff = service.apply_drift(DELTA, device=DEVICE)
            assert diff.epoch == 1 and not diff.empty
            assert service.calibration_epoch(DEVICE) == 1
            # The identical request now *misses* (epoch is in the key)
            # and recompiles under the drifted calibration.
            drifted = client.compile(corpus[0], device=DEVICE, timeout=120.0)
            drifted_repeat = client.compile(
                corpus[0], device=DEVICE, timeout=120.0
            )
            drifted_version = calibration_version(
                service._devices[DEVICE].calibration
            )
            stats = service.stats()
        assert not first.cached and repeat.cached
        assert not drifted.cached and drifted_repeat.cached
        assert _payload_calibration(first) == epoch0_version
        assert _payload_calibration(drifted) == drifted_version
        assert drifted_version != epoch0_version
        assert drifted.payload != first.payload
        assert drifted_repeat.payload == drifted.payload
        assert service.cache.hits == 2 and service.cache.misses == 2
        assert stats["drift"]["epochs"][DEVICE] == 1
        assert stats["drift"]["updates"] == 1

    def test_mid_flight_drift_returns_admission_epoch_payload(self, corpus):
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            clean = ServiceClient(service).compile(
                corpus[1], device=DEVICE, timeout=120.0
            )
        with CompilationService(workers=1, devices=(DEVICE,)) as service:
            client = ServiceClient(service)
            # The kill fault takes the worker down mid-compute; the
            # drift lands while the job is in flight.  The recovery
            # compute must use the *pinned* epoch-0 device, not the
            # drifted live one.
            job = service.submit(
                CompileRequest(
                    circuit=corpus[1],
                    device=DEVICE,
                    priority="interactive",
                    faults="kill@0",
                )
            )
            service.apply_drift(DELTA, device=DEVICE)
            faulted = job.result(timeout=120.0)
            # The next identical request misses and compiles at N+1.
            follow_up = client.compile(corpus[1], device=DEVICE, timeout=120.0)
            drifted_version = calibration_version(
                service._devices[DEVICE].calibration
            )
        assert faulted.payload == clean.payload
        assert not follow_up.cached
        assert _payload_calibration(follow_up) == drifted_version
        assert follow_up.payload != clean.payload

    def test_worker_counts_byte_identical_across_drift(self, corpus):
        # Two request waves with a drift update between them: every
        # worker count must produce the same payload bytes for both waves.
        wave = [
            CompileRequest(circuit=circuit, device=DEVICE)
            for circuit in corpus[:4]
        ]
        streams = {}
        for workers in (0, 2):
            with CompilationService(
                workers=workers, devices=(DEVICE,)
            ) as service:
                client = ServiceClient(service)
                before = [
                    r.payload
                    for r in client.compile_many(wave, timeout=120.0)
                ]
                service.apply_drift(DELTA, device=DEVICE)
                after = [
                    r.payload
                    for r in client.compile_many(wave, timeout=120.0)
                ]
            streams[workers] = (before, after)
        baseline = streams[0]
        assert baseline[0] != baseline[1]  # drift actually changed them
        for workers, payloads in streams.items():
            assert payloads == baseline, f"divergence at workers={workers}"


class TestRespawnAfterDrift:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_respawned_worker_serves_drifted_calibration(
        self, corpus, workers
    ):
        with CompilationService(workers=workers, devices=(DEVICE,)) as service:
            client = ServiceClient(service)
            service.apply_drift(DELTA, device=DEVICE)
            # Kill a worker *after* the drift: the recovered job and the
            # follow-up both compile under the drifted calibration, though
            # the respawned worker never saw the drift message.
            faulted = client.compile(
                corpus[3],
                device=DEVICE,
                priority="interactive",
                faults="kill@0",
                timeout=120.0,
            )
            assert service.recovered_total == 1
            follow_up = client.compile(corpus[4], device=DEVICE, timeout=120.0)
            drifted_version = calibration_version(
                service._devices[DEVICE].calibration
            )
        assert faulted.served_by == "recovery"
        assert follow_up.served_by.startswith("worker-")
        assert _payload_calibration(faulted) == drifted_version
        assert _payload_calibration(follow_up) == drifted_version


class TestDriftStats:
    def test_rebuild_counters_inline_and_pooled(self, corpus, monkeypatch):
        num_qubits = resolve_device(DEVICE).num_qubits
        router = NoiseAwareRouter()
        # Earlier drifts in this process may have cached the same epochs.
        clear_distance_cache()
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            pinned = service._devices[DEVICE]
            for delta in (DELTA, SECOND_DELTA):
                service.apply_drift(delta, device=DEVICE)
            # apply_drift built each epoch's noise table wholesale, and the
            # epoch-0 table stays cached for pinned jobs: the next
            # noise-aware compute runs no Dijkstra.
            assert router._is_cached(pinned)
            builds = []
            original = NoiseAwareRouter._build_distance_matrix

            def counting(self, device):
                builds.append(device)
                return original(self, device)

            monkeypatch.setattr(
                NoiseAwareRouter, "_build_distance_matrix", counting
            )
            ServiceClient(service).compile(
                corpus[0], device=DEVICE, mapper="noise-aware", timeout=120.0
            )
            assert builds == []
            inline = service.stats()["drift"]
        with CompilationService(workers=2, devices=(DEVICE,)) as service:
            for delta in (DELTA, SECOND_DELTA):
                service.apply_drift(delta, device=DEVICE)
            pooled = service.stats()["drift"]
        assert inline["updates"] == inline["wholesale_rebuilds"] == 2
        assert inline["rows_recomputed"] == 2 * num_qubits
        # A pooled parent builds no noise tables: the workers do.
        assert pooled["updates"] == 2
        assert pooled["wholesale_rebuilds"] == pooled["rows_recomputed"] == 0
