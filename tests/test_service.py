"""The compilation-as-a-service layer.

Pins the serving contracts of ``repro.service``: the cross-request
result cache is a bounded LRU with *exact* hit/miss/eviction counters,
cache keys change with the calibration version and the mapper, the job
queue orders by priority class with admission control at the door, and
the same request stream produces byte-identical payloads at every
worker count — including under injected worker faults.
"""

import dataclasses

import pytest

from repro.hardware import resolve_device
from repro.service import (
    MAPPERS,
    PRIORITY_CLASSES,
    AdmissionError,
    CompilationService,
    CompileRequest,
    Job,
    JobQueue,
    ResultCache,
    ResultKey,
    ServiceClient,
    ServiceError,
    build_corpus,
    calibration_version,
    drive,
    generate_requests,
    result_key,
)
from repro.workloads import random_circuit

DEVICE = "surface7"


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(6, seed=3, min_qubits=4, max_qubits=6)


def _key(tag: str) -> ResultKey:
    return ResultKey(circuit=tag, device="d", calibration="c", mapper="m")


class TestResultCache:
    def test_lru_bound_under_interleaved_requests(self):
        cache = ResultCache(capacity=3)
        keys = [_key(f"c{i}") for i in range(5)]
        # Interleave: every insert touches an older key in between, so
        # recency (not insertion order) decides who survives.
        cache.put(keys[0], b"0")
        cache.put(keys[1], b"1")
        cache.put(keys[2], b"2")
        assert cache.get(keys[0]) == b"0"  # refresh 0 -> LRU is now 1
        cache.put(keys[3], b"3")  # evicts 1
        assert len(cache) == 3
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == b"0"  # refreshed entry survived
        cache.put(keys[4], b"4")  # evicts 2 (oldest untouched)
        assert len(cache) == 3
        assert cache.get(keys[2]) is None
        assert cache.get(keys[3]) == b"3"
        assert len(cache) <= 3

    def test_exact_hit_miss_eviction_counters(self):
        cache = ResultCache(capacity=2)
        a, b, c = _key("a"), _key("b"), _key("c")
        assert cache.get(a) is None  # miss 1
        cache.put(a, b"A")
        assert cache.get(a) == b"A"  # hit 1
        assert cache.get(b) is None  # miss 2
        cache.put(b, b"B")
        cache.put(c, b"C")  # evicts a
        assert cache.get(a) is None  # miss 3
        assert cache.get(c) == b"C"  # hit 2
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 3
        assert stats["evictions"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 5)
        assert stats["size"] == 2

    def test_first_write_wins(self):
        cache = ResultCache(capacity=2)
        key = _key("dup")
        cache.put(key, b"first")
        cache.put(key, b"second")  # byte-identical by contract; dropped
        assert cache.get(key) == b"first"
        assert cache.evictions == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)


class TestResultKeyContract:
    def test_calibration_update_changes_key(self):
        device = resolve_device(DEVICE)
        circuit = random_circuit(4, 20, 0.5, seed=1)
        before = result_key(circuit, DEVICE, device, "sabre")
        updated = dataclasses.replace(
            device, calibration=dataclasses.replace(
                device.calibration, two_qubit_error=0.05
            )
        )
        after = result_key(circuit, DEVICE, updated, "sabre")
        assert before.calibration != after.calibration
        assert before != after

    def test_mapper_is_part_of_the_key(self):
        device = resolve_device(DEVICE)
        circuit = random_circuit(4, 20, 0.5, seed=1)
        keys = {
            result_key(circuit, DEVICE, device, mapper) for mapper in MAPPERS
        }
        assert len(keys) == len(MAPPERS)

    def test_key_is_a_pure_function_of_its_inputs(self):
        device = resolve_device(DEVICE)
        circuit = random_circuit(4, 20, 0.5, seed=1)
        clone = random_circuit(4, 20, 0.5, seed=1)
        assert result_key(circuit, DEVICE, device, "sabre") == result_key(
            clone, DEVICE, resolve_device(DEVICE), "sabre"
        )

    def test_calibration_version_is_stable(self):
        device = resolve_device(DEVICE)
        assert calibration_version(device.calibration) == calibration_version(
            resolve_device(DEVICE).calibration
        )


def _job(seq: int, priority: str, circuit) -> Job:
    request = CompileRequest(
        circuit=circuit, device=DEVICE, priority=priority
    )
    return Job(seq, request, _key(f"q{seq}"))


class TestJobQueue:
    def test_priority_order_then_fifo(self, corpus):
        queue = JobQueue()
        for seq, priority in enumerate(
            ["bulk", "batch", "interactive", "batch", "bulk"]
        ):
            queue.push(_job(seq, priority, corpus[0]))
        order = [queue.pop(timeout=0.1).seq for _ in range(5)]
        assert order == [2, 1, 3, 0, 4]
        assert queue.pop(timeout=0.01) is None

    def test_class_admission_limit(self, corpus):
        queue = JobQueue(class_limits={"interactive": 2})
        queue.push(_job(1, "interactive", corpus[0]))
        queue.push(_job(2, "interactive", corpus[0]))
        with pytest.raises(AdmissionError, match="interactive"):
            queue.push(_job(3, "interactive", corpus[0]))
        # Other classes are unaffected by one class being full.
        queue.push(_job(4, "bulk", corpus[0]))
        assert queue.depth("interactive") == 2
        assert queue.depth() == 3

    def test_max_depth_caps_the_whole_queue(self, corpus):
        queue = JobQueue(max_depth=2)
        queue.push(_job(1, "interactive", corpus[0]))
        queue.push(_job(2, "bulk", corpus[0]))
        with pytest.raises(AdmissionError, match="queue full"):
            queue.push(_job(3, "batch", corpus[0]))

    def test_closed_queue_rejects(self, corpus):
        queue = JobQueue()
        queue.close()
        with pytest.raises(AdmissionError, match="shut down"):
            queue.push(_job(1, "batch", corpus[0]))

    def test_unknown_class_limit_rejected(self):
        with pytest.raises(ValueError, match="unknown priority"):
            JobQueue(class_limits={"express": 1})


class TestRequestValidation:
    def test_unknown_priority(self, corpus):
        with pytest.raises(ServiceError, match="unknown priority"):
            CompileRequest(circuit=corpus[0], priority="express").validate()

    def test_unknown_mapper(self, corpus):
        with pytest.raises(ServiceError, match="unknown mapper"):
            CompileRequest(circuit=corpus[0], mapper="magic").validate()

    def test_unknown_device_rejected_at_submit(self, corpus):
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            with pytest.raises(ServiceError, match="device"):
                service.submit(
                    CompileRequest(circuit=corpus[0], device="hexagon99")
                )

    def test_priority_classes_are_ranked_best_first(self):
        assert PRIORITY_CLASSES == ("interactive", "batch", "bulk")


class TestInlineService:
    def test_repeat_request_is_a_byte_identical_cache_hit(self, corpus):
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            client = ServiceClient(service)
            first = client.compile(corpus[0], device=DEVICE)
            second = client.compile(corpus[0], device=DEVICE)
        assert not first.cached and first.served_by == "inline"
        assert second.cached and second.served_by == "cache"
        assert first.payload == second.payload
        assert service.cache.hits == 1
        assert service.cache.misses == 1

    def test_counters_are_exact_over_a_stream(self, corpus):
        requests = generate_requests(corpus, 24, seed=5, device=DEVICE)
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            report = drive(service, requests, wave_size=6)
        cache = report.stats["cache"]
        assert cache["hits"] + cache["misses"] == 24
        assert report.stats["requests"] == 24
        assert report.stats["failed"] == 0
        assert len(report.latencies_s) == 24

    def test_eviction_counter_under_a_tiny_cache(self, corpus):
        # Capacity 2 over 6 distinct circuits: evictions must happen and
        # be counted, and the cache never grows past its bound.
        with CompilationService(
            workers=0, devices=(DEVICE,), cache_capacity=2
        ) as service:
            client = ServiceClient(service)
            for circuit in corpus:
                client.compile(circuit, device=DEVICE)
            assert len(service.cache) <= 2
            assert service.cache.evictions == len(corpus) - 2

    def test_response_record_roundtrip(self, corpus):
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            response = ServiceClient(service).compile(corpus[0], device=DEVICE)
        body = response.to_dict()
        record = response.record()
        assert body["swap_count"] == record.swap_count
        assert body["depth_after"] == record.depth_after
        assert body["key"]["device"] == DEVICE
        assert body["key"]["circuit"] == corpus[0].content_hash()

    def test_submit_after_stop_rejected(self, corpus):
        service = CompilationService(workers=0, devices=(DEVICE,))
        service.start()
        service.stop()
        with pytest.raises(ServiceError, match="not running"):
            service.submit(CompileRequest(circuit=corpus[0], device=DEVICE))


class TestWorkerPoolService:
    def test_workers_1_vs_4_byte_identical_payloads(self, corpus):
        requests = generate_requests(corpus, 12, seed=9, device=DEVICE)
        streams = {}
        for workers in (1, 4):
            with CompilationService(
                workers=workers, devices=(DEVICE,)
            ) as service:
                responses = ServiceClient(service).compile_many(
                    requests, timeout=120.0
                )
            streams[workers] = [response.payload for response in responses]
        assert streams[1] == streams[4]

    def test_pooled_matches_inline_payloads(self, corpus):
        requests = generate_requests(corpus, 8, seed=13, device=DEVICE)
        with CompilationService(workers=2, devices=(DEVICE,)) as service:
            pooled = [
                r.payload
                for r in ServiceClient(service).compile_many(
                    requests, timeout=120.0
                )
            ]
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            inline = [
                r.payload
                for r in ServiceClient(service).compile_many(
                    requests, timeout=120.0
                )
            ]
        assert pooled == inline

    def test_identical_inflight_requests_compute_once(self, corpus):
        # Two identical requests in one batch: the second either rides
        # the in-flight compute (coalesced) or hits the cache — either
        # way exactly one compute happens and the bytes match.
        with CompilationService(workers=1, devices=(DEVICE,)) as service:
            responses = ServiceClient(service).compile_many(
                [
                    CompileRequest(circuit=corpus[0], device=DEVICE),
                    CompileRequest(circuit=corpus[0], device=DEVICE),
                ],
                timeout=120.0,
            )
            assert responses[0].payload == responses[1].payload
            assert service.coalesced_total + service.cache.hits == 1
            assert service.cache.misses + service.cache.hits == 2

    def test_kill_fault_is_recovered_with_identical_bytes(self, corpus):
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            clean = ServiceClient(service).compile(corpus[1], device=DEVICE)
        with CompilationService(workers=1, devices=(DEVICE,)) as service:
            client = ServiceClient(service)
            faulted = client.compile(
                corpus[1],
                device=DEVICE,
                priority="interactive",
                faults="kill@0",
                timeout=120.0,
            )
            assert service.recovered_total == 1
            # The respawned worker serves follow-up requests.
            follow_up = client.compile(corpus[2], device=DEVICE, timeout=120.0)
        assert faulted.served_by == "recovery"
        assert faulted.payload == clean.payload
        assert follow_up.served_by.startswith("worker-")

    def test_raise_fault_retried_inside_the_worker(self, corpus):
        with CompilationService(workers=0, devices=(DEVICE,)) as service:
            clean = ServiceClient(service).compile(corpus[3], device=DEVICE)
        with CompilationService(workers=1, devices=(DEVICE,)) as service:
            faulted = ServiceClient(service).compile(
                corpus[3], device=DEVICE, faults="raise@0", timeout=120.0
            )
            # The retry happened inside the worker: no crash recovery.
            assert service.recovered_total == 0
        assert faulted.payload == clean.payload


class TestLoadgen:
    def test_streams_are_seeded_and_reproducible(self, corpus):
        first = generate_requests(corpus, 10, seed=21, device=DEVICE)
        second = generate_requests(corpus, 10, seed=21, device=DEVICE)
        assert [r.circuit.content_hash() for r in first] == [
            r.circuit.content_hash() for r in second
        ]
        assert [r.priority for r in first] == [r.priority for r in second]

    def test_faulted_request_is_pinned_interactive(self, corpus):
        requests = generate_requests(
            corpus, 10, seed=21, device=DEVICE, fault_at=4, fault="kill@0"
        )
        assert requests[4].faults == "kill@0"
        assert requests[4].priority == "interactive"
        assert all(not r.faults for i, r in enumerate(requests) if i != 4)
