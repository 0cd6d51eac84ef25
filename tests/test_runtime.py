"""The parallel runtime: deterministic fan-out, timing, crash recovery.

``parallel_map`` and ``run_suite_parallel`` promise byte-identical
results for ``workers=1`` and ``workers=N``, per-item error capture
that leaves the rest of the batch intact, and a serial fallback that
still returns a complete result list when a worker process is killed.
"""

import multiprocessing
import os
import pickle
import signal
import time
import warnings

import pytest

from repro.circuit import Circuit
from repro.compiler import sabre_mapper, trivial_mapper
from repro.experiments.common import run_suite
from repro.hardware import surface17_device
from repro.runtime import parallel_map, run_suite_parallel, workers_from_env
from repro.workloads import small_suite
from repro.workloads.suite import BenchmarkCircuit


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("bad payload")
    return x + 100


def _kill_worker_on_two(x):
    # Only die when running inside a pool worker — the parent-side
    # serial fallback must be able to recompute this item safely.
    if x == 2 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _hang_in_pool_on_one(x):
    # Unresponsive (not dead) worker: sleeps far past the hard timeout,
    # but only inside a pool worker so the parent-side recompute returns.
    if x == 1 and multiprocessing.parent_process() is not None:
        time.sleep(60)
    return x + 7


class TestParallelMap:
    def test_results_in_submission_order(self):
        result = parallel_map(_square, list(range(8)), workers=3)
        assert [o.index for o in result.outcomes] == list(range(8))
        assert result.values() == [x * x for x in range(8)]
        assert not result.fell_back

    def test_workers_one_matches_pool(self):
        serial = parallel_map(_square, list(range(6)), workers=1)
        pooled = parallel_map(_square, list(range(6)), workers=3)
        assert serial.values() == pooled.values()
        assert serial.workers == 1 and pooled.workers == 3

    def test_empty_payloads(self):
        result = parallel_map(_square, [], workers=4)
        assert result.outcomes == [] and result.values() == []

    def test_workers_clamped_to_payload_count(self):
        result = parallel_map(_square, [1, 2], workers=16)
        assert result.workers == 2

    def test_per_item_error_capture(self):
        result = parallel_map(_fail_on_three, [1, 2, 3, 4], workers=2)
        by_index = {o.index: o for o in result.outcomes}
        assert not by_index[2].ok
        assert by_index[2].error == "ValueError: bad payload"
        assert "bad payload" in by_index[2].traceback
        assert by_index[2].value is None
        # Every other item is unaffected.
        assert result.values() == [101, 102, 104]

    def test_timings_recorded(self):
        result = parallel_map(_square, [1, 2, 3], workers=1)
        assert all(o.elapsed_s >= 0.0 for o in result.outcomes)

    def test_progress_callback(self):
        seen = []
        parallel_map(_square, [5, 6, 7], workers=1, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_shipped_bytes_counts_pickled_payloads(self):
        payloads = [3, 2 ** 70, 5]
        pooled = parallel_map(_square, payloads, workers=2)
        pickled = sum(len(pickle.dumps(p)) for p in payloads)
        assert pooled.shipped_bytes == pickled
        # The inline path ships nothing through a pool pipe.
        assert parallel_map(_square, payloads, workers=1).shipped_bytes == 0

    def test_killed_worker_falls_back_serially(self):
        result = parallel_map(_kill_worker_on_two, [0, 1, 2, 3, 4], workers=2)
        assert result.fell_back
        # The fallback recomputes lost items in the parent, where the
        # kill guard is inert, so the result list is still complete.
        assert result.values() == [0, 10, 20, 30, 40]
        assert [o.index for o in result.outcomes] == [0, 1, 2, 3, 4]


class TestAttemptAccounting:
    def test_direct_path_counts_one_attempt(self):
        result = parallel_map(_square, [1, 2, 3], workers=1)
        assert [o.attempts for o in result.outcomes] == [1, 1, 1]
        assert all(o.duration_s >= 0.0 for o in result.outcomes)
        assert result.recomputed == 0
        assert result.total_attempts == 3

    def test_recomputed_item_counts_lost_pool_attempt(self):
        result = parallel_map(_kill_worker_on_two, [0, 1, 2, 3], workers=2)
        by_index = {o.index: o for o in result.outcomes}
        assert by_index[2].attempts == 2
        assert result.recomputed >= 1
        assert result.total_attempts == len(result.outcomes) + result.recomputed

    def test_hard_timeout_kills_unresponsive_worker(self):
        # The hung worker never raises and never dies on its own; only
        # the item_timeout_s kill-and-recompute backstop can rescue it.
        result = parallel_map(
            _hang_in_pool_on_one, [0, 1, 2], workers=2, item_timeout_s=1.5
        )
        assert result.fell_back and result.recomputed >= 1
        assert result.values() == [7, 8, 9]
        by_index = {o.index: o for o in result.outcomes}
        assert by_index[1].attempts == 2

    def test_on_result_fires_in_submission_order(self):
        seen = []
        parallel_map(
            _kill_worker_on_two,
            [0, 1, 2, 3],
            workers=2,
            on_result=lambda o: seen.append((o.index, o.value)),
        )
        assert seen == [(0, 0), (1, 10), (2, 20), (3, 30)]


class TestWorkersFromEnv:
    def test_negative_value_warns_once(self, monkeypatch):
        from repro.runtime.parallel import _WARNED_VALUES

        monkeypatch.setenv("REPRO_WORKERS", "-7")
        _WARNED_VALUES.discard(("REPRO_WORKERS", "-7"))
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert workers_from_env(default=3) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second call: no warning
            assert workers_from_env(default=3) == 3

    def test_zero_value_warns_and_falls_back(self, monkeypatch):
        from repro.runtime.parallel import _WARNED_VALUES

        monkeypatch.setenv("REPRO_WORKERS", "0")
        _WARNED_VALUES.discard(("REPRO_WORKERS", "0"))
        with pytest.warns(RuntimeWarning, match="positive integer"):
            assert workers_from_env(default=5) == 5

    def test_unparsable_value_warns(self, monkeypatch):
        from repro.runtime.parallel import _WARNED_VALUES

        monkeypatch.setenv("REPRO_WORKERS", "lots")
        _WARNED_VALUES.discard(("REPRO_WORKERS", "lots"))
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert workers_from_env() is None

    def test_valid_value_does_not_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert workers_from_env() == 4

    def test_parallel_map_zero_workers_warns_and_uses_default(self):
        # workers=0 used to be silently clamped to 1 (serial); it must
        # instead warn and behave exactly like workers=None.
        from repro.runtime.parallel import _WARNED_VALUES

        _WARNED_VALUES.discard(("workers", "0"))
        with pytest.warns(RuntimeWarning, match="positive integer"):
            result = parallel_map(_square, list(range(6)), workers=0)
        assert result.values() == [x * x for x in range(6)]
        # Fell back to the default (cpu count), clamped to the payload
        # count — never the silent serial clamp.
        expected = max(1, min(os.cpu_count() or 1, 6))
        assert result.workers == expected
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warn-once: second call clean
            parallel_map(_square, [1, 2], workers=0)

    def test_parallel_map_negative_workers_warns_and_uses_default(self):
        from repro.runtime.parallel import _WARNED_VALUES

        _WARNED_VALUES.discard(("workers", "-3"))
        with pytest.warns(RuntimeWarning, match="workers='-3'"):
            result = parallel_map(_square, [1, 2, 3], workers=-3)
        assert result.values() == [1, 4, 9]


class TestSuiteRunner:
    def test_workers_one_vs_n_byte_identical(self):
        suite = small_suite(6)
        device = surface17_device()
        serial = run_suite_parallel(
            suite, device, sabre_mapper(), workers=1
        )
        pooled = run_suite_parallel(
            suite, device, sabre_mapper(), workers=3
        )
        assert pickle.dumps(serial.records) == pickle.dumps(pooled.records)
        assert not serial.fell_back and not pooled.fell_back

    def test_seeded_fuzz_suite_workers_one_vs_four_byte_identical(self):
        # Regression gate for the determinism contract on adversarial
        # inputs: a fuzz-generated suite (fixed seed block) must map to
        # byte-identical records at workers=1 and workers=4.
        from repro.fuzz import sample_block

        suite = [
            BenchmarkCircuit(s.circuit, "random", s.describe())
            for s in sample_block(2022, 16)
            if len(s.circuit) > 0
        ][:8]
        device = surface17_device()
        serial = run_suite_parallel(suite, device, sabre_mapper(), workers=1)
        pooled = run_suite_parallel(suite, device, sabre_mapper(), workers=4)
        assert pickle.dumps(serial.records) == pickle.dumps(pooled.records)
        assert serial.skipped == pooled.skipped
        assert [f.name for f in serial.failures] == [
            f.name for f in pooled.failures
        ]

    def test_report_contents(self):
        suite = small_suite(4)
        report = run_suite_parallel(
            suite, surface17_device(), trivial_mapper(), workers=2
        )
        assert len(report.records) == 4
        assert [t.name for t in report.timings] == [b.source for b in suite]
        assert report.total_circuit_time_s > 0.0
        assert report.wall_time_s > 0.0
        assert report.failures == [] and report.skipped == []

    def test_too_wide_benchmarks_skipped(self):
        device = surface17_device()
        wide = BenchmarkCircuit(Circuit(40).h(0), "random", "wide_40q")
        suite = [wide] + list(small_suite(3))
        report = run_suite_parallel(suite, device, trivial_mapper(), workers=2)
        assert report.skipped == ["wide_40q"]
        assert len(report.records) == 3

    def test_run_suite_workers_matches_serial_for_stateless_mapper(self):
        suite = small_suite(5)
        device = surface17_device()
        serial = run_suite(suite, device, trivial_mapper())
        pooled = run_suite(suite, device, trivial_mapper(), workers=2)
        assert serial == pooled

    def test_progress_reports_names(self):
        # Each finished circuit is reported once, with its own index and
        # name: the sequence the serial loop reports, at any worker count.
        suite = small_suite(3)
        device = surface17_device()
        serial = []
        run_suite(
            suite,
            device,
            trivial_mapper(),
            progress=lambda i, t, name: serial.append((i, t, name)),
        )
        assert serial == [(i, 3, b.source) for i, b in enumerate(suite)]
        for workers in (1, 2):
            seen = []
            run_suite_parallel(
                suite,
                device,
                trivial_mapper(),
                workers=workers,
                progress=lambda i, t, name: seen.append((i, t, name)),
            )
            assert seen == serial, f"workers={workers}"

    def test_report_carries_shipped_bytes(self):
        suite = small_suite(4)
        device = surface17_device()
        pooled = run_suite_parallel(suite, device, sabre_mapper(), workers=2)
        inline = run_suite_parallel(suite, device, sabre_mapper(), workers=1)
        assert pooled.shipped_bytes > 0
        assert inline.shipped_bytes == 0
