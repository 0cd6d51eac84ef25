"""The fuzz loop, reproducer dumps and the planted-bug self-test."""

import json

import pytest

from repro.circuit import parse_qasm
from repro.fuzz import (
    INVARIANT_NAMES,
    planted_bug_selftest,
    run_fuzz,
)
from repro.fuzz.runner import SELFTEST_SHRINK_LIMIT, _PlantedOffByOneRouter


class TestRunFuzz:
    def test_healthy_block_is_green(self, tmp_path):
        report = run_fuzz(
            seed=2022, samples=16, out_dir=tmp_path, check_parallel=False
        )
        assert report.ok
        assert report.failures == []
        assert list(report.stats) == list(INVARIANT_NAMES)
        assert all(
            s.checked == 16 for s in report.stats.values()
        )
        # No failures, no reproducer files.
        assert list(tmp_path.iterdir()) == []

    def test_parallel_check_included(self):
        report = run_fuzz(seed=2022, samples=8)
        assert report.parallel_message is None
        assert report.ok

    def test_format_mentions_every_invariant(self):
        report = run_fuzz(seed=2022, samples=4, check_parallel=False)
        text = report.format()
        for name in INVARIANT_NAMES:
            assert name in text

    def test_failures_are_dumped_and_replayable(self, tmp_path):
        def buggy(seed):
            return _PlantedOffByOneRouter(seed=seed)

        report = run_fuzz(
            seed=2022,
            samples=16,
            out_dir=tmp_path,
            router_factory=buggy,
            check_parallel=False,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.invariant == "sabre_twin"
        assert failure.shrunk is not None
        qasm_files = sorted(tmp_path.glob("*.qasm"))
        json_files = sorted(tmp_path.glob("*.json"))
        assert qasm_files and json_files
        # The QASM reproducer parses back to the shrunk circuit.
        reread = parse_qasm(qasm_files[0].read_text())
        assert len(reread) >= 1
        sidecar = json.loads(json_files[0].read_text())
        assert sidecar["invariant"] == "sabre_twin"
        assert sidecar["seed"] == 2022
        assert "shrunk" in sidecar
        assert sidecar["shrunk"]["gates_after"] <= sidecar["shrunk"]["gates_before"]

    def test_no_shrink_mode(self):
        def buggy(seed):
            return _PlantedOffByOneRouter(seed=seed)

        report = run_fuzz(
            seed=2022,
            samples=8,
            shrink=False,
            router_factory=buggy,
            check_parallel=False,
        )
        assert not report.ok
        assert all(f.shrunk is None for f in report.failures)


class TestPlantedBugSelfTest:
    def test_finds_and_shrinks(self):
        report = planted_bug_selftest()
        assert report.failures
        smallest = min(
            len(f.shrunk.sample.circuit)
            for f in report.failures
            if f.shrunk is not None
        )
        assert smallest <= SELFTEST_SHRINK_LIMIT

    def test_raises_when_nothing_found(self):
        # A block too small to trigger a tie: zero samples.
        with pytest.raises(RuntimeError, match="not .*detected"):
            planted_bug_selftest(samples=0)
