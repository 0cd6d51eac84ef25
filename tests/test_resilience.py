"""The fault-tolerant execution layer.

Pins the contracts of ``repro.resilience``: cooperative deadlines
threaded into the routers, seeded deterministic retry backoff, the
``sabre -> sabre(reduced) -> trivial`` degradation chain, the crash-safe
journal with byte-identical resume, and the seeded fault-injection
harness whose plans replay identically at every worker count.
"""

import json
import pickle

import pytest

from repro.circuit import Circuit
from repro.compiler import sabre_mapper, trivial_mapper
from repro.compiler.layout import Layout
from repro.compiler.routing import SabreRouter, TrivialRouter
from repro.hardware import surface17_device
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    JournalError,
    ResilienceConfig,
    ResilienceExhausted,
    RetryPolicy,
    SuiteJournal,
    default_degradation_chain,
    map_with_resilience,
)
from repro.resilience.journal import decode_record, encode_record
from repro.resilience.policy import DegradationStep
from repro.runtime import run_suite_parallel
from repro.workloads import small_suite


def _line_circuit(n=5):
    circuit = Circuit(n)
    circuit.h(0)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    # A non-adjacent tail so routing has actual work to do.
    circuit.cx(0, n - 1)
    return circuit


class TestDeadline:
    def test_fresh_deadline_passes_checks(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert deadline.remaining_s > 0
        deadline.check("route.sabre")  # no raise

    def test_expired_deadline_raises_with_stage(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("route.sabre")
        assert excinfo.value.stage == "route.sabre"

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_s(3, 1) == policy.backoff_s(3, 1)
        assert policy.backoff_s(3, 1) != policy.backoff_s(3, 2)

    def test_backoff_bounded(self):
        policy = RetryPolicy(base_backoff_s=0.01, max_backoff_s=0.05)
        for attempt in range(8):
            delay = policy.backoff_s(0, attempt)
            assert 0.0 <= delay <= 0.05

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestDegradationChain:
    def test_sabre_chain_shape(self):
        chain = default_degradation_chain(sabre_mapper())
        assert [step.name for step in chain] == [
            "sabre",
            "sabre-reduced",
            "trivial",
        ]
        reduced = chain[1].mapper.router
        assert isinstance(reduced, SabreRouter)
        assert reduced.lookahead_size <= 4
        assert reduced.seed == chain[0].mapper.router.seed
        assert isinstance(chain[2].mapper.router, TrivialRouter)

    def test_trivial_chain_is_single_terminal_step(self):
        chain = default_degradation_chain(trivial_mapper())
        assert [step.name for step in chain] == ["trivial"]


class TestDeadlineThreading:
    def test_router_checks_deadline_on_entry(self):
        circuit = _line_circuit()
        device = surface17_device()
        layout = Layout.trivial(circuit.num_qubits, device.num_qubits)
        with pytest.raises(DeadlineExceeded) as excinfo:
            SabreRouter().route(
                circuit, device, layout, deadline=Deadline.after(0.0)
            )
        assert excinfo.value.stage.startswith("route.")

    def test_route_without_deadline_is_unchanged(self):
        circuit = _line_circuit()
        device = surface17_device()
        layout = Layout.trivial(circuit.num_qubits, device.num_qubits)
        with_kwarg = SabreRouter().route(
            circuit, device, layout.copy(), deadline=None
        )
        without = SabreRouter().route(circuit, device, layout.copy())
        assert pickle.dumps(with_kwarg) == pickle.dumps(without)

    def test_deadline_expiry_degrades_to_trivial_same_verdict(self):
        # The ISSUE's acceptance test: a deadline expiring mid-SABRE must
        # fall down the chain to the trivial router and still produce a
        # verified-correct mapping — the same verdict a direct trivial
        # map gives.
        circuit = Circuit(4).h(0).cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3)
        device = surface17_device()
        config = ResilienceConfig(deadline_s=0.0)
        result, info = map_with_resilience(
            circuit, device, sabre_mapper(), config
        )
        assert info.deadline_expired and info.degraded
        assert info.steps == ("sabre", "sabre-reduced", "trivial")
        assert info.router == "trivial"
        direct = trivial_mapper().map(circuit, device)
        assert result.verify() is True
        assert result.verify() == direct.verify()
        assert result.swap_count == direct.swap_count
        assert pickle.dumps(result.mapped) == pickle.dumps(direct.mapped)


class TestEngine:
    def test_transient_fault_is_retried(self):
        circuit = _line_circuit()
        device = surface17_device()
        config = ResilienceConfig(faults=FaultPlan.parse("raise@0"))
        result, info = map_with_resilience(
            circuit, device, sabre_mapper(), config, circuit_index=0
        )
        assert info.attempts == 2 and info.retries == 1
        assert info.faults_injected == 1
        assert not info.degraded
        assert info.router == "sabre"
        assert info.backoff_total_s > 0.0
        assert any("InjectedFault" in error for error in info.errors)
        # A mapping is a pure function of (circuit, device, seed), so the
        # retry's record is identical to a clean first attempt.
        clean, _ = map_with_resilience(
            circuit, device, sabre_mapper(), ResilienceConfig(deadline_s=60.0)
        )
        assert pickle.dumps(result.mapped) == pickle.dumps(clean.mapped)

    def test_exhaustion_raises_with_annotations(self):
        circuit = _line_circuit()
        device = surface17_device()
        config = ResilienceConfig(
            chain=(DegradationStep("sabre", sabre_mapper()),),
            policy=RetryPolicy(attempts=2, base_backoff_s=0.0),
            faults=FaultPlan.parse("raise@0x99"),
        )
        with pytest.raises(ResilienceExhausted) as excinfo:
            map_with_resilience(circuit, device, sabre_mapper(), config)
        info = excinfo.value.info
        assert info.attempts == 2 and info.retries == 1
        assert info.steps == ("sabre",)
        assert len(info.errors) == 2

    def test_info_dict_round_trip(self):
        circuit = _line_circuit()
        device = surface17_device()
        _, info = map_with_resilience(
            circuit, device, sabre_mapper(), ResilienceConfig(deadline_s=60.0)
        )
        from repro.resilience import ResilienceInfo

        assert ResilienceInfo.from_dict(info.to_dict()) == info


class TestFaultPlan:
    def test_parse_spec_string(self):
        plan = FaultPlan.parse("raise@1,sleep@2,kill@3x2,corrupt-journal@4")
        assert plan.specs == (
            FaultSpec("raise", 1, "map", 1),
            FaultSpec("sleep", 2, "map", 1),
            FaultSpec("kill", 3, "map", 2),
            FaultSpec("corrupt-journal", 4, "journal", 1),
        )
        assert "kill@3:mapx2" in plan.describe()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode@1")

    def test_matching_is_exact(self):
        plan = FaultPlan.parse("raise@1x2")
        assert plan.planned(1, "map", 0) and plan.planned(1, "map", 1)
        assert not plan.planned(1, "map", 2)  # only the first N attempts
        assert not plan.planned(2, "map", 0)
        assert not plan.planned(1, "journal", 0)

    def test_fire_raise(self):
        with pytest.raises(InjectedFault):
            FaultPlan.parse("raise@0").fire(0, "map", 0)

    def test_kill_downgrades_to_raise_in_parent(self):
        # In the parent process a kill fault must not SIGKILL the test
        # runner; it degrades to a retryable raise so annotations match
        # at every worker count.
        with pytest.raises(InjectedFault, match="downgraded"):
            FaultPlan.parse("kill@0").fire(0, "map", 0)

    def test_fire_parent_crash(self, tmp_path):
        journal = SuiteJournal(tmp_path / "j.jsonl")
        journal.start({"suite": [], "mapper": "m", "device": "d"})
        journal.append({"index": 0, "name": "c0", "status": "ok"})
        with pytest.raises(InjectedCrash):
            FaultPlan.parse("corrupt-journal@0").fire_parent(0, journal)
        # The tail was torn before the crash: the last line is unparsable.
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[-1])


class TestJournal:
    def _start(self, tmp_path):
        journal = SuiteJournal(tmp_path / "run.jsonl")
        journal.start({"suite": ["a", "b"], "mapper": "m", "device": "d"})
        return journal

    def test_round_trip(self, tmp_path):
        journal = self._start(tmp_path)
        journal.append({"index": 0, "name": "a", "status": "ok"})
        journal.append({"index": 1, "name": "b", "status": "failed"})
        state = SuiteJournal.load(journal.path)
        assert state.header["mapper"] == "m"
        assert state.dropped_lines == 0
        assert sorted(state.by_index()) == [0, 1]
        assert state.by_index()[1]["status"] == "failed"

    def test_every_append_leaves_a_parsable_file(self, tmp_path):
        journal = self._start(tmp_path)
        for index in range(5):
            journal.append({"index": index, "name": str(index)})
            for line in journal.path.read_text().splitlines():
                json.loads(line)  # atomic replace: never a torn line

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = self._start(tmp_path)
        journal.append({"index": 0, "name": "a"})
        journal.append({"index": 1, "name": "b"})
        journal.corrupt_tail()
        state = SuiteJournal.load(journal.path)
        assert sorted(state.by_index()) == [0]
        assert state.dropped_lines >= 1

    def test_resume_rewrites_without_torn_tail(self, tmp_path):
        journal = self._start(tmp_path)
        journal.append({"index": 0, "name": "a"})
        journal.append({"index": 1, "name": "b"})
        journal.corrupt_tail()
        resumed = SuiteJournal(journal.path)
        state = resumed.resume_from()
        assert sorted(state.by_index()) == [0]
        resumed.append({"index": 1, "name": "b", "status": "ok"})
        reloaded = SuiteJournal.load(journal.path)
        assert reloaded.dropped_lines == 0
        assert sorted(reloaded.by_index()) == [0, 1]

    def test_blank_line_truncates_like_a_tear(self, tmp_path):
        # A blank line cannot come from the (one JSON object per line)
        # writer, so it marks a tear: entries past it have unknowable
        # provenance and must be dropped, not silently kept.
        journal = self._start(tmp_path)
        journal.append({"index": 0, "name": "a"})
        journal.append({"index": 1, "name": "b"})
        lines = journal.path.read_text().splitlines()
        journal.path.write_text(
            "\n".join([lines[0], lines[1], "", lines[2]]) + "\n"
        )
        state = SuiteJournal.load(journal.path)
        assert sorted(state.by_index()) == [0]
        assert state.dropped_lines == 2  # the blank line + the orphan

    def test_trailing_blank_line_counts_as_dropped(self, tmp_path):
        # An append that died right after writing the newline leaves a
        # trailing empty line; it is a (content-free) torn tail.
        journal = self._start(tmp_path)
        journal.append({"index": 0, "name": "a"})
        journal.path.write_text(journal.path.read_text() + "\n")
        state = SuiteJournal.load(journal.path)
        assert sorted(state.by_index()) == [0]
        assert state.dropped_lines == 1

    def test_duplicate_index_resume_is_byte_identical(self, tmp_path):
        # A crash between journaling and the runner's bookkeeping can
        # replay an index on resume.  The duplicate must collapse (later
        # line wins, first occurrence's slot) so the rewritten journal
        # is byte-identical to an uninterrupted run's.
        journal = self._start(tmp_path)
        journal.append({"index": 0, "name": "a", "status": "ok"})
        journal.append({"index": 1, "name": "b", "status": "failed"})
        retried = {"index": 1, "name": "b", "status": "ok"}
        dup_line = json.dumps({"kind": "record", **retried}, sort_keys=True)
        journal.path.write_text(
            journal.path.read_text() + dup_line + "\n" + '{"kind": "rec'
        )
        state = SuiteJournal.load(journal.path)
        assert state.dropped_lines == 1
        assert [entry["index"] for entry in state.entries] == [0, 1]
        assert state.by_index()[1]["status"] == "ok"
        resumed = SuiteJournal(journal.path)
        resumed.resume_from()
        resumed.append({"index": 2, "name": "c", "status": "ok"})
        reference = SuiteJournal(tmp_path / "ref.jsonl")
        reference.start({"suite": ["a", "b"], "mapper": "m", "device": "d"})
        reference.append({"index": 0, "name": "a", "status": "ok"})
        reference.append(retried)
        reference.append({"index": 2, "name": "c", "status": "ok"})
        assert journal.path.read_bytes() == reference.path.read_bytes()

    def test_missing_or_empty_journal_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            SuiteJournal.load(tmp_path / "nope.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalError):
            SuiteJournal.load(empty)

    def test_record_payload_round_trip(self):
        payload = {"swaps": 3, "values": (1, 2, 3)}
        assert decode_record(encode_record(payload)) == payload


class TestSuiteResilience:
    def test_defaults_are_a_strict_noop(self):
        # The no-op guarantee: with every resilience knob at its default
        # the legacy path runs and the report is bit-for-bit what the
        # pre-resilience runner produced (no annotations, no journal).
        suite = small_suite(4)
        device = surface17_device()
        legacy = run_suite_parallel(suite, device, sabre_mapper(), workers=1)
        assert legacy.resilience == [] and legacy.journal_path is None
        resilient = run_suite_parallel(
            suite, device, sabre_mapper(), workers=1, deadline_s=60.0
        )
        assert pickle.dumps(legacy.records) == pickle.dumps(resilient.records)
        assert len(resilient.resilience) == len(suite)

    def test_fault_plan_replays_identically_across_worker_counts(self):
        # The ISSUE's determinism test: the same fault plan must produce
        # byte-identical records and equal annotations at workers=1 and
        # workers=4 — an injected SIGKILL in a pool worker and its
        # in-parent downgraded raise converge on the same outcome.
        suite = small_suite(6)
        device = surface17_device()
        plan = FaultPlan.parse("raise@1,sleep@2,kill@3")
        runs = [
            run_suite_parallel(
                suite,
                device,
                sabre_mapper(),
                workers=workers,
                deadline_s=0.25,
                faults=plan,
            )
            for workers in (1, 4)
        ]
        assert pickle.dumps(runs[0].records) == pickle.dumps(runs[1].records)
        assert runs[0].resilience == runs[1].resilience
        assert not runs[0].failures and not runs[1].failures
        assert runs[0].resilience[1].retries >= 1
        assert runs[0].resilience[2].deadline_expired
        assert runs[0].resilience[3].attempts >= 2

    def test_resume_after_crash_is_byte_identical(self, tmp_path):
        # The ISSUE's resume test: kill the run mid-suite (with a torn
        # journal tail) and resume; the final records must be
        # byte-identical to an uninterrupted run's.
        suite = small_suite(5)
        device = surface17_device()
        reference = run_suite_parallel(
            suite, device, sabre_mapper(), workers=2, deadline_s=30.0
        )
        journal = tmp_path / "crash.jsonl"
        with pytest.raises(InjectedCrash):
            run_suite_parallel(
                suite,
                device,
                sabre_mapper(),
                workers=2,
                deadline_s=30.0,
                faults=FaultPlan.parse("corrupt-journal@2"),
                journal=journal,
            )
        resumed = run_suite_parallel(
            suite,
            device,
            sabre_mapper(),
            workers=2,
            deadline_s=30.0,
            journal=journal,
            resume=True,
        )
        assert resumed.resumed >= 1
        assert pickle.dumps(resumed.records) == pickle.dumps(
            reference.records
        )
        assert [r.name for r in resumed.resilience] == [
            r.name for r in reference.resilience
        ]

    def test_resume_refuses_foreign_journal(self, tmp_path):
        suite = small_suite(3)
        device = surface17_device()
        journal = tmp_path / "j.jsonl"
        run_suite_parallel(
            suite,
            device,
            sabre_mapper(),
            workers=1,
            deadline_s=30.0,
            journal=journal,
        )
        with pytest.raises(JournalError, match="different run"):
            run_suite_parallel(
                suite,
                device,
                trivial_mapper(),
                workers=1,
                deadline_s=30.0,
                journal=journal,
                resume=True,
            )

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            run_suite_parallel(small_suite(2), resume=True)

    def test_fault_counters_surface_in_telemetry(self):
        from repro import telemetry

        suite = small_suite(4)
        device = surface17_device()
        with telemetry.session() as tele:
            run_suite_parallel(
                suite,
                device,
                sabre_mapper(),
                workers=2,
                deadline_s=0.25,
                faults=FaultPlan.parse("raise@1,sleep@2"),
            )
            families = set(tele.registry.snapshot())
        assert "retries_total" in families
        assert "deadline_expired_total" in families
        assert "fallbacks_total" in families
        assert "faults_injected_total" in families


class TestSelfTest:
    def test_fault_recovery_selftest_green(self):
        from repro.resilience import fault_recovery_selftest

        checked = fault_recovery_selftest(workers=2, num_circuits=6)
        assert any("retried" in line for line in checked)
        assert any("byte-identical" in line for line in checked)


class TestRunCli:
    def test_run_journal_then_resume(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import save_suite

        corpus = tmp_path / "corpus"
        save_suite(small_suite(4), corpus)
        journal = tmp_path / "run.jsonl"
        argv = [
            "run",
            str(corpus),
            "--mapper",
            "sabre",
            "--deadline-s",
            "30",
            "--journal",
            str(journal),
            "-j",
            "1",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "mapped 4/4" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed:   4" in second
