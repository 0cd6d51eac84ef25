"""Proof of life for the fault-tolerant execution layer.

:func:`fault_recovery_selftest` is to resilience what the planted-bug
self-test is to the fuzz harness: it injects one fault of every class
into a small suite run and *demands* that the matching recovery path
fired — a retried transient, a deadline expiry degraded to a weaker
router, a SIGKILLed worker recomputed, and a mid-run parent crash (with
a torn journal tail) resumed byte-identically.  ``repro fuzz --faults``
and ``make resilience-smoke`` both run it; a green self-test means the
recovery machinery is actually reachable, not just present.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path
from typing import List, Optional

from .faults import FaultPlan, InjectedCrash

__all__ = ["fault_recovery_selftest"]

#: Fault coordinates used by the self-test (circuit indices in the suite).
_RAISE_AT, _SLEEP_AT, _KILL_AT, _CRASH_AT = 1, 2, 3, 4


def fault_recovery_selftest(
    workers: int = 2,
    num_circuits: int = 8,
    deadline_s: float = 1.0,
    journal_dir: Optional[Path] = None,
) -> List[str]:
    """Assert every recovery path fires; returns the checked-path log.

    ``deadline_s`` is the per-attempt budget.  Only the ``sleep`` fault
    may exhaust it (it sleeps past whatever budget remains), so the
    default sits far above any real attempt on these small circuits: the
    slowest took about 0.13 s on two workers with three busy processes
    competing for two cores.  A tight budget would let a slow host
    degrade a clean attempt and break the byte-identical resume.

    Raises :class:`RuntimeError` on the first recovery path that did not
    behave as planned.
    """
    from ..compiler.mapper import sabre_mapper
    from ..hardware import surface17_device
    from ..runtime import run_suite_parallel
    from ..workloads import small_suite

    suite = small_suite(num_circuits)
    device = surface17_device()
    plan = FaultPlan.parse(
        f"raise@{_RAISE_AT},sleep@{_SLEEP_AT},kill@{_KILL_AT}"
    )
    crash_plan = FaultPlan(
        specs=plan.specs
        + FaultPlan.parse(f"corrupt-journal@{_CRASH_AT}").specs
    )
    checked: List[str] = []

    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise RuntimeError(f"fault-recovery self-test failed: {message}")
        checked.append(message)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(journal_dir) if journal_dir is not None else Path(tmp)
        # Reference: same worker-side faults, no parent crash.
        reference = run_suite_parallel(
            suite,
            device,
            sabre_mapper(),
            workers=workers,
            deadline_s=deadline_s,
            faults=plan,
        )
        _require(
            len(reference.records) == len(suite)
            and not reference.failures,
            f"faulted run still produced all {len(suite)} records",
        )
        by_name = {r.name: r for r in reference.resilience}
        raised = reference.resilience[_RAISE_AT]
        _require(
            raised.attempts >= 2 and raised.retries >= 1,
            "injected transient raise was retried "
            f"(attempts={raised.attempts})",
        )
        slept = reference.resilience[_SLEEP_AT]
        _require(
            slept.deadline_expired and slept.degraded,
            "sleep-past-deadline expired the budget and degraded "
            f"(router={slept.router!r}, steps={list(slept.steps)})",
        )
        killed = reference.resilience[_KILL_AT]
        _require(
            killed.attempts >= 2,
            f"SIGKILLed worker was recomputed (attempts={killed.attempts})",
        )
        _require(
            all(r.attempts >= 1 and r.router for r in reference.resilience),
            "every circuit is annotated with attempts and final router",
        )

        # Crash mid-run (torn journal tail), then resume.
        journal = base / "selftest-journal.jsonl"
        try:
            run_suite_parallel(
                suite,
                device,
                sabre_mapper(),
                workers=workers,
                deadline_s=deadline_s,
                faults=crash_plan,
                journal=journal,
            )
        except InjectedCrash:
            pass
        else:
            raise RuntimeError(
                "fault-recovery self-test failed: injected parent crash "
                "did not fire"
            )
        checked.append("parent crash fired after journaling (tail torn)")
        resumed = run_suite_parallel(
            suite,
            device,
            sabre_mapper(),
            workers=workers,
            deadline_s=deadline_s,
            faults=plan,
            journal=journal,
            resume=True,
        )
        _require(
            pickle.dumps(resumed.records) == pickle.dumps(reference.records),
            "resumed run is byte-identical to the uninterrupted reference",
        )
        resumed_by_name = {r.name: r for r in resumed.resilience}
        _require(
            set(resumed_by_name) == set(by_name),
            "resumed run annotates the same circuits",
        )
    return checked
