"""Seeded chaos soak harness for the compilation service.

:mod:`repro.chaos.plan` draws a deterministic, wave-indexed schedule of
composed faults (worker kills, hangs, poison jobs, calibration drift
bursts, admission pressure);
:mod:`repro.chaos.runner` replays it against a live service next to a
fault-free twin and asserts end-to-end invariants (every admitted job
resolves or quarantines, payload byte-identity, exact cache counters,
epoch pinning, pool recovery);
:mod:`repro.chaos.selftest` proves the checker catches a planted
violation.  ``repro chaos`` and ``make chaos-smoke`` drive it from the
command line.
"""

from .plan import CHAOS_KINDS, ChaosEvent, ChaosPlan
from .runner import ChaosInvariantViolation, ChaosReport, ChaosRunner
from .selftest import SelfTestError, run_selftest

__all__ = [
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosInvariantViolation",
    "ChaosReport",
    "ChaosRunner",
    "SelfTestError",
    "run_selftest",
]
