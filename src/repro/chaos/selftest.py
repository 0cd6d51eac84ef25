"""Planted-violation self-test: prove the chaos checker can fail.

A chaos harness whose invariants never fire is indistinguishable from
one that checks nothing.  Before trusting a green soak, run a tiny
fault-free plan with the runner's tamper hook armed: the hook corrupts
one byte of the twin's expected payload right before comparison, so the
byte-identity invariant *must* report a violation.  If the report comes
back clean, the checker itself is broken and every other green result
is meaningless — ``make chaos-smoke`` runs this first for exactly that
reason.
"""

from __future__ import annotations

from .plan import ChaosPlan
from .runner import ChaosReport, ChaosRunner

__all__ = ["SelfTestError", "run_selftest"]

_TAMPER_WAVE = 1


class SelfTestError(AssertionError):
    """The checker failed to report a deliberately planted violation."""


def run_selftest(
    device: str = "surface7", workers: int = 1, seed: int = 97
) -> ChaosReport:
    """Run a tiny tampered soak; raise unless the corruption is caught.

    Returns the (deliberately red) report so callers can show it.
    """
    plan = ChaosPlan.generate(
        device=device,
        seed=seed,
        waves=2,
        wave_size=2,
        kills=0,
        hangs=0,
        poisons=0,
        drifts=0,
        pressures=0,
    )
    runner = ChaosRunner(
        plan,
        device=device,
        workers=workers,
        raise_on_violation=False,
        _tamper_wave=_TAMPER_WAVE,
    )
    report = runner.run()
    caught = [
        violation
        for violation in report.violations
        if "byte-identical" in violation
    ]
    if not caught:
        raise SelfTestError(
            "planted payload corruption was NOT reported — the chaos "
            f"checker is vacuous (violations: {report.violations})"
        )
    if len(report.violations) != len(caught):
        raise SelfTestError(
            "self-test run reported unrelated violations besides the "
            f"planted one: {report.violations}"
        )
    return report
