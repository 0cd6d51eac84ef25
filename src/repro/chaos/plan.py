"""Seeded, replayable chaos schedules for the compilation service.

A :class:`ChaosPlan` composes the repository's existing fault
primitives — worker SIGKILL (PR 5/6 crash recovery), worker hangs
(``FaultPlan`` ``hang`` specs caught by the health watchdog),
poison jobs (repeat killers the service must quarantine), calibration
drift bursts (:class:`~repro.hardware.drift.DriftPlan`) and
admission-pressure waves — into one deterministic schedule keyed on
*wave index*, not wall-clock time.  Wave-indexed scheduling is what
makes a chaos run replayable: the same seed produces the same events at
the same points of the same request stream no matter how fast the host
is, and the fault-free twin run the invariants compare against applies
its drift at the same wave boundaries so every epoch lines up.

Event kinds:

``kill``
    SIGKILL one live worker right after the wave is submitted (so the
    kill lands on an in-flight compute when there is one).
``hang``
    Decorate the wave's first request with a ``hang@0`` fault: the
    worker wedges mid-compute until the watchdog's heartbeat budget
    expires and it is killed and recovered.
``poison``
    Decorate the wave's first request as a repeat-killer
    (``kill@0xN`` with ``N >= max_job_attempts``): the service must
    quarantine it instead of feeding it workers forever.
``drift``
    Apply ``count`` calibration deltas from the plan's
    :class:`DriftPlan` after the wave is gathered (epoch bump; jobs
    admitted later compile under the new key, pinned jobs do not).
``pressure``
    Multiply the wave's size by ``count`` and submit it as one burst —
    the admission-control stress case.

``hang`` and ``poison`` waves lead with a *fresh* circuit (outside the
repeated corpus) so the decorated request is guaranteed to be a cache
miss — a fault spec on a cache hit would never fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hardware import resolve_device
from ..hardware.drift import DriftPlan

__all__ = ["CHAOS_KINDS", "ChaosEvent", "ChaosPlan"]

CHAOS_KINDS = ("kill", "hang", "poison", "drift", "pressure")

#: Kinds that decorate a wave's requests at generation time (the other
#: kinds are actions the runner fires against the live service).
_DECORATION_KINDS = ("hang", "poison")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled event, keyed by the wave it belongs to."""

    wave: int
    kind: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r} (use one of {CHAOS_KINDS})"
            )
        if self.wave < 0 or self.count < 1:
            raise ValueError("ChaosEvent wave must be >= 0 and count >= 1")


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic composed-fault schedule (pure data, picklable)."""

    seed: int
    waves: int
    wave_size: int
    events: Tuple[ChaosEvent, ...] = ()
    drift: Optional[DriftPlan] = None
    #: ``kill@0x{poison_attempts}`` is the poison decoration; keep it at
    #: least the service's ``max_job_attempts`` or the "poison" job
    #: stops killing workers before quarantine triggers.
    poison_attempts: int = 8

    @classmethod
    def generate(
        cls,
        device: str = "surface7",
        seed: int = 2022,
        waves: int = 12,
        wave_size: int = 6,
        kills: int = 2,
        hangs: int = 1,
        poisons: int = 1,
        drifts: int = 1,
        pressures: int = 1,
        drift_burst: int = 3,
        poison_attempts: int = 8,
    ) -> "ChaosPlan":
        """Draw a schedule with the requested event minimums.

        Decoration events (``hang``/``poison``) get *distinct* waves —
        one decorated request per wave keeps attribution unambiguous —
        while action events may share waves.  Everything is drawn from
        one seeded generator, so the same arguments always produce the
        same schedule.
        """
        if waves < 1:
            raise ValueError("a chaos plan needs at least one wave")
        decorations = hangs + poisons
        if decorations > waves:
            raise ValueError(
                f"{decorations} hang/poison events need {decorations} "
                f"distinct waves but the plan only has {waves}"
            )
        rng = np.random.default_rng((int(seed), 0xC4A05))
        events: List[ChaosEvent] = []
        decorated = rng.choice(waves, size=decorations, replace=False)
        hang_waves = {int(w) for w in decorated[:hangs]}
        for offset in range(hangs):
            events.append(ChaosEvent(int(decorated[offset]), "hang"))
        for offset in range(poisons):
            events.append(ChaosEvent(int(decorated[hangs + offset]), "poison"))
        # Kills never share a wave with a hang: an injected SIGKILL can
        # land on the (alive but wedged) hung worker, turning the hang
        # into a crash and leaving the watchdog nothing to detect.
        kill_waves = [w for w in range(waves) if w not in hang_waves]
        if kills and not kill_waves:
            raise ValueError(
                "every wave carries a hang decoration; no wave left to "
                "schedule kills on"
            )
        for _ in range(kills):
            events.append(
                ChaosEvent(int(kill_waves[rng.integers(len(kill_waves))]), "kill")
            )
        for _ in range(drifts):
            events.append(
                ChaosEvent(int(rng.integers(waves)), "drift", count=drift_burst)
            )
        for _ in range(pressures):
            events.append(
                ChaosEvent(int(rng.integers(waves)), "pressure", count=3)
            )
        events.sort(key=lambda e: (e.wave, CHAOS_KINDS.index(e.kind), e.count))
        drift_plan = None
        if drifts:
            drift_plan = DriftPlan.generate(
                resolve_device(device), drifts * drift_burst, seed=seed
            )
        return cls(
            seed=int(seed),
            waves=waves,
            wave_size=wave_size,
            events=tuple(events),
            drift=drift_plan,
            poison_attempts=poison_attempts,
        )

    # ------------------------------------------------------------------
    def events_at(
        self, wave: int, kinds: Optional[Sequence[str]] = None
    ) -> List[ChaosEvent]:
        """Events scheduled for one wave, optionally filtered by kind."""
        return [
            event
            for event in self.events
            if event.wave == wave and (kinds is None or event.kind in kinds)
        ]

    def decoration(self, wave: int) -> Optional[ChaosEvent]:
        """The hang/poison decoration of one wave (None when clean)."""
        marks = self.events_at(wave, _DECORATION_KINDS)
        return marks[0] if marks else None

    def counts(self) -> dict:
        """Planned events by kind (drift counts *deltas*, not bursts)."""
        tally = {kind: 0 for kind in CHAOS_KINDS}
        for event in self.events:
            tally[event.kind] += event.count if event.kind == "drift" else 1
        return tally

    def describe(self) -> str:
        if not self.events:
            return "no chaos events"
        return ",".join(
            f"{e.kind}@w{e.wave}" + (f"x{e.count}" if e.count != 1 else "")
            for e in self.events
        )
