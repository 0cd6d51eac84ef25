"""Retry policy and graceful-degradation chains.

Two declarative pieces the resilience engine executes:

* :class:`RetryPolicy` — how many times one degradation step may be
  attempted and how long to back off between attempts.  Backoff is
  *seeded deterministic* exponential: the delay for ``(circuit_index,
  attempt)`` is derived from a tuple-seeded RNG, so a retried suite
  replays the same schedule in every process and at every worker count.
* :class:`DegradationStep` / :func:`default_degradation_chain` — the
  ordered fallback ladder a circuit's mapping walks on failure.  The
  default chain mirrors the ISSUE's policy: the primary mapper, then a
  reduced-effort SABRE variant (small look-ahead, trivial placement),
  then the trivial router — which cannot stall and therefore runs
  without a deadline, guaranteeing every circuit ends with *some*
  record, annotated rather than missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..compiler.mapper import QuantumMapper, trivial_mapper
from ..compiler.placement import TrivialPlacement
from ..compiler.routing import SabreRouter, TrivialRouter

__all__ = [
    "RetryPolicy",
    "DegradationStep",
    "default_degradation_chain",
]

#: Reduced-effort look-ahead used by the middle step of the default chain.
REDUCED_LOOKAHEAD = 4


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministically jittered exponential backoff.

    Attributes
    ----------
    attempts:
        Maximum attempts *per degradation step* (>= 1).  Deadline
        expiries skip the remaining attempts of a step — retrying the
        same step against the same budget would fail identically — and
        degrade immediately.
    base_backoff_s / max_backoff_s:
        The delay before retry ``k`` (0-based) is
        ``min(max_backoff_s, base_backoff_s * 2**k)`` scaled by a
        deterministic jitter in ``[0.5, 1.0]``.
    seed:
        Root of the jitter stream; combined with ``(circuit_index,
        attempt)`` so every delay is a pure function of its coordinates.
    """

    attempts: int = 2
    base_backoff_s: float = 0.005
    max_backoff_s: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("RetryPolicy.attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays must be >= 0")

    def backoff_s(self, circuit_index: int, attempt: int) -> float:
        """Delay before re-attempting ``circuit_index`` after ``attempt``."""
        rng = np.random.default_rng((self.seed, circuit_index, attempt))
        delay = min(self.max_backoff_s, self.base_backoff_s * (2.0 ** attempt))
        return float(delay * (0.5 + 0.5 * rng.random()))


@dataclass(frozen=True)
class DegradationStep:
    """One rung of the fallback ladder: a named mapper configuration."""

    name: str
    mapper: QuantumMapper


def default_degradation_chain(
    mapper: QuantumMapper,
) -> List[DegradationStep]:
    """The declared fallback policy for ``mapper``.

    ``sabre -> sabre(reduced effort) -> trivial`` for SABRE-family
    mappers; anything else degrades straight to the trivial router.  A
    mapper that already *is* the trivial router has nowhere further to
    fall, so its chain is a single terminal step.
    """
    steps = [DegradationStep(mapper.name or "primary", mapper)]
    router = getattr(mapper, "router", None)
    if isinstance(router, SabreRouter):
        reduced_router = type(router)(
            lookahead_size=min(REDUCED_LOOKAHEAD, router.lookahead_size),
            lookahead_weight=router.lookahead_weight,
            decay_delta=router.decay_delta,
            decay_reset_interval=router.decay_reset_interval,
            seed=router.seed,
            stall_limit=router.stall_limit,
        )
        steps.append(
            DegradationStep(
                f"{mapper.name}-reduced",
                QuantumMapper(
                    TrivialPlacement(),
                    reduced_router,
                    name=f"{mapper.name}-reduced",
                ),
            )
        )
    if not isinstance(router, TrivialRouter):
        steps.append(DegradationStep("trivial", trivial_mapper()))
    return steps
