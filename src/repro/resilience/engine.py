"""The deadline + retry + degradation engine.

:func:`map_with_resilience` is the fault-tolerant wrapper around one
circuit's mapping.  It walks the configured degradation chain; inside
each step it enforces a per-attempt :class:`~repro.resilience.deadline.
Deadline` (threaded down into the router's swap loop), retries transient
failures with the policy's seeded deterministic backoff, and degrades to
the next step when a step's attempts are exhausted or its deadline
expires.  The terminal step runs *without* a deadline — the trivial
router cannot stall — so every circuit ends with a record, annotated
with its attempt count and the router that ultimately produced it.

Every attempt maps with the step's own mapper.  A mapping is a pure
function of (circuit, device, seed) — routers and placements seed a
fresh generator inside each call — so a retry after a transient fault
produces bit-for-bit the result a clean first attempt would have: the
property that makes fault-injected and fault-free runs agree on every
surviving circuit, and resumed runs byte-identical to uninterrupted
ones.

Telemetry counters (captured in-worker, merged by the suite runner like
every other metric): ``retries_total``, ``fallbacks_total``,
``deadline_expired_total``, ``faults_injected_total``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..circuit import Circuit
from ..compiler.mapper import MappingResult, QuantumMapper
from ..hardware.device import Device
from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing
from .deadline import Deadline, DeadlineExceeded
from .faults import FaultPlan, InjectedFault
from .policy import DegradationStep, RetryPolicy, default_degradation_chain

__all__ = [
    "ResilienceConfig",
    "ResilienceInfo",
    "ResilienceExhausted",
    "map_with_resilience",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the per-circuit engine needs; picklable for workers.

    ``chain`` is resolved once in the parent (``None`` means "build the
    default chain for the suite's mapper") so every worker executes the
    same declared policy.
    """

    deadline_s: Optional[float] = None
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    chain: Optional[Tuple[DegradationStep, ...]] = None
    faults: Optional[FaultPlan] = None

    def resolve_chain(
        self, mapper: QuantumMapper
    ) -> Tuple[DegradationStep, ...]:
        if self.chain is not None:
            return self.chain
        return tuple(default_degradation_chain(mapper))


@dataclass(frozen=True)
class ResilienceInfo:
    """Per-circuit execution annotations (how the record was obtained).

    ``router``/``mapper`` name the configuration that *ultimately
    produced* the record; ``steps`` lists every degradation step tried
    in order, so ``len(steps) > 1`` means the circuit was downgraded.
    """

    attempts: int
    retries: int
    router: str
    mapper: str
    steps: Tuple[str, ...]
    deadline_expired: bool
    faults_injected: int
    backoff_total_s: float
    errors: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return len(self.steps) > 1

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "router": self.router,
            "mapper": self.mapper,
            "steps": list(self.steps),
            "deadline_expired": self.deadline_expired,
            "faults_injected": self.faults_injected,
            "backoff_total_s": self.backoff_total_s,
            "errors": list(self.errors),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceInfo":
        return cls(
            attempts=int(data["attempts"]),
            retries=int(data["retries"]),
            router=data["router"],
            mapper=data["mapper"],
            steps=tuple(data["steps"]),
            deadline_expired=bool(data["deadline_expired"]),
            faults_injected=int(data["faults_injected"]),
            backoff_total_s=float(data["backoff_total_s"]),
            errors=tuple(data.get("errors", ())),
        )


class ResilienceExhausted(RuntimeError):
    """Every step of the degradation chain failed; carries the tally."""

    def __init__(self, message: str, info: ResilienceInfo) -> None:
        super().__init__(message)
        self.info = info


def _count(name: str, **labels) -> None:
    if tracing.is_enabled():
        telemetry_metrics.counter(name, **labels).inc()


def map_with_resilience(
    circuit: Circuit,
    device: Device,
    mapper: QuantumMapper,
    config: ResilienceConfig,
    circuit_index: int = 0,
) -> Tuple[MappingResult, ResilienceInfo]:
    """Map one circuit under deadlines, retries and degradation.

    Raises :class:`ResilienceExhausted` (with the full annotation
    attached) only when *every* chain step failed on every attempt —
    with the default chain that means even the trivial router raised.
    """
    chain = config.resolve_chain(mapper)
    attempts = 0
    retries = 0
    faults_injected = 0
    backoff_total = 0.0
    deadline_expired = False
    errors: List[str] = []
    steps_tried: List[str] = []

    for step_position, step in enumerate(chain):
        terminal = step_position == len(chain) - 1
        steps_tried.append(step.name)
        for try_index in range(config.policy.attempts):
            attempt_number = attempts
            attempts += 1
            deadline = None
            if config.deadline_s is not None and not terminal:
                deadline = Deadline.after(config.deadline_s)
            try:
                if config.faults is not None:
                    faults_injected += config.faults.fire(
                        circuit_index, "map", attempt_number, deadline
                    )
                result = step.mapper.map(circuit, device, deadline=deadline)
                if faults_injected:
                    _count("faults_injected_total")
                return result, ResilienceInfo(
                    attempts=attempts,
                    retries=retries,
                    router=step.mapper.router.name,
                    mapper=step.name,
                    steps=tuple(steps_tried),
                    deadline_expired=deadline_expired,
                    faults_injected=faults_injected,
                    backoff_total_s=backoff_total,
                    errors=tuple(errors),
                )
            except DeadlineExceeded as exc:
                deadline_expired = True
                errors.append(f"{step.name}: DeadlineExceeded: {exc}")
                _count(
                    "deadline_expired_total",
                    mapper=step.name,
                    stage=exc.stage or "unknown",
                )
                break  # same step + same budget would expire again
            except Exception as exc:  # noqa: BLE001 - every failure is data
                if isinstance(exc, InjectedFault):
                    faults_injected += 1
                errors.append(
                    f"{step.name}: {type(exc).__name__}: {exc}"
                )
                if try_index + 1 < config.policy.attempts:
                    delay = config.policy.backoff_s(
                        circuit_index, attempt_number
                    )
                    if delay > 0:
                        time.sleep(delay)
                    backoff_total += delay
                    retries += 1
                    _count("retries_total", mapper=step.name)
        if step_position + 1 < len(chain):
            _count(
                "fallbacks_total",
                source=step.name,
                target=chain[step_position + 1].name,
            )
    if faults_injected:
        _count("faults_injected_total")
    info = ResilienceInfo(
        attempts=attempts,
        retries=retries,
        router="",
        mapper="",
        steps=tuple(steps_tried),
        deadline_expired=deadline_expired,
        faults_injected=faults_injected,
        backoff_total_s=backoff_total,
        errors=tuple(errors),
    )
    raise ResilienceExhausted(
        f"all {len(chain)} degradation step(s) failed after {attempts} "
        f"attempt(s): {'; '.join(errors[-3:])}",
        info,
    )
