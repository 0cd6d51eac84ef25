"""Streaming calibration drift: deltas, epochs and replayable traces.

The paper's hardware-aware passes treat calibration as a *living* input:
per-edge error rates move between (and during) batch windows, and
routing quality depends on the current numbers, not last night's.  This
module is the streaming side of that story:

* a :class:`CalibrationDelta` is one incremental update — new absolute
  error rates for a handful of edges and/or qubits;
* a :class:`CalibrationStream` owns the current :class:`~repro.hardware.
  calibration.Calibration`, applies deltas, bumps a **monotonic epoch**
  per update and emits a structural :class:`DriftDiff` (which edges and
  qubits actually changed, by how much) to its subscribers;
* a :class:`DriftPlan` is a seeded, fully deterministic drift trace —
  the same ``(seed, device)`` pair always produces the same update
  sequence, so a drift scenario replays identically in one process, in
  every warm worker, and in the fuzz harness.

The memoised noise-distance tables key on the calibration version, so
each epoch's table is rebuilt wholesale under its own key, and the
service pins each in-flight job to the epoch it was admitted under (see
docs/calibration.md).

Telemetry: ``calibration_epoch`` (gauge, labelled by stream name)
tracks the live epoch; ``drift_updates_total`` counts applied deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..telemetry import metrics as telemetry_metrics
from .calibration import Calibration

__all__ = [
    "CalibrationDelta",
    "DriftDiff",
    "CalibrationStream",
    "DriftPlan",
    "diff_calibrations",
]

#: Error rates are kept strictly inside (0, MAX_EDGE_ERROR] so the
#: noise-aware metric's ``-log(1 - 3e)`` stays finite.
MAX_EDGE_ERROR = 0.3
MIN_ERROR = 1e-6

EdgeKey = Tuple[int, int]


def _edge_key(edge: Union[EdgeKey, FrozenSet[int], Iterable[int]]) -> EdgeKey:
    a, b = sorted(edge)
    return (int(a), int(b))


@dataclass(frozen=True)
class CalibrationDelta:
    """One streaming update: new absolute error rates for a few sites.

    ``edges`` / ``qubits`` are sorted tuples of ``(site, new_error)``
    pairs — tuples rather than dicts so a delta is hashable, picklable
    and canonical (two deltas with the same content compare equal
    regardless of construction order).
    """

    edges: Tuple[Tuple[EdgeKey, float], ...] = ()
    qubits: Tuple[Tuple[int, float], ...] = ()

    @classmethod
    def of(
        cls,
        edge_errors: Optional[Mapping] = None,
        qubit_errors: Optional[Mapping[int, float]] = None,
    ) -> "CalibrationDelta":
        """Build a delta from plain dicts (any edge key spelling)."""
        edges = tuple(
            sorted((_edge_key(k), float(v)) for k, v in (edge_errors or {}).items())
        )
        qubits = tuple(
            sorted((int(q), float(v)) for q, v in (qubit_errors or {}).items())
        )
        return cls(edges=edges, qubits=qubits)

    def __post_init__(self) -> None:
        for site, value in tuple(self.edges) + tuple(self.qubits):
            if not 0.0 <= value < 1.0:
                raise ValueError(
                    f"drift error for {site!r} must be in [0, 1), got {value}"
                )

    @property
    def empty(self) -> bool:
        return not self.edges and not self.qubits

    def edge_errors(self) -> Dict[FrozenSet[int], float]:
        """Edge overrides keyed the way :class:`Calibration` stores them."""
        return {frozenset(edge): value for edge, value in self.edges}

    def qubit_errors(self) -> Dict[int, float]:
        return dict(self.qubits)


@dataclass(frozen=True)
class DriftDiff:
    """Structural diff of one applied delta: what actually changed.

    ``edge_changes`` / ``qubit_changes`` carry ``(site, old, new)`` for
    every site whose *effective* error rate moved (a delta writing the
    value a site already had produces no change entry).  ``epoch`` is
    the stream's epoch *after* the update.
    """

    epoch: int
    edge_changes: Tuple[Tuple[EdgeKey, float, float], ...] = ()
    qubit_changes: Tuple[Tuple[int, float, float], ...] = ()
    #: True when a *default* rate differs between the calibrations (only
    #: possible via :func:`diff_calibrations` on arbitrary pairs, never
    #: via stream deltas) — consumers must then rebuild wholesale.
    defaults_changed: bool = False

    @property
    def empty(self) -> bool:
        return (
            not self.edge_changes
            and not self.qubit_changes
            and not self.defaults_changed
        )

    @property
    def changed_edges(self) -> Tuple[EdgeKey, ...]:
        return tuple(edge for edge, _, _ in self.edge_changes)

    @property
    def changed_qubits(self) -> Tuple[int, ...]:
        return tuple(q for q, _, _ in self.qubit_changes)

    def magnitude(self) -> float:
        """Largest absolute error-rate movement in this diff."""
        moves = [abs(new - old) for _, old, new in self.edge_changes]
        moves += [abs(new - old) for _, old, new in self.qubit_changes]
        return max(moves, default=0.0)


def diff_calibrations(
    old: Calibration, new: Calibration, epoch: int = 0
) -> DriftDiff:
    """Structural diff between two calibrations (effective rates).

    Compares per-edge and per-qubit *effective* error rates (override or
    default) over the union of override sites; a change to any default
    field is reported via ``defaults_changed`` since it moves every
    un-overridden site at once.
    """
    edge_changes: List[Tuple[EdgeKey, float, float]] = []
    for key in sorted(
        {_edge_key(k) for k in old.edge_errors} | {_edge_key(k) for k in new.edge_errors}
    ):
        frozen = frozenset(key)
        before = old.edge_errors.get(frozen, old.two_qubit_error)
        after = new.edge_errors.get(frozen, new.two_qubit_error)
        if before != after:
            edge_changes.append((key, before, after))
    qubit_changes: List[Tuple[int, float, float]] = []
    for q in sorted(set(old.qubit_errors) | set(new.qubit_errors)):
        before = old.qubit_errors.get(q, old.single_qubit_error)
        after = new.qubit_errors.get(q, new.single_qubit_error)
        if before != after:
            qubit_changes.append((q, before, after))
    defaults_changed = (
        old.single_qubit_error != new.single_qubit_error
        or old.two_qubit_error != new.two_qubit_error
        or old.measurement_error != new.measurement_error
        or old.crosstalk_error != new.crosstalk_error
    )
    return DriftDiff(
        epoch=epoch,
        edge_changes=tuple(edge_changes),
        qubit_changes=tuple(qubit_changes),
        defaults_changed=defaults_changed,
    )


#: Subscriber signature: ``fn(diff, old_calibration, new_calibration)``.
DriftListener = Callable[[DriftDiff, Calibration, Calibration], None]


class CalibrationStream:
    """The living calibration: applies deltas, bumps epochs, emits diffs.

    The epoch is monotonic and bumps on **every** applied delta, even a
    no-op one — an epoch names a point in the update stream, not a
    distinct value (two epochs may share identical calibrations, e.g.
    after an A→B→A drift round trip; the digest-keyed result cache then
    legitimately serves the epoch-A artifact).
    """

    def __init__(
        self, calibration: Calibration, epoch: int = 0, name: str = ""
    ) -> None:
        self._calibration = calibration
        self._epoch = int(epoch)
        self.name = name or (calibration.name or "default")
        self._listeners: List[DriftListener] = []
        telemetry_metrics.gauge(
            "calibration_epoch", stream=self.name
        ).set(float(self._epoch))

    @property
    def calibration(self) -> Calibration:
        return self._calibration

    @property
    def epoch(self) -> int:
        return self._epoch

    def subscribe(self, listener: DriftListener) -> None:
        """Register a callback invoked after every applied delta."""
        self._listeners.append(listener)

    def apply(self, delta: CalibrationDelta) -> DriftDiff:
        """Apply one delta; returns the structural diff at the new epoch."""
        old = self._calibration
        new = old.with_updates(
            edge_errors=delta.edge_errors(), qubit_errors=delta.qubit_errors()
        )
        self._epoch += 1
        diff = diff_calibrations(old, new, epoch=self._epoch)
        self._calibration = new
        telemetry_metrics.gauge(
            "calibration_epoch", stream=self.name
        ).set(float(self._epoch))
        telemetry_metrics.counter(
            "drift_updates_total", stream=self.name
        ).inc()
        for listener in self._listeners:
            listener(diff, old, new)
        return diff


@dataclass(frozen=True)
class DriftPlan:
    """A seeded, replayable drift trace: ``seed`` in, same updates out.

    The plan is pure data — generating it twice from the same seed and
    device yields equal update tuples, and replaying it against any
    number of streams (one per worker, one in the parent, one in a
    test) walks every one of them through identical calibrations.  That
    is the whole point: a drift scenario is two integers, not a log
    file.
    """

    seed: int
    updates: Tuple[CalibrationDelta, ...] = ()

    @classmethod
    def generate(
        cls,
        device,
        num_updates: int,
        seed: int = 2022,
        max_edges_per_update: int = 3,
        magnitude: float = 0.5,
        qubit_fraction: float = 0.25,
    ) -> "DriftPlan":
        """Draw a deterministic trace of ``num_updates`` deltas.

        Each update multiplies the current effective error of 1..
        ``max_edges_per_update`` coupling edges by a factor in
        ``[1 - magnitude, 1 + magnitude]`` (clipped into
        ``(MIN_ERROR, MAX_EDGE_ERROR]``), occasionally touching a
        qubit's one-qubit rate too.  Rates wander multiplicatively, so
        long traces explore both drifted-up and recovered regimes.
        """
        if num_updates < 0:
            raise ValueError("num_updates must be >= 0")
        edges = sorted(_edge_key(e) for e in device.coupling.edges)
        calibration = device.calibration
        rng = np.random.default_rng((int(seed), 0xD21F7))
        # Track the *current* effective rates so successive updates
        # compound instead of re-drifting the original numbers.
        edge_now: Dict[EdgeKey, float] = {
            e: calibration.edge_errors.get(frozenset(e), calibration.two_qubit_error)
            for e in edges
        }
        qubit_now: Dict[int, float] = {
            q: calibration.qubit_errors.get(q, calibration.single_qubit_error)
            for q in range(device.num_qubits)
        }
        updates: List[CalibrationDelta] = []
        for _ in range(num_updates):
            edge_errors: Dict[EdgeKey, float] = {}
            if edges:
                count = int(rng.integers(1, min(max_edges_per_update, len(edges)) + 1))
                chosen = rng.choice(len(edges), size=count, replace=False)
                for index in sorted(int(i) for i in chosen):
                    edge = edges[index]
                    factor = 1.0 + magnitude * float(rng.uniform(-1.0, 1.0))
                    value = min(
                        MAX_EDGE_ERROR, max(MIN_ERROR, edge_now[edge] * factor)
                    )
                    edge_errors[edge] = value
                    edge_now[edge] = value
            qubit_errors: Dict[int, float] = {}
            if device.num_qubits and float(rng.random()) < qubit_fraction:
                q = int(rng.integers(device.num_qubits))
                factor = 1.0 + magnitude * float(rng.uniform(-1.0, 1.0))
                value = min(0.1, max(MIN_ERROR, qubit_now[q] * factor))
                qubit_errors[q] = value
                qubit_now[q] = value
            updates.append(
                CalibrationDelta.of(
                    edge_errors=edge_errors, qubit_errors=qubit_errors
                )
            )
        return cls(seed=int(seed), updates=tuple(updates))

    def __len__(self) -> int:
        return len(self.updates)

    def replay(
        self,
        stream: CalibrationStream,
        on_update: Optional[Callable[[DriftDiff], None]] = None,
    ) -> List[DriftDiff]:
        """Apply every update to ``stream`` in order; returns the diffs."""
        diffs: List[DriftDiff] = []
        for delta in self.updates:
            diff = stream.apply(delta)
            if on_update is not None:
                on_update(diff)
            diffs.append(diff)
        return diffs
