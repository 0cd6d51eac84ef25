"""Routing passes: making every two-qubit gate nearest-neighbour.

Step 4 of the paper's mapping process: "Routing or exchanging positions of
virtual qubits on the chip such that all qubits that need to interact
during circuit execution are adjacent ... done by inserting additional
quantum gates called SWAPs".

* :class:`TrivialRouter` reproduces the OpenQL *trivial mapper* used for
  the paper's Fig. 3/5 data: gates are processed in program order and a
  non-adjacent pair is fixed by swapping one operand along a shortest
  path until the pair is adjacent.
* :class:`SabreRouter` is the look-ahead heuristic router (Li et al.'s
  SABRE) the paper cites among "various approaches to solve the mapping
  problem"; it serves as the stronger baseline in the ablation benches.
* :class:`NoiseAwareRouter` biases SABRE's distance metric with
  calibration data so SWAP chains prefer low-error links.

Routers consume circuits whose unitary gates have arity <= 2 (run the
decomposition pass first) and emit physical circuits containing explicit
``swap`` gates plus the final layout.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit import Circuit, CircuitDag, ExecutionFrontier
from ..circuit.gates import Gate, _derived_gate
from ..hardware.device import Device
from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing
from ..telemetry.tracing import span
from .layout import Layout

__all__ = [
    "RoutingError",
    "RoutingResult",
    "Router",
    "TrivialRouter",
    "SabreRouter",
    "NoiseAwareRouter",
    "clear_distance_cache",
]


class RoutingError(RuntimeError):
    """Raised on unroutable inputs (arity > 2, disconnected chips, ...)."""


@dataclass
class RoutingResult:
    """Output of a routing pass.

    Attributes
    ----------
    circuit:
        The physical circuit: every unitary 2q gate acts on coupled
        qubits; inserted SWAPs appear as explicit ``swap`` gates.
    initial_layout / final_layout:
        Virtual-to-physical maps before and after execution.
    swap_count:
        Number of SWAP gates inserted.
    bridge_count:
        Number of BRIDGE realisations emitted (4 CNOTs each, layout
        unchanged) — the other routing cost besides SWAPs.
    """

    circuit: Circuit
    initial_layout: Dict[int, int]
    final_layout: Dict[int, int]
    swap_count: int
    bridge_count: int = 0


# ---------------------------------------------------------------------------
# Per-device distance-table cache
#
# Routers are constructed freely (one per mapper, per suite circuit, per
# worker) but devices are few, so the expensive all-pairs tables are
# memoised per device rather than recomputed on every ``route()`` call.
# Hop matrices key on the coupling graph alone; noise-weighted matrices
# additionally key on the calibration (its :meth:`Calibration.cache_key`
# acts as the calibration version).  Cached matrices are read-only.
# ---------------------------------------------------------------------------

_DISTANCE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_DISTANCE_CACHE_SIZE = 32


def clear_distance_cache() -> None:
    """Drop all memoised per-device distance tables."""
    _DISTANCE_CACHE.clear()
    _INCIDENT_CACHE.clear()


def _cached_distance_matrix(
    key: tuple, build: Callable[[], np.ndarray]
) -> np.ndarray:
    try:
        matrix = _DISTANCE_CACHE.pop(key)
    except KeyError:
        matrix = build()
        matrix.setflags(write=False)
    _DISTANCE_CACHE[key] = matrix
    while len(_DISTANCE_CACHE) > _DISTANCE_CACHE_SIZE:
        _DISTANCE_CACHE.popitem(last=False)
    return matrix


_INCIDENT_CACHE: "OrderedDict[object, List[Tuple[Tuple[int, int], ...]]]" = (
    OrderedDict()
)


def _incident_edges(coupling) -> List[Tuple[Tuple[int, int], ...]]:
    """Per-qubit tuples of incident ``(a, b)`` edges (a < b), memoised.

    The router's candidate generation touches this every swap round;
    rebuilding per-qubit frozensets from the adjacency each time shows up
    in profiles, so the table is cached per coupling graph alongside the
    distance matrices.
    """
    try:
        table = _INCIDENT_CACHE.pop(coupling)
    except KeyError:
        buckets: List[List[Tuple[int, int]]] = [
            [] for _ in range(coupling.num_qubits)
        ]
        for a, b in coupling.edges:
            buckets[a].append((a, b))
            buckets[b].append((a, b))
        table = [tuple(bucket) for bucket in buckets]
    _INCIDENT_CACHE[coupling] = table
    while len(_INCIDENT_CACHE) > _DISTANCE_CACHE_SIZE:
        _INCIDENT_CACHE.popitem(last=False)
    return table


def _endpoint_arrays(
    front_gates: Sequence[Gate],
    extended: Sequence[Gate],
    v2p: Sequence[int],
) -> np.ndarray:
    """Physical endpoints of the scored gates, shape ``(2, front+extended)``.

    Row 0 holds first operands, row 1 second operands; front-layer gates
    come before the extended set.
    """
    total = len(front_gates) + len(extended)
    endpoints = np.empty((2, total), dtype=np.intp)
    endpoints[0] = np.fromiter(
        (v2p[g.qubits[0]] for gs in (front_gates, extended) for g in gs),
        dtype=np.intp,
        count=total,
    )
    endpoints[1] = np.fromiter(
        (v2p[g.qubits[1]] for gs in (front_gates, extended) for g in gs),
        dtype=np.intp,
        count=total,
    )
    return endpoints


class Router:
    """Interface of routing strategies.

    Concrete routers implement :meth:`_route`; the public :meth:`route`
    wraps it in telemetry (one ``route.<name>`` span per call plus
    swap/bridge counters labelled by router).  With telemetry disabled
    the wrapper is a plain delegation — no spans, no counters, no
    behavioural difference, which the no-op regression tests pin.

    ``deadline`` (a :class:`repro.resilience.deadline.Deadline`) bounds
    the routing work cooperatively: the wrapper checks it once on entry
    and the concrete routers re-check it inside their search loops (once
    per SABRE swap round / per trivial SWAP chain / per exact-search
    expansion), raising ``DeadlineExceeded`` instead of stalling.  With
    ``deadline=None`` — the default — no check site executes.
    """

    name = "router"

    def route(
        self,
        circuit: Circuit,
        device: Device,
        layout: Layout,
        deadline=None,
    ) -> RoutingResult:
        if deadline is not None:
            deadline.check(f"route.{self.name}")
        with span(
            f"route.{self.name}",
            qubits=circuit.num_qubits,
            gates=circuit.num_gates,
        ) as sp:
            result = self._route(circuit, device, layout, deadline=deadline)
            sp.set("swap_count", result.swap_count)
            sp.set("bridge_count", result.bridge_count)
        if tracing.is_enabled():
            labels = {"router": self.name}
            telemetry_metrics.counter("route_runs", **labels).inc()
            telemetry_metrics.counter("swaps_inserted", **labels).inc(
                result.swap_count
            )
            telemetry_metrics.counter("bridges_inserted", **labels).inc(
                result.bridge_count
            )
            telemetry_metrics.histogram(
                "route_swaps_per_circuit", **labels
            ).observe(result.swap_count)
        return result

    def _route(
        self, circuit: Circuit, device: Device, layout: Layout, deadline=None
    ) -> RoutingResult:
        raise NotImplementedError

    @staticmethod
    def _validate(circuit: Circuit, device: Device, layout: Layout) -> None:
        if layout.num_virtual != circuit.num_qubits:
            raise RoutingError("layout width does not match the circuit")
        if layout.num_physical != device.num_qubits:
            raise RoutingError("layout width does not match the device")
        if not device.coupling.is_connected():
            raise RoutingError("cannot route on a disconnected coupling graph")
        for gate in circuit:
            if gate.is_unitary and gate.num_qubits > 2:
                raise RoutingError(
                    f"gate {gate.name!r} has arity {gate.num_qubits}; run "
                    "decomposition before routing"
                )

    @staticmethod
    def _remap(gate: Gate, layout: Layout) -> Gate:
        # A valid gate on the layout's virtual register: its physical image
        # is valid too (the layout is injective and holds Python ints).
        return _derived_gate(
            gate.name, tuple(map(layout._v2p.__getitem__, gate.qubits)), gate.params
        )


class TrivialRouter(Router):
    """Shortest-path SWAP insertion in program order (the paper's mapper).

    For every non-adjacent two-qubit gate, the first operand is swapped
    hop by hop along one shortest path towards the second until the pair
    shares an edge.  No look-ahead, no reordering — exactly the trivial
    mapping policy whose overhead Fig. 3 measures.

    Parameters
    ----------
    use_bridge:
        When true, a CNOT at distance exactly 2 is realised as a BRIDGE
        gate (four nearest-neighbour CNOTs through the middle qubit)
        instead of SWAP + CNOT.  The layout is left untouched — the
        classic trade-off from the mapping literature (4 CNOTs vs the
        3-CNOT SWAP plus a permuted layout).  Off by default, since the
        paper's trivial mapper does not bridge.
    """

    name = "trivial"

    def __init__(self, use_bridge: bool = False) -> None:
        self.use_bridge = use_bridge

    def _route(
        self, circuit: Circuit, device: Device, layout: Layout, deadline=None
    ) -> RoutingResult:
        self._validate(circuit, device, layout)
        coupling = device.coupling
        layout = layout.copy()
        initial = layout.as_dict()
        out = Circuit(device.num_qubits, name=circuit.name)
        swap_count = 0
        bridge_count = 0
        for gate in circuit:
            if not gate.is_two_qubit:
                out.append(self._remap(gate, layout))
                continue
            a, b = gate.qubits
            pa, pb = layout.physical(a), layout.physical(b)
            if (
                self.use_bridge
                and gate.name == "cx"
                and not coupling.are_adjacent(pa, pb)
                and coupling.distance(pa, pb) == 2
            ):
                middle = coupling.shortest_path(pa, pb)[1]
                out.extend(_bridge_cx(pa, middle, pb))
                bridge_count += 1
                continue
            if not coupling.are_adjacent(pa, pb):
                if deadline is not None:
                    deadline.check("route.trivial")
                path = coupling.shortest_path(pa, pb)
                for i in range(len(path) - 2):
                    out.append(_derived_gate("swap", (path[i], path[i + 1])))
                    layout.swap_physical(path[i], path[i + 1])
                    swap_count += 1
                pa = layout.physical(a)
                pb = layout.physical(b)
            out.append(_derived_gate(gate.name, (pa, pb), gate.params))
        return RoutingResult(
            out, initial, layout.as_dict(), swap_count, bridge_count
        )


def _bridge_cx(control: int, middle: int, target: int) -> List[Gate]:
    """BRIDGE: CX(control, target) over a distance-2 path.

    ``CX(a,c) = CX(b,c) CX(a,b) CX(b,c) CX(a,b)`` with middle qubit ``b``;
    all four CNOTs are nearest-neighbour and the qubit layout is
    unchanged.
    """
    return [
        _derived_gate("cx", (middle, target)),
        _derived_gate("cx", (control, middle)),
        _derived_gate("cx", (middle, target)),
        _derived_gate("cx", (control, middle)),
    ]


class SabreRouter(Router):
    """SABRE-style look-ahead router.

    Maintains the dependency front layer; executable gates are emitted
    eagerly, and when the front is blocked the SWAP minimising a weighted
    sum of front-layer and look-ahead distances (with per-qubit decay to
    avoid ping-pong) is applied.  Swap candidates are scored by the
    *delta* of the two moved qubits against the cached distance tables;
    :func:`repro.fuzz.reference.reference_route` keeps the original
    copy-the-layout-and-rescore loop, and the two choose identical swaps
    (ties included) whenever the distance metric is integer-valued.

    Parameters
    ----------
    lookahead_size:
        Number of upcoming two-qubit gates in the extended set.
    lookahead_weight:
        Relative weight of the extended set in the heuristic.
    decay_delta / decay_reset_interval:
        Decay increment per swapped qubit and the number of swap rounds
        after which decay factors reset.
    seed:
        Tie-breaking randomisation seed (ties are common on lattices).
    stall_limit:
        Swap rounds without front-layer progress before the router falls
        back to deterministic shortest-path routing for the first blocked
        gate.  ``None`` uses ``10 * max(10, device.num_qubits)``.
    """

    name = "sabre"

    #: Short label of the distance metric, first element of the cache key.
    metric_name = "hops"

    #: Set to ``True`` in subclasses whose :meth:`_build_distance_matrix`
    #: consults ``device.calibration``.  The base
    #: :meth:`_distance_cache_key` then appends the calibration's
    #: :meth:`~repro.hardware.calibration.Calibration.cache_key` (the
    #: calibration *version*) automatically, so a fidelity-aware router
    #: can never serve a distance table computed under stale calibration
    #: data — the two overrides used to be independent, and forgetting
    #: the key half silently reused old tables after a calibration
    #: update (user-visible once results are cached across requests).
    uses_calibration = False

    def __init__(
        self,
        lookahead_size: int = 20,
        lookahead_weight: float = 0.5,
        decay_delta: float = 0.001,
        decay_reset_interval: int = 5,
        seed: Optional[int] = 11,
        stall_limit: Optional[int] = None,
    ) -> None:
        self.lookahead_size = lookahead_size
        self.lookahead_weight = lookahead_weight
        self.decay_delta = decay_delta
        self.decay_reset_interval = decay_reset_interval
        self.stall_limit = stall_limit
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # -- distance metric -------------------------------------------------
    def _build_distance_matrix(self, device: Device) -> np.ndarray:
        """Uncached distance-metric construction (hop counts)."""
        dist = device.coupling.distance_matrix().astype(float)
        # Disconnected pairs come back as -1 sentinels; a negative
        # "distance" would make the heuristic *prefer* unreachable pairs,
        # so map them to +inf.
        dist[dist < 0] = math.inf
        return dist

    def _distance_cache_key(self, device: Device) -> tuple:
        """Cache key of this router's distance table on ``device``.

        Derived, not overridden: the key always carries the metric name
        and the coupling graph, plus the calibration version whenever
        :attr:`uses_calibration` declares the metric fidelity-aware.
        Subclasses adding *router-parameter*-dependent costs should
        extend the returned tuple rather than replace it.
        """
        key: tuple = (self.metric_name, device.coupling)
        if self.uses_calibration:
            key += (device.calibration.cache_key(),)
        return key

    def _distance_matrix(self, device: Device) -> np.ndarray:
        """Memoised distance matrix for a device (read-only)."""
        return _cached_distance_matrix(
            self._distance_cache_key(device),
            lambda: self._build_distance_matrix(device),
        )

    def _is_cached(self, device: Device) -> bool:
        """Whether ``device``'s table is already in the distance cache."""
        return self._distance_cache_key(device) in _DISTANCE_CACHE

    # ---------------------------------------------------------------------
    def _route(
        self, circuit: Circuit, device: Device, layout: Layout, deadline=None
    ) -> RoutingResult:
        self._validate(circuit, device, layout)
        coupling = device.coupling
        dist = self._distance_matrix(device)
        layout = layout.copy()
        initial = layout.as_dict()
        out = Circuit(device.num_qubits, name=circuit.name)
        dag = CircuitDag(circuit)
        frontier = ExecutionFrontier(dag)
        decay = np.ones(device.num_qubits)
        swap_count = 0
        rounds_since_progress = 0
        swap_rounds = 0
        stall_fallbacks = 0
        stall_limit = (
            self.stall_limit
            if self.stall_limit is not None
            else 10 * max(10, device.num_qubits)
        )
        # Hot-loop working state: the per-node two-qubit flags are fixed,
        # and layout._v2p / coupling._adjacency are read directly (the
        # accessor methods dominate profiles otherwise).
        gates = circuit.gates
        is_2q = [g.is_two_qubit for g in gates]
        v2p = layout._v2p
        adjacency = coupling._adjacency

        def executable(node: int) -> bool:
            if not is_2q[node]:
                return True
            qa, qb = gates[node].qubits
            return v2p[qb] in adjacency[v2p[qa]]

        def drain() -> bool:
            """Emit every currently executable gate; True if any ran."""
            progressed = False
            while True:
                ready = [n for n in sorted(frontier.ready) if executable(n)]
                if not ready:
                    return progressed
                for node in ready:
                    out.append(self._remap(gates[node], layout))
                    frontier.complete(node)
                progressed = True

        # The blocked front layer and its look-ahead set only change when
        # gates execute, so they are cached across consecutive swap
        # rounds (swaps move the layout, not the dependency frontier),
        # together with the physical endpoint arrays: after a swap those
        # are replaced by the chosen candidate's already-computed
        # post-swap rows instead of being rebuilt from the layout.
        front_gates: Optional[List[Gate]] = None
        extended: List[Gate] = []
        endpoints: Optional[np.ndarray] = None
        num_front = 0
        incident = _incident_edges(coupling)
        while True:
            if drain():
                decay[:] = 1.0
                rounds_since_progress = 0
                front_gates = None
            if frontier.exhausted:
                break
            if deadline is not None:
                # Cooperative checkpoint: once per blocked swap round, so
                # an expired budget surfaces mid-search instead of after
                # the full SABRE walk.
                deadline.check("route.sabre")
            if front_gates is None:
                front_gates = [gates[n] for n in frontier.ready if is_2q[n]]
                extended = self._extended_set(dag, frontier, is_2q, gates)
                num_front = len(front_gates)
                if front_gates:
                    endpoints = _endpoint_arrays(front_gates, extended, v2p)
            if not front_gates:  # pragma: no cover - defensive
                raise RoutingError("blocked frontier without two-qubit gates")
            if rounds_since_progress > stall_limit:
                # Fall back to deterministic shortest-path routing for the
                # first blocked gate; guarantees global progress.
                gate = front_gates[0]
                path = coupling.shortest_path(
                    layout.physical(gate.qubits[0]), layout.physical(gate.qubits[1])
                )
                for i in range(len(path) - 2):
                    out.append(_derived_gate("swap", (path[i], path[i + 1])))
                    layout.swap_physical(path[i], path[i + 1])
                    swap_count += 1
                rounds_since_progress = 0
                stall_fallbacks += 1
                front_gates = None  # endpoint cache is stale now
                continue
            involved = set(endpoints[0, :num_front])
            involved.update(endpoints[1, :num_front])
            candidates: Set[Tuple[int, int]] = set()
            for physical in involved:
                candidates.update(incident[physical])
            ordered = sorted(candidates)
            scores, moved = self._score_candidates(
                endpoints, ordered, num_front, len(extended), dist, decay
            )
            chosen = self._select(scores)
            best_swap = ordered[chosen]
            endpoints = moved[chosen]
            out.append(_derived_gate("swap", best_swap))
            layout.swap_physical(*best_swap)
            swap_count += 1
            decay[best_swap[0]] += self.decay_delta
            decay[best_swap[1]] += self.decay_delta
            swap_rounds += 1
            rounds_since_progress += 1
            if swap_rounds % self.decay_reset_interval == 0:
                decay[:] = 1.0
        self._count_iterations(swap_rounds, stall_fallbacks)
        return RoutingResult(out, initial, layout.as_dict(), swap_count)

    def _count_iterations(self, swap_rounds: int, stall_fallbacks: int) -> None:
        """Mirror one route's SABRE loop tallies into labelled counters."""
        if not tracing.is_enabled():
            return
        labels = {"router": self.name}
        telemetry_metrics.counter("sabre_swap_rounds", **labels).inc(
            swap_rounds
        )
        telemetry_metrics.counter("sabre_stall_fallbacks", **labels).inc(
            stall_fallbacks
        )

    # ---------------------------------------------------------------------
    def _extended_set(
        self,
        dag: CircuitDag,
        frontier: ExecutionFrontier,
        is_2q: Sequence[bool],
        gates: Sequence[Gate],
    ) -> List[Gate]:
        """Upcoming two-qubit gates beyond the front layer (BFS order).

        ``is_2q`` / ``gates`` are the per-node two-qubit flags and gate
        list the routing loop precomputed, avoiding repeated property
        lookups on the hot path (the ``Circuit.gates`` accessor copies
        the whole gate list).
        """
        result: List[Gate] = []
        limit = self.lookahead_size
        if limit <= 0:
            return result
        seen: Set[int] = set(frontier.ready)
        queue = list(frontier.ready)
        succs = dag._succs
        index = 0
        while index < len(queue) and len(result) < limit:
            node = queue[index]
            index += 1
            for succ in succs[node]:
                if succ in seen:
                    continue
                seen.add(succ)
                queue.append(succ)
                if is_2q[succ]:
                    result.append(gates[succ])
                    if len(result) >= limit:
                        break
        return result

    def _score_candidates(
        self,
        endpoints: np.ndarray,
        candidates: Sequence[Tuple[int, int]],
        num_front: int,
        num_extended: int,
        dist: np.ndarray,
        decay: np.ndarray,
    ) -> Tuple[List[float], np.ndarray]:
        """Vectorised incremental rescoring of every swap candidate.

        Only the two moved qubits change any gate distance, so each
        candidate's post-swap endpoint pairs are the current pairs with
        ``a <-> b`` substituted — one fancy-indexed gather against the
        cached distance matrix scores every candidate at once.  For the
        hop metric all sums are of exact small integers in float64, so
        scores are bit-identical to those of the copy-the-layout loop in
        :func:`repro.fuzz.reference.reference_route`; real-valued metrics
        (noise-aware) agree to float round-off.

        Returns the per-candidate scores plus the post-swap endpoint
        tensor of shape ``(candidates, 2, front+extended)`` so the caller
        can adopt the chosen candidate's slice instead of rebuilding from
        the layout.
        """
        cand = np.asarray(candidates, dtype=np.intp)
        swap_a = cand[:, 0, None, None]
        swap_b = cand[:, 1, None, None]
        moved = np.where(
            endpoints == swap_a,
            swap_b,
            np.where(endpoints == swap_b, swap_a, endpoints),
        )
        trial_dist = dist[moved[:, 0], moved[:, 1]]  # (candidates, front+ext)
        cost = trial_dist[:, :num_front].sum(axis=1) / num_front
        if num_extended:
            cost = cost + self.lookahead_weight * (
                trial_dist[:, num_front:].sum(axis=1) / num_extended
            )
        scores = (decay[cand].max(axis=1) * cost).tolist()
        return scores, moved

    def _select(self, scores: Sequence[float]) -> int:
        """Running-threshold tie collection plus one RNG draw.

        :func:`repro.fuzz.reference.reference_route` draws its tie-breaks
        through this exact scan (including the 1e-12 threshold semantics
        and a single ``rng.integers`` call per round), which is what
        keeps the two routes aligned gate for gate.
        """
        best_score = math.inf
        best: List[int] = []
        for index, score in enumerate(scores):
            if score < best_score - 1e-12:
                best_score = score
                best = [index]
            elif abs(score - best_score) <= 1e-12:
                best.append(index)
        if not best:  # pragma: no cover - defensive
            raise RoutingError("no swap candidates on a blocked frontier")
        return best[int(self._rng.integers(len(best)))]


class NoiseAwareRouter(SabreRouter):
    """SABRE with a calibration-weighted distance metric.

    The hop-count matrix is replaced by shortest-path costs where each
    edge costs ``-log(1 - 3 * e_edge)`` (the success probability of the
    three two-qubit primitives a SWAP decomposes into), normalised by the
    best edge.  SWAP chains therefore prefer reliable links, trading a
    longer path for higher expected fidelity.
    """

    name = "noise-aware"

    metric_name = "noise"

    # The error-weighted metric depends on the calibration, so the cache
    # key must carry its fingerprint as the "calibration version" — the
    # base class derives that from this flag.
    uses_calibration = True

    def _edge_costs(self, device: Device) -> Tuple[Dict[Tuple[int, int], float], float]:
        """Per-edge SWAP costs (both orientations) and the scale divisor."""
        costs: Dict[Tuple[int, int], float] = {}
        best = math.inf
        for a, b in device.coupling.edges:
            error = device.calibration.edge_error(a, b)
            swap_error = min(0.999999, 3.0 * error)
            cost = -math.log(1.0 - swap_error) if swap_error > 0 else 1e-9
            costs[(a, b)] = costs[(b, a)] = cost
            best = min(best, cost)
        scale = best if best not in (0.0, math.inf) else 1.0
        return costs, scale

    def _build_distance_matrix(self, device: Device) -> np.ndarray:
        costs, scale = self._edge_costs(device)
        n = device.coupling.num_qubits
        dist = np.full((n, n), np.inf)
        # Dijkstra from every source (n is ~100; fine).
        for source in range(n):
            row = dist[source]
            row[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, current = heapq.heappop(heap)
                if d > row[current]:
                    continue
                for neighbor in device.coupling.neighbors(current):
                    nd = d + costs[(current, neighbor)] / scale
                    if nd < row[neighbor]:
                        row[neighbor] = nd
                        heapq.heappush(heap, (nd, neighbor))
        return dist
