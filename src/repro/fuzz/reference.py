"""Reference implementations the differential checks compare against.

Routing, the equivalence oracle and the Table I metrics each have one
optimised production path.  The straightforward implementations those
paths replaced live on here, with their original arithmetic, as the
oracles of the fuzz bank's differential invariants (``sabre_twin``,
``oracle_twin``, ``metrics_twin``) and of the tests:

* :func:`reference_route` — the original SABRE loop: per-call
  distance-matrix construction, per-round front/extended recomputation
  and copy-the-layout candidate scoring.
* :func:`reference_verify` — the original trial-by-trial equivalence
  loop, one serial simulation per random input.
* :func:`reference_metrics` — the original per-node graph traversals of
  the Table I suite (per-source BFS, stack-order Brandes, neighbour-pair
  clustering).

Only :mod:`repro.fuzz` and the tests import this module; nothing in the
compilation pipeline does.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit import Circuit, CircuitDag, ExecutionFrontier
from ..circuit.gates import Gate
from ..compiler.layout import Layout
from ..compiler.routing import RoutingError, RoutingResult, SabreRouter
from ..core.interaction import InteractionGraph
from ..core.metrics import GraphMetrics, compute_metrics
from ..hardware.device import Device
from ..sim.equivalence import (
    _check_layouts,
    _embed_states,
    allclose_up_to_global_phase,
)
from ..sim.statevector import Simulator, random_product_state

__all__ = ["reference_route", "reference_verify", "reference_metrics"]


# ---------------------------------------------------------------------------
# SABRE routing
# ---------------------------------------------------------------------------

def reference_route(
    router: SabreRouter, circuit: Circuit, device: Device, layout: Layout
) -> RoutingResult:
    """Route ``circuit`` with the original SABRE loop.

    Hyperparameters, the tie-break seed and the distance metric
    (``router._build_distance_matrix``) come from ``router``, so the
    reference covers :class:`~repro.compiler.routing.NoiseAwareRouter`
    and test subclasses too.  Tie-breaks are drawn through a plain
    ``SabreRouter``'s ``_select`` from a generator seeded with
    ``router.seed``, never through ``router`` itself: a bug planted in
    the router's ``_select`` cannot leak into the reference.
    ``router.route`` and this function emit identical circuits, swap
    counts and layouts (ties included) whenever the distance metric is
    integer-valued.
    """
    picker = SabreRouter(seed=router.seed)
    rng = np.random.default_rng(router.seed)
    picker._validate(circuit, device, layout)
    coupling = device.coupling
    dist = router._build_distance_matrix(device)
    layout = layout.copy()
    initial = layout.as_dict()
    out = Circuit(device.num_qubits, name=circuit.name)
    dag = CircuitDag(circuit)
    frontier = ExecutionFrontier(dag)
    decay = np.ones(device.num_qubits)
    swap_count = 0
    rounds_since_progress = 0
    swap_rounds = 0
    stall_limit = (
        router.stall_limit
        if router.stall_limit is not None
        else 10 * max(10, device.num_qubits)
    )

    def executable(node: int) -> bool:
        gate = dag.gate(node)
        if not gate.is_two_qubit:
            return True
        pa = layout.physical(gate.qubits[0])
        pb = layout.physical(gate.qubits[1])
        return coupling.are_adjacent(pa, pb)

    def drain() -> bool:
        """Emit every currently executable gate; True if any ran."""
        progressed = False
        while True:
            ready = [n for n in sorted(frontier.ready) if executable(n)]
            if not ready:
                return progressed
            for node in ready:
                out.append(picker._remap(dag.gate(node), layout))
                frontier.complete(node)
            progressed = True

    while True:
        if drain():
            decay[:] = 1.0
            rounds_since_progress = 0
        if frontier.exhausted:
            break
        front_gates = [
            dag.gate(n) for n in frontier.ready if dag.gate(n).is_two_qubit
        ]
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
                out.append(Gate("swap", (path[i], path[i + 1])))
                layout.swap_physical(path[i], path[i + 1])
                swap_count += 1
            rounds_since_progress = 0
            continue
        extended = _extended_set(dag, frontier, router.lookahead_size)
        candidates = _swap_candidates(front_gates, layout, coupling)
        scores: List[float] = []
        for a, b in candidates:
            trial = layout.copy()
            trial.swap_physical(a, b)
            scores.append(
                max(decay[a], decay[b])
                * _heuristic(
                    front_gates, extended, trial, dist, router.lookahead_weight
                )
            )
        best_swap = candidates[picker._select(scores, rng)]
        out.append(Gate("swap", best_swap))
        layout.swap_physical(*best_swap)
        swap_count += 1
        decay[best_swap[0]] += router.decay_delta
        decay[best_swap[1]] += router.decay_delta
        swap_rounds += 1
        rounds_since_progress += 1
        if swap_rounds % router.decay_reset_interval == 0:
            decay[:] = 1.0
    return RoutingResult(out, initial, layout.as_dict(), swap_count)


def _extended_set(
    dag: CircuitDag, frontier: ExecutionFrontier, lookahead_size: int
) -> List[Gate]:
    """Upcoming two-qubit gates beyond the front layer (BFS order)."""
    result: List[Gate] = []
    seen: Set[int] = set(frontier.ready)
    queue = list(frontier.ready)
    index = 0
    while index < len(queue) and len(result) < lookahead_size:
        node = queue[index]
        index += 1
        for succ in dag.successors(node):
            if succ in seen:
                continue
            seen.add(succ)
            queue.append(succ)
            gate = dag.gate(succ)
            if gate.is_two_qubit:
                result.append(gate)
                if len(result) >= lookahead_size:
                    break
    return result


def _swap_candidates(
    front_gates: Sequence[Gate], layout: Layout, coupling
) -> List[Tuple[int, int]]:
    """Every coupler touching a physical qubit of the front layer, sorted."""
    involved: Set[int] = set()
    for gate in front_gates:
        involved.add(layout.physical(gate.qubits[0]))
        involved.add(layout.physical(gate.qubits[1]))
    candidates: Set[Tuple[int, int]] = set()
    for physical in involved:
        for neighbor in coupling.neighbors(physical):
            candidates.add(tuple(sorted((physical, neighbor))))
    return sorted(candidates)


def _heuristic(
    front_gates: Sequence[Gate],
    extended: Sequence[Gate],
    layout: Layout,
    dist: np.ndarray,
    lookahead_weight: float,
) -> float:
    """Mean front-layer distance plus weighted mean look-ahead distance."""
    front_cost = sum(
        dist[layout.physical(g.qubits[0]), layout.physical(g.qubits[1])]
        for g in front_gates
    ) / len(front_gates)
    if not extended:
        return front_cost
    look_cost = sum(
        dist[layout.physical(g.qubits[0]), layout.physical(g.qubits[1])]
        for g in extended
    ) / len(extended)
    return front_cost + lookahead_weight * look_cost


# ---------------------------------------------------------------------------
# Equivalence oracle
# ---------------------------------------------------------------------------

def _embed_virtual_state(
    virtual_state: np.ndarray,
    num_physical: int,
    layout: Dict[int, int],
) -> np.ndarray:
    """Tensor one virtual state into a physical register (rest |0>)."""
    return _embed_states(
        virtual_state, num_physical, layout, virtual_state.ndim
    )


def reference_verify(
    original: Circuit,
    mapped: Circuit,
    initial_layout: Dict[int, int],
    final_layout: Dict[int, int],
    trials: int = 3,
    seed: Optional[int] = 1234,
    atol: float = 1e-7,
) -> bool:
    """The original trial-by-trial loop of :func:`~repro.sim.verify_mapping`.

    Same arguments, same layout validation and the same seeded
    ``random_product_state`` draws as the batched oracle, but one serial
    simulation per circuit and trial; for any inputs the two return the
    same verdict.
    """
    num_virtual = original.num_qubits
    num_physical = mapped.num_qubits
    _check_layouts(num_virtual, num_physical, initial_layout, final_layout)
    original = original.without_directives()
    mapped = mapped.without_directives()
    rng = np.random.default_rng(seed)
    simulator = Simulator(seed=0)
    for _ in range(max(1, trials)):
        virtual_in = random_product_state(num_virtual, rng)
        virtual_out = simulator.run(original, initial_state=virtual_in).state
        physical_in = _embed_virtual_state(virtual_in, num_physical, initial_layout)
        physical_out = simulator.run(mapped, initial_state=physical_in).state
        expected = _embed_virtual_state(virtual_out, num_physical, final_layout)
        if not allclose_up_to_global_phase(physical_out, expected, atol=atol):
            return False
    return True


# ---------------------------------------------------------------------------
# Table I metrics
# ---------------------------------------------------------------------------

def reference_metrics(graph: InteractionGraph) -> GraphMetrics:
    """:func:`~repro.core.metrics.compute_metrics` with the per-node loops.

    The graph-traversal fields — path statistics, clustering,
    betweenness and connectivity — are recomputed by the original
    Python loops; every other field is shared code already.  All fields
    match the production vector exactly except
    :data:`~repro.core.metrics.BETWEENNESS_METRICS`, whose dependency
    sums accumulate in a different float order (within ~1e-15).
    """
    avg_path, diameter, closeness = _path_statistics(graph)
    betweenness_mean, betweenness_max = _betweenness(graph)
    return dataclasses.replace(
        compute_metrics(graph),
        avg_shortest_path=avg_path,
        diameter=diameter,
        closeness=closeness,
        clustering_coefficient=_clustering_coefficient(graph),
        betweenness_mean=betweenness_mean,
        betweenness_max=betweenness_max,
        connected=1.0 if graph.is_connected() else 0.0,
    )


def _shortest_path_lengths(graph: InteractionGraph) -> np.ndarray:
    """All-pairs hop counts by one BFS per source (``-1`` unreachable)."""
    n = graph.num_qubits
    dist = np.full((n, n), -1, dtype=np.int32)
    for source in range(n):
        dist[source, source] = 0
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if dist[source, neighbor] == -1:
                    dist[source, neighbor] = dist[source, current] + 1
                    queue.append(neighbor)
    return dist


def _path_statistics(graph: InteractionGraph) -> Tuple[float, float, float]:
    """(avg shortest path, diameter, avg closeness) over reachable pairs."""
    n = graph.num_qubits
    if n < 2:
        return 0.0, 0.0, 0.0
    dist = _shortest_path_lengths(graph)
    reachable = dist > 0
    if not reachable.any():
        return 0.0, 0.0, 0.0
    distances = dist[reachable].astype(float)
    avg_path = float(distances.mean())
    diameter = float(distances.max())
    closeness_values = []
    for node in range(n):
        row = dist[node]
        targets = row > 0
        count = int(targets.sum())
        if count == 0:
            closeness_values.append(0.0)
            continue
        # Wasserman-Faust closeness: scaled for disconnected graphs.
        total = float(row[targets].sum())
        closeness_values.append((count / (n - 1)) * (count / total))
    return avg_path, diameter, float(np.mean(closeness_values))


def _clustering_coefficient(graph: InteractionGraph) -> float:
    """Average local clustering coefficient (unweighted)."""
    n = graph.num_qubits
    if n == 0:
        return 0.0
    coefficients = []
    for node in range(n):
        neighbors = sorted(graph.neighbors(node))
        k = len(neighbors)
        if k < 2:
            coefficients.append(0.0)
            continue
        links = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if graph.has_edge(neighbors[i], neighbors[j])
        )
        coefficients.append(2.0 * links / (k * (k - 1)))
    return float(np.mean(coefficients))


def _betweenness(graph: InteractionGraph) -> Tuple[float, float]:
    """(mean, max) betweenness centrality via Brandes' algorithm.

    Unweighted, normalised by ``(n-1)(n-2)/2`` as for undirected graphs.
    """
    n = graph.num_qubits
    if n < 3:
        return 0.0, 0.0
    centrality = np.zeros(n)
    for source in range(n):
        stack: List[int] = []
        predecessors: List[List[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[source] = 1.0
        dist = np.full(n, -1)
        dist[source] = 0
        queue = deque([source])
        while queue:
            current = queue.popleft()
            stack.append(current)
            for neighbor in graph.neighbors(current):
                if dist[neighbor] < 0:
                    dist[neighbor] = dist[current] + 1
                    queue.append(neighbor)
                if dist[neighbor] == dist[current] + 1:
                    sigma[neighbor] += sigma[current]
                    predecessors[neighbor].append(current)
        delta = np.zeros(n)
        while stack:
            node = stack.pop()
            for pred in predecessors[node]:
                delta[pred] += (sigma[pred] / sigma[node]) * (1.0 + delta[node])
            if node != source:
                centrality[node] += delta[node]
    # Each undirected pair was counted twice.
    centrality /= 2.0
    scale = (n - 1) * (n - 2) / 2.0
    centrality /= scale
    return float(centrality.mean()), float(centrality.max())
