"""Initial placement passes: assigning virtual to physical qubits.

Step 3 of the paper's mapping process: "Smartly placing virtual qubits
(from the circuit) onto physical qubits (placements on actual chip) such
that the nearest-neighbor two-qubit gate constraint is satisfied as much
as possible during circuit execution."

Three strategies are provided:

* :class:`TrivialPlacement` — the identity ``q_i -> Q_i`` used by the
  OpenQL trivial mapper of the paper's Fig. 3/5 experiments.
* :class:`GraphSimilarityPlacement` — the *algorithm-driven* strategy the
  paper advocates: greedily embeds the circuit's interaction graph into
  the coupling graph, placing strongly-interacting virtual qubits onto
  adjacent (or near) physical qubits.
* :class:`NoiseAwarePlacement` — additionally weights candidate physical
  positions by calibration data, steering hot interactions onto
  low-error edges (the *hardware-aware* axis).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..circuit import Circuit
from ..core.interaction import InteractionGraph
from ..hardware.device import Device
from .layout import Layout, LayoutError

__all__ = [
    "PlacementPass",
    "TrivialPlacement",
    "RandomPlacement",
    "GraphSimilarityPlacement",
    "NoiseAwarePlacement",
    "IsomorphismPlacement",
    "SabrePlacement",
]


class PlacementPass:
    """Interface of placement strategies."""

    name = "placement"

    def place(self, circuit: Circuit, device: Device) -> Layout:
        """Return the initial layout of ``circuit`` on ``device``."""
        raise NotImplementedError

    def _check_fit(self, circuit: Circuit, device: Device) -> None:
        if circuit.num_qubits > device.num_qubits:
            raise LayoutError(
                f"circuit of {circuit.num_qubits} qubits does not fit on "
                f"{device.name} ({device.num_qubits} qubits)"
            )


class TrivialPlacement(PlacementPass):
    """Identity placement ``q_i -> Q_i`` (the paper's trivial mapper)."""

    name = "trivial"

    def place(self, circuit: Circuit, device: Device) -> Layout:
        self._check_fit(circuit, device)
        return Layout.trivial(circuit.num_qubits, device.num_qubits)


class RandomPlacement(PlacementPass):
    """Uniformly random placement (baseline / lower bound).

    Every :meth:`place` call draws from a fresh generator seeded with
    ``seed``, so one seeded pass gives a circuit the same layout whatever
    it placed before; ``seed=None`` draws fresh entropy each call.
    """

    name = "random"

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed

    def place(self, circuit: Circuit, device: Device) -> Layout:
        self._check_fit(circuit, device)
        chosen = np.random.default_rng(self.seed).choice(
            device.num_qubits, size=circuit.num_qubits, replace=False
        )
        return Layout(
            circuit.num_qubits,
            device.num_qubits,
            {v: int(p) for v, p in enumerate(chosen)},
        )


class GraphSimilarityPlacement(PlacementPass):
    """Algorithm-driven placement via greedy interaction-graph embedding.

    Virtual qubits are visited in order of decreasing weighted degree
    (heaviest interactions first); each is placed on the free physical
    qubit minimising the interaction-weighted distance to its already
    placed partners.  The first qubit lands on a physical qubit of
    maximal degree (the centre of the chip's best-connected region).

    Every free physical qubit is scored at once: the cost vector sums
    ``weight * hops[partner position]`` over the placed partners, and the
    winner is the lexicographic minimum of (cost, -degree, index), so
    equal costs go to the better-connected, then the lower-index qubit.
    """

    name = "graph-similarity"

    def place(self, circuit: Circuit, device: Device) -> Layout:
        self._check_fit(circuit, device)
        graph = InteractionGraph.from_circuit(circuit)
        return self._embed(graph, device)

    # ------------------------------------------------------------------
    def _penalty(self, device: Device) -> Optional[np.ndarray]:
        """Per-physical-qubit cost charged per unit of weighted degree."""
        return None

    def _order_virtuals(self, graph: InteractionGraph) -> List[int]:
        return sorted(
            range(graph.num_qubits),
            key=lambda v: (-graph.weighted_degree(v), v),
        )

    def _embed(self, graph: InteractionGraph, device: Device) -> Layout:
        coupling = device.coupling
        hops = coupling.distance_matrix()
        # Prefer well-connected physical qubits among equal-cost choices.
        neg_degree = -np.count_nonzero(hops == 1, axis=1)
        disconnected = bool((hops < 0).any())
        penalty = self._penalty(device)
        placed: Dict[int, int] = {}
        free = np.ones(coupling.num_qubits, dtype=bool)
        for virtual in self._order_virtuals(graph):
            # The seed (nothing placed yet) scores zero everywhere and so
            # lands on the best-connected physical qubit.
            cost = np.zeros(coupling.num_qubits)
            if placed:
                positions = [
                    (graph.weight(virtual, partner), placed[partner])
                    for partner in graph.neighbors(virtual)
                    if partner in placed
                ]
                # Partner by partner, in the same order and with the same
                # IEEE operations as a per-candidate sum (hops is
                # symmetric, so row ``position`` holds every distance to it).
                for weight, position in positions:
                    cost += weight * hops[position]
                if disconnected:
                    _check_reachable(coupling, hops, free, positions)
                if penalty is not None:
                    cost += graph.weighted_degree(virtual) * penalty
            candidates = np.flatnonzero(free)
            best = np.lexsort(
                (candidates, neg_degree[candidates], cost[candidates])
            )[0]
            candidate = int(candidates[best])
            placed[virtual] = candidate
            free[candidate] = False
        return Layout(graph.num_qubits, coupling.num_qubits, placed)


def _check_reachable(coupling, hops, free, positions) -> None:
    """Raise :class:`TopologyError` if a free qubit cannot reach a partner.

    Names the lowest such free qubit and its first unreachable partner.
    """
    columns = [position for _, position in positions]
    cut = np.flatnonzero(free & (hops[:, columns] < 0).any(axis=1))
    if cut.size:
        for position in columns:
            coupling.distance(int(cut[0]), position)  # raises


class NoiseAwarePlacement(GraphSimilarityPlacement):
    """Hardware- and algorithm-aware placement.

    Extends :class:`GraphSimilarityPlacement` by penalising candidate
    positions whose incident edges have high two-qubit error rates, so
    heavily-interacting pairs end up on the chip's most reliable links.
    A physical qubit's quality is the error rate of its best incident
    edge (``1.0`` when it has none); a virtual qubit pays
    ``weighted_degree * error_weight * quality`` on top of its distance
    cost.
    """

    name = "noise-aware"

    def __init__(self, error_weight: float = 10.0) -> None:
        if error_weight < 0:
            raise ValueError("error_weight must be non-negative")
        self.error_weight = error_weight

    def _penalty(self, device: Device) -> np.ndarray:
        coupling = device.coupling
        edge_error = device.calibration.edge_error
        incident: List[List[float]] = [[] for _ in range(coupling.num_qubits)]
        for a, b in coupling.edges:
            error = edge_error(a, b)
            incident[a].append(error)
            incident[b].append(error)
        quality = np.array([min(errors, default=1.0) for errors in incident])
        return self.error_weight * quality


class IsomorphismPlacement(PlacementPass):
    """Exact subgraph-isomorphism placement with graceful fallback.

    Searches for an embedding of the circuit's interaction graph into the
    coupling graph such that *every* interacting pair lands on coupled
    physical qubits — when one exists, routing needs zero SWAPs.  This is
    the subgraph-isomorphism strategy of the mapping literature the paper
    surveys (Li et al., Jiang et al.).

    The search is a degree-pruned backtracking monomorphism search with a
    node budget; when no embedding is found within the budget (or none
    exists — e.g. the interaction graph is denser than the chip), the
    pass falls back to :class:`GraphSimilarityPlacement`.

    Parameters
    ----------
    max_nodes:
        Backtracking-node budget before giving up.
    fallback:
        Placement used when no exact embedding is found (defaults to
        graph-similarity).
    """

    name = "isomorphism"

    def __init__(
        self,
        max_nodes: int = 200_000,
        fallback: Optional[PlacementPass] = None,
    ) -> None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.max_nodes = max_nodes
        self.fallback = fallback if fallback is not None else GraphSimilarityPlacement()

    def place(self, circuit: Circuit, device: Device) -> Layout:
        self._check_fit(circuit, device)
        graph = InteractionGraph.from_circuit(circuit)
        embedding = self.find_embedding(graph, device)
        if embedding is None:
            return self.fallback.place(circuit, device)
        # Interacting qubits are embedded; park the non-interacting ones
        # on arbitrary free positions.
        used = set(embedding.values())
        free = iter(p for p in range(device.num_qubits) if p not in used)
        for virtual in range(circuit.num_qubits):
            if virtual not in embedding:
                embedding[virtual] = next(free)
        return Layout(circuit.num_qubits, device.num_qubits, embedding)

    def find_embedding(
        self, graph: InteractionGraph, device: Device
    ) -> Optional[Dict[int, int]]:
        """Exact embedding of the interacting qubits, or ``None``.

        Returns a partial assignment covering every qubit with at least
        one interaction; every interaction-graph edge maps onto a
        coupling-graph edge.
        """
        coupling = device.coupling
        virtuals = [q for q in range(graph.num_qubits) if graph.degree(q) > 0]
        if not virtuals:
            return {}
        if any(graph.degree(q) > coupling.max_degree() for q in virtuals):
            return None
        # Order by degree (most-constrained first), then by connectivity
        # to already-ordered qubits so the partial graph stays connected.
        ordered: List[int] = []
        remaining = set(virtuals)
        while remaining:
            attached = [
                v
                for v in remaining
                if any(u in ordered for u in graph.neighbors(v))
            ]
            pool = attached if attached else list(remaining)
            best = max(pool, key=lambda v: (graph.degree(v), -v))
            ordered.append(best)
            remaining.discard(best)

        assignment: Dict[int, int] = {}
        used: set = set()
        budget = [self.max_nodes]

        def candidates(virtual: int) -> List[int]:
            anchors = [
                assignment[u] for u in graph.neighbors(virtual) if u in assignment
            ]
            if anchors:
                pool = set(coupling.neighbors(anchors[0]))
                for anchor in anchors[1:]:
                    pool &= coupling.neighbors(anchor)
            else:
                pool = set(range(coupling.num_qubits))
            return sorted(
                (p for p in pool if p not in used),
                key=lambda p: -coupling.degree(p),
            )

        def backtrack(index: int) -> bool:
            if index == len(ordered):
                return True
            if budget[0] <= 0:
                return False
            virtual = ordered[index]
            for physical in candidates(virtual):
                budget[0] -= 1
                if budget[0] <= 0:
                    return False
                if coupling.degree(physical) < graph.degree(virtual):
                    continue
                assignment[virtual] = physical
                used.add(physical)
                if backtrack(index + 1):
                    return True
                del assignment[virtual]
                used.discard(physical)
            return False

        if backtrack(0):
            return dict(assignment)
        return None


class SabrePlacement(PlacementPass):
    """SABRE's bidirectional initial-placement refinement.

    Runs the SABRE router forward over the circuit and backward over its
    reverse, feeding each pass's *final* layout in as the next pass's
    initial layout.  After a few round trips the layout adapts to both
    ends of the circuit, which is the initial-mapping half of the SABRE
    algorithm (Li, Ding, Xie — ASPLOS 2019), one of the approaches the
    paper's Sec. III surveys.

    Parameters
    ----------
    iterations:
        Number of forward/backward round trips.
    seed:
        Tie-break seed of the underlying SABRE router; every forward and
        backward route restarts from it.  The starting layout is
        graph-similarity placement, which draws no random numbers.
    """

    name = "sabre-place"

    def __init__(self, iterations: int = 2, seed: Optional[int] = 11) -> None:
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.iterations = iterations
        self.seed = seed

    def place(self, circuit: Circuit, device: Device) -> Layout:
        from .routing import SabreRouter

        self._check_fit(circuit, device)
        router = SabreRouter(seed=self.seed)
        # Routers require arity <= 2; strip directives and route only the
        # unitary skeleton for placement purposes.
        skeleton = Circuit(circuit.num_qubits)
        for gate in circuit:
            if gate.is_unitary and gate.num_qubits <= 2:
                skeleton.append(gate)
        reverse = Circuit(circuit.num_qubits)
        for gate in reversed(skeleton.gates):
            reverse.append(gate)

        layout = GraphSimilarityPlacement().place(skeleton, device)
        for _ in range(self.iterations):
            forward = router.route(skeleton, device, layout)
            layout = Layout(
                circuit.num_qubits, device.num_qubits, dict(forward.final_layout)
            )
            backward = router.route(reverse, device, layout)
            layout = Layout(
                circuit.num_qubits, device.num_qubits, dict(backward.final_layout)
            )
        return layout
