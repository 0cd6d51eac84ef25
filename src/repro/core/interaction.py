"""Qubit interaction graphs — the paper's central profiling object.

"Interaction graphs are graphical representations of the two-qubit gates
of a given quantum circuit.  Edges represent two-qubit gates and nodes are
the qubits that participate in those.  If a circuit comprises multiple
two-qubit gates between pairs of qubits, it results in a weighted graph"
(Sec. III, Fig. 2/4).

The :class:`InteractionGraph` is consumed by the metric suite of Table I,
by the algorithm-driven placement pass and by the Fig. 4/5 experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..circuit import Circuit

__all__ = ["InteractionGraph", "interaction_graph"]


class InteractionGraph:
    """Weighted undirected multigraph-collapsed view of 2-qubit gates.

    Nodes are the circuit's qubits ``0..num_qubits-1`` (including qubits
    that never interact — isolated nodes carry real information about the
    algorithm); the weight of edge ``{a, b}`` counts how many two-qubit
    gates act on that pair.
    """

    def __init__(
        self,
        num_qubits: int,
        weights: Optional[Dict[FrozenSet[int], float]] = None,
    ) -> None:
        if num_qubits < 0:
            raise ValueError("negative qubit count")
        self.num_qubits = int(num_qubits)
        self._weights: Dict[FrozenSet[int], float] = {}
        self._adjacency: List[Set[int]] = [set() for _ in range(self.num_qubits)]
        if weights:
            for pair, weight in weights.items():
                a, b = tuple(pair)
                self.add_interaction(a, b, weight)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "InteractionGraph":
        """Build the interaction graph of ``circuit``.

        Every unitary gate on exactly two qubits adds one unit of weight;
        directives and 1q/3q+ gates are ignored (a Toffoli's interactions
        only materialise after decomposition, matching how the paper
        profiles circuits post gate-decomposition).
        """
        graph = cls(circuit.num_qubits)
        for gate in circuit:
            if gate.is_two_qubit:
                graph.add_interaction(gate.qubits[0], gate.qubits[1])
        return graph

    # ------------------------------------------------------------------
    def add_interaction(self, a: int, b: int, weight: float = 1.0) -> None:
        """Accumulate ``weight`` onto edge ``{a, b}``."""
        if a == b:
            raise ValueError("interaction needs two distinct qubits")
        for q in (a, b):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} outside register")
        if weight <= 0:
            raise ValueError("interaction weight must be positive")
        key = frozenset((a, b))
        self._weights[key] = self._weights.get(key, 0.0) + float(weight)
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._weights)

    def edges(self) -> List[Tuple[int, int, float]]:
        """Sorted ``(a, b, weight)`` triples with ``a < b``."""
        return sorted(
            (min(pair), max(pair), weight)
            for pair, weight in self._weights.items()
        )

    def weight(self, a: int, b: int) -> float:
        """Weight of edge ``{a, b}`` (0 when the pair never interacts)."""
        return self._weights.get(frozenset((a, b)), 0.0)

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._weights

    def neighbors(self, qubit: int) -> FrozenSet[int]:
        return frozenset(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        """Unweighted degree: number of distinct interaction partners."""
        return len(self._adjacency[qubit])

    def weighted_degree(self, qubit: int) -> float:
        """Total interaction weight incident to ``qubit`` (node strength)."""
        return sum(self.weight(qubit, other) for other in self._adjacency[qubit])

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights = number of two-qubit gates."""
        return sum(self._weights.values())

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric weight matrix (Table I's adjacency matrix)."""
        matrix = np.zeros((self.num_qubits, self.num_qubits))
        for pair, weight in self._weights.items():
            a, b = tuple(pair)
            matrix[a, b] = weight
            matrix[b, a] = weight
        return matrix

    # ------------------------------------------------------------------
    def connected_components(self) -> List[Set[int]]:
        seen: Set[int] = set()
        components = []
        for start in range(self.num_qubits):
            if start in seen:
                continue
            component = {start}
            queue = deque([start])
            seen.add(start)
            while queue:
                current = queue.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        component.add(neighbor)
                        queue.append(neighbor)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """True when all qubits belong to one interacting component."""
        return len(self.connected_components()) <= 1

    def shortest_path_lengths(self) -> np.ndarray:
        """Unweighted all-pairs hop counts (``-1`` for unreachable pairs).

        Runs one level-synchronous BFS from *all* sources at once: the
        reachability frontier of every source is a row of a boolean
        matrix and one boolean matrix product per hop level advances all
        frontiers together.
        """
        return _all_pairs_hops(self.adjacency_matrix() > 0)

    def subgraph_without_isolated(self) -> "InteractionGraph":
        """Copy with non-interacting qubits dropped (relabelled compactly)."""
        active = sorted(q for q in range(self.num_qubits) if self._adjacency[q])
        relabel = {old: new for new, old in enumerate(active)}
        out = InteractionGraph(len(active))
        for pair, weight in self._weights.items():
            a, b = tuple(pair)
            out.add_interaction(relabel[a], relabel[b], weight)
        return out

    def to_networkx(self):
        """Export as a weighted :class:`networkx.Graph`."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        for pair, weight in self._weights.items():
            a, b = tuple(pair)
            graph.add_edge(a, b, weight=weight)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InteractionGraph: {self.num_qubits} qubits, "
            f"{self.num_edges} edges, weight {self.total_weight:g}>"
        )


def _all_pairs_hops(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts of a boolean adjacency matrix (``-1`` unreachable).

    Level-synchronous BFS from all sources at once: the frontier of every
    source is a row of a boolean matrix, and one boolean matrix product
    per hop level advances all frontiers together.  Shared by
    :meth:`InteractionGraph.shortest_path_lengths` and the vectorised
    Table I metric suite (which already holds the adjacency matrix).
    """
    n = adjacency.shape[0]
    dist = np.full((n, n), -1, dtype=np.int32)
    if n == 0:
        return dist
    np.fill_diagonal(dist, 0)
    # The products run in float64 (0/1 entries) because numpy dispatches
    # float matmul to BLAS while boolean matmul falls back to a generic
    # O(n^3) loop; thresholding the counts recovers the boolean frontier.
    hops = adjacency.astype(np.float64)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    level = 0
    while True:
        mask = (frontier @ hops) > 0.0
        mask &= ~reached
        if not mask.any():
            return dist
        level += 1
        dist[mask] = level
        reached |= mask
        frontier = mask.astype(np.float64)


def interaction_graph(circuit: Circuit) -> InteractionGraph:
    """Convenience alias for :meth:`InteractionGraph.from_circuit`."""
    return InteractionGraph.from_circuit(circuit)
