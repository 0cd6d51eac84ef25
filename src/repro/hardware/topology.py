"""Coupling graphs: which pairs of physical qubits can interact.

The :class:`CouplingGraph` is the hardware-constraint object every mapping
pass consumes.  It is an undirected simple graph over physical qubit
indices ``0..num_qubits-1`` with cached all-pairs shortest-path data (the
router's inner loop is distance lookups, so those are precomputed into a
numpy matrix on first use).  The tables are memoised per edge set, so
every graph with the same qubits and edges — e.g. each copy of a device
unpickled by a pool worker — shares one read-only pair of arrays.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

__all__ = ["CouplingGraph", "TopologyError"]


class TopologyError(ValueError):
    """Raised for invalid coupling-graph constructions or queries."""


@lru_cache(maxsize=32)
def _hop_tables(
    num_qubits: int, edges: Tuple[Tuple[int, int], ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only all-pairs hop counts and next hops of one edge set.

    ``dist[a, b]`` is the hop count (``-1`` when disconnected) and
    ``hop[a, b]`` the smallest-index neighbor of ``a`` on a shortest
    ``a -> b`` path (``-1`` when there is none).
    """
    n = num_qubits
    dist = np.full((n, n), -1, dtype=np.int32)
    hop = dist.copy()
    # All-sources BFS by boolean frontier expansion: level k holds every
    # (source, node) pair first reached after k hops.
    adjacency = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while frontier.any():
        level += 1
        frontier = (frontier @ adjacency) & ~reached
        dist[frontier] = level
        reached |= frontier
    # Compare each neighbor's distance row against dist[a, :] - 1 in bulk
    # (disconnected pairs never match: their -1 sentinel would need a
    # neighbor at "distance" -2).
    for a in range(n):
        neighbors = np.flatnonzero(adjacency[a]).astype(np.int32)
        if not neighbors.size:
            continue
        on_path = dist[neighbors, :] == dist[a, :] - 1
        has_hop = on_path.any(axis=0)
        hop[a, has_hop] = neighbors[on_path.argmax(axis=0)[has_hop]]
    dist.setflags(write=False)
    hop.setflags(write=False)
    return dist, hop


class CouplingGraph:
    """Undirected coupling graph of a quantum chip.

    Parameters
    ----------
    num_qubits:
        Number of physical qubits.
    edges:
        Iterable of undirected pairs ``(a, b)``; duplicates and reversed
        duplicates are merged, self-loops are rejected.
    name:
        Optional topology name (used in reports).
    positions:
        Optional ``{qubit: (x, y)}`` layout coordinates, for
        documentation, plotting and the lattice generators' tests.
    """

    def __init__(
        self,
        num_qubits: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "",
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> None:
        if num_qubits < 0:
            raise TopologyError("negative qubit count")
        self.num_qubits = int(num_qubits)
        self.name = name
        self.positions = dict(positions) if positions else None
        self._adjacency: List[Set[int]] = [set() for _ in range(self.num_qubits)]
        edge_set: Set[FrozenSet[int]] = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise TopologyError(f"self-loop on qubit {a}")
            for q in (a, b):
                if not 0 <= q < self.num_qubits:
                    raise TopologyError(
                        f"edge ({a},{b}) leaves register of {self.num_qubits}"
                    )
            edge_set.add(frozenset((a, b)))
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self._edges: Tuple[Tuple[int, int], ...] = tuple(
            sorted(tuple(sorted(e)) for e in edge_set)
        )
        self._distances: Optional[np.ndarray] = None
        self._next_hop: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Sorted tuple of undirected edges ``(a, b)`` with ``a < b``."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, qubit: int) -> FrozenSet[int]:
        self._check(qubit)
        return frozenset(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        self._check(qubit)
        return len(self._adjacency[qubit])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adjacency), default=0)

    def has_edge(self, a: int, b: int) -> bool:
        self._check(a)
        self._check(b)
        return b in self._adjacency[a]

    def are_adjacent(self, a: int, b: int) -> bool:
        """Alias used by routers; identical to :meth:`has_edge`."""
        return self.has_edge(a, b)

    def _check(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise TopologyError(
                f"qubit {qubit} outside register of {self.num_qubits}"
            )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def _ensure_distances(self) -> None:
        if self._distances is None:
            self._distances, self._next_hop = _hop_tables(
                self.num_qubits, self._edges
            )

    def distance(self, a: int, b: int) -> int:
        """Hop count between two physical qubits.

        Raises
        ------
        TopologyError
            If the qubits are in different connected components.
        """
        self._check(a)
        self._check(b)
        self._ensure_distances()
        d = int(self._distances[a, b])
        if d < 0:
            raise TopologyError(f"qubits {a} and {b} are disconnected")
        return d

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop-count matrix (``-1`` marks disconnected pairs).

        Returns a read-only view; copy before modifying.
        """
        self._ensure_distances()
        view = self._distances.view()
        view.setflags(write=False)
        return view

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One shortest path from ``a`` to ``b`` inclusive."""
        self.distance(a, b)  # validates + ensures tables
        path = [a]
        current = a
        while current != b:
            current = int(self._next_hop[current, b])
            path.append(current)
        return path

    def diameter(self) -> int:
        """Longest shortest path; raises if the graph is disconnected."""
        if self.num_qubits == 0:
            return 0
        if not self.is_connected():
            raise TopologyError("diameter undefined on a disconnected graph")
        self._ensure_distances()
        return int(self._distances.max())

    def average_distance(self) -> float:
        """Mean hop count over distinct pairs (requires connectivity)."""
        if self.num_qubits < 2:
            return 0.0
        if not self.is_connected():
            raise TopologyError("average distance undefined when disconnected")
        self._ensure_distances()
        n = self.num_qubits
        return float(self._distances.sum()) / (n * (n - 1))

    def is_connected(self) -> bool:
        if self.num_qubits == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return len(seen) == self.num_qubits

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def truncate_connected(self, num_qubits: int) -> "CouplingGraph":
        """Keep a connected ``num_qubits``-node prefix in BFS order.

        Nodes are visited breadth-first from qubit 0 (ties broken by
        index), guaranteeing every prefix is connected; the kept nodes are
        relabelled ``0..num_qubits-1`` in visit order.  This is how the
        100-qubit "extended Surface-17" device of the paper's Fig. 3 is cut
        out of a larger surface-code lattice.
        """
        if num_qubits > self.num_qubits:
            raise TopologyError(
                f"cannot truncate {self.num_qubits} qubits to {num_qubits}"
            )
        if num_qubits == 0:
            return CouplingGraph(0, [], name=self.name)
        order: List[int] = []
        seen = {0}
        queue = deque([0])
        while queue and len(order) < num_qubits:
            current = queue.popleft()
            order.append(current)
            for neighbor in sorted(self._adjacency[current]):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        if len(order) < num_qubits:
            raise TopologyError("graph too disconnected to truncate")
        relabel = {old: new for new, old in enumerate(order)}
        kept = set(order)
        edges = [
            (relabel[a], relabel[b])
            for a, b in self._edges
            if a in kept and b in kept
        ]
        positions = None
        if self.positions:
            positions = {relabel[q]: self.positions[q] for q in order}
        return CouplingGraph(
            num_qubits, edges, name=f"{self.name}[:{num_qubits}]", positions=positions
        )

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (nodes carry positions)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self._edges)
        if self.positions:
            nx.set_node_attributes(graph, self.positions, "pos")
        return graph

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingGraph):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.num_qubits, self._edges))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CouplingGraph{label}: {self.num_qubits} qubits, "
            f"{self.num_edges} edges>"
        )
