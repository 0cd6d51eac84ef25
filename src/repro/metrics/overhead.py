"""Mapping-overhead metrics.

"Usual metrics are gate overhead (number of SWAPs), circuit depth and
latency overhead (number of time-stamps)" (Sec. III).  The gate overhead
percentage plotted in Figs. 3(b), 3(c) and 5 is computed here from the
pre- and post-mapping circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..circuit import Circuit

__all__ = ["OverheadReport", "gate_overhead", "overhead_report"]


@dataclass(frozen=True)
class OverheadReport:
    """Size growth caused by mapping.

    Attributes
    ----------
    gates_before / gates_after:
        Proper gate counts (directives excluded) before and after mapping,
        both measured in the *same* gate vocabulary (i.e. compare the
        decomposed input against the routed output, so the overhead
        isolates routing rather than decomposition).
    depth_before / depth_after:
        Dependency depths.
    swap_count:
        SWAP gates inserted by the router (pre-decomposition count).
    bridge_count:
        BRIDGE realisations emitted by the router (4 CNOTs each); the
        non-SWAP routing cost, so bridge-vs-swap ablations see it.
    """

    gates_before: int
    gates_after: int
    depth_before: int
    depth_after: int
    swap_count: int
    bridge_count: int = 0

    @property
    def added_gates(self) -> int:
        return self.gates_after - self.gates_before

    @property
    def gate_overhead(self) -> float:
        """Relative gate growth ``(after - before) / before`` (0 if empty)."""
        if self.gates_before == 0:
            return 0.0
        return self.added_gates / self.gates_before

    @property
    def gate_overhead_percent(self) -> float:
        """Gate overhead in percent — the y-axis of Fig. 3(b) and Fig. 5."""
        return 100.0 * self.gate_overhead

    @property
    def depth_overhead(self) -> float:
        if self.depth_before == 0:
            return 0.0
        return (self.depth_after - self.depth_before) / self.depth_before

    def as_dict(self) -> Dict[str, float]:
        return {
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "added_gates": self.added_gates,
            "gate_overhead_percent": self.gate_overhead_percent,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "depth_overhead": self.depth_overhead,
            "swap_count": self.swap_count,
            "bridge_count": self.bridge_count,
        }


def gate_overhead(before: Circuit, after: Circuit) -> float:
    """Relative gate-count growth from ``before`` to ``after``."""
    if before.num_gates == 0:
        return 0.0
    return (after.num_gates - before.num_gates) / before.num_gates


def overhead_report(
    before: Circuit, after: Circuit, swap_count: int = 0, bridge_count: int = 0
) -> OverheadReport:
    """Build an :class:`OverheadReport` for a mapping step (one walk per
    circuit counts the proper gates and the depth together)."""
    gates_before, depth_before = before.gates_and_depth()
    gates_after, depth_after = after.gates_and_depth()
    return OverheadReport(
        gates_before=gates_before,
        gates_after=gates_after,
        depth_before=depth_before,
        depth_after=depth_after,
        swap_count=swap_count,
        bridge_count=bridge_count,
    )
