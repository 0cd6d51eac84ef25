"""Virtual-to-physical qubit layouts.

A :class:`Layout` is the mutable bijection between a circuit's *virtual*
qubits (``q_i`` in the paper's Fig. 2) and the chip's *physical* qubits
(``Q_i``).  Placement passes construct the initial layout; routers mutate
it with every inserted SWAP; the pair (initial, final) is what the
equivalence oracle needs to verify a mapped circuit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Layout", "LayoutError"]


class LayoutError(ValueError):
    """Raised for inconsistent layout constructions or lookups."""


class Layout:
    """Injective map of ``num_virtual`` virtual onto ``num_physical`` qubits.

    Virtual indices run ``0..num_virtual-1``; physical ``0..num_physical-1``
    with ``num_virtual <= num_physical``.  Physical qubits without a
    virtual assignment are *free* (they still participate in SWAPs).
    """

    __slots__ = ("num_virtual", "num_physical", "_v2p", "_p2v")

    def __init__(
        self,
        num_virtual: int,
        num_physical: int,
        virtual_to_physical: Optional[Dict[int, int]] = None,
    ) -> None:
        if num_virtual > num_physical:
            raise LayoutError(
                f"{num_virtual} virtual qubits do not fit on "
                f"{num_physical} physical qubits"
            )
        self.num_virtual = num_virtual
        self.num_physical = num_physical
        if virtual_to_physical is None:
            virtual_to_physical = {v: v for v in range(num_virtual)}
        if sorted(virtual_to_physical) != list(range(num_virtual)):
            raise LayoutError("layout must assign every virtual qubit exactly once")
        images = list(virtual_to_physical.values())
        if len(set(images)) != len(images):
            raise LayoutError("layout is not injective")
        for p in images:
            if not 0 <= p < num_physical:
                raise LayoutError(f"physical qubit {p} out of range")
        # Stored as Python ints whatever the caller passed (placements
        # score with numpy), so routed gates never carry numpy integers.
        self._v2p: List[int] = [
            int(virtual_to_physical[v]) for v in range(num_virtual)
        ]
        self._p2v: List[Optional[int]] = [None] * num_physical
        for v, p in enumerate(self._v2p):
            self._p2v[p] = v

    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, num_virtual: int, num_physical: int) -> "Layout":
        """The identity placement ``q_i -> Q_i`` (the paper's trivial mapper)."""
        return cls(num_virtual, num_physical)

    def copy(self) -> "Layout":
        clone = Layout.__new__(Layout)
        clone.num_virtual = self.num_virtual
        clone.num_physical = self.num_physical
        clone._v2p = list(self._v2p)
        clone._p2v = list(self._p2v)
        return clone

    # ------------------------------------------------------------------
    def physical(self, virtual: int) -> int:
        """Physical position currently holding virtual qubit ``virtual``."""
        try:
            return self._v2p[virtual]
        except IndexError:
            raise LayoutError(f"virtual qubit {virtual} out of range") from None

    def virtual(self, physical: int) -> Optional[int]:
        """Virtual qubit at physical position, or ``None`` when free."""
        if not 0 <= physical < self.num_physical:
            raise LayoutError(f"physical qubit {physical} out of range")
        return self._p2v[physical]

    def is_free(self, physical: int) -> bool:
        return self.virtual(physical) is None

    def as_dict(self) -> Dict[int, int]:
        """Snapshot ``{virtual: physical}`` (used in results/verification)."""
        return {v: p for v, p in enumerate(self._v2p)}

    # ------------------------------------------------------------------
    def swap_physical(self, a: int, b: int) -> None:
        """Exchange whatever sits on physical qubits ``a`` and ``b``.

        This is exactly the effect of a SWAP gate on the chip; free
        positions participate (their ``None`` moves).
        """
        if not 0 <= a < self.num_physical or not 0 <= b < self.num_physical:
            raise LayoutError(f"swap ({a},{b}) leaves the physical register")
        va, vb = self._p2v[a], self._p2v[b]
        self._p2v[a], self._p2v[b] = vb, va
        if va is not None:
            self._v2p[va] = b
        if vb is not None:
            self._v2p[vb] = a

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return (
            self.num_virtual == other.num_virtual
            and self.num_physical == other.num_physical
            and self._v2p == other._v2p
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Layout {self.as_dict()} on {self.num_physical} physical>"
