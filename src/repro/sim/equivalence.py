"""Equivalence checking: the compiler's correctness oracle.

Mapping relocates virtual qubits onto physical ones and moves them around
with SWAPs, so a mapped circuit is only expected to equal the original
*up to that relocation*.  :func:`verify_mapping` checks exactly this
contract: with virtual qubit ``v`` loaded at physical ``initial_layout[v]``
and read out from ``final_layout[v]``, the mapped circuit must act on
states like the original circuit (global phase excepted), with all
unassigned physical qubits returned to |0>.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuit import Circuit
from ..telemetry import metrics as telemetry_metrics
from ..telemetry import tracing
from ..telemetry.tracing import span
from .statevector import random_product_states, run_batched
from .unitary import circuit_unitary

__all__ = [
    "allclose_up_to_global_phase",
    "circuits_equivalent",
    "verify_mapping",
]


def allclose_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, atol: float = 1e-8
) -> bool:
    """True when ``a == exp(i phi) * b`` for some phase ``phi``."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    if a.shape != b.shape:
        return False
    index = int(np.argmax(np.abs(b)))
    if abs(b[index]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = a[index] / b[index]
    magnitude = abs(phase)
    if abs(magnitude - 1.0) > max(atol, 1e-6):
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def circuits_equivalent(
    first: Circuit, second: Circuit, atol: float = 1e-8
) -> bool:
    """Exact unitary equivalence (up to global phase) of two circuits.

    Both circuits must have the same register size and be measurement
    free.  Intended for small circuits (the unitary is built densely).
    """
    if first.num_qubits != second.num_qubits:
        return False
    u1 = circuit_unitary(first.without_directives())
    u2 = circuit_unitary(second.without_directives())
    return allclose_up_to_global_phase(u1, u2, atol=atol)


def _embed_states(
    states: np.ndarray,
    num_physical: int,
    layout: Dict[int, int],
    num_virtual: int,
) -> np.ndarray:
    """Tensor virtual states into a physical register (rest |0>).

    ``states`` carries ``num_virtual`` trailing qubit axes, preceded by
    any number of leading batch axes; qubit axis ``v`` is placed at
    physical axis ``layout[v]``.  The fillers are written as one zero
    allocation plus a single slice assignment (the |0> component holds
    the virtual state, every other filler component is zero), replacing
    the per-filler ``tensordot`` loop this used to run.
    """
    lead = states.ndim - num_virtual
    fillers = num_physical - num_virtual
    embedded = np.zeros(states.shape + (2,) * fillers, dtype=complex)
    embedded[(Ellipsis,) + (0,) * fillers] = states
    # Axis order now: batch axes, virtual 0..n-1, then the fresh |0>
    # qubits.  Build the permutation sending axis v -> layout[v] and
    # fillers to the free physical slots in increasing order.
    assigned = set(layout[v] for v in range(num_virtual))
    free = [p for p in range(num_physical) if p not in assigned]
    destination = [layout[v] + lead for v in range(num_virtual)]
    destination += [p + lead for p in free]
    return np.moveaxis(embedded, range(lead, lead + num_physical), destination)


def verify_mapping(
    original: Circuit,
    mapped: Circuit,
    initial_layout: Dict[int, int],
    final_layout: Dict[int, int],
    trials: int = 3,
    seed: Optional[int] = 1234,
    atol: float = 1e-7,
) -> bool:
    """Check that a mapped circuit faithfully implements the original.

    All trials run through two batched, gate-fused simulations (one per
    circuit).  The inputs are the same seeded draws a trial-by-trial loop
    makes, so a seeded call returns the verdict of the serial reference
    :func:`repro.fuzz.reference.reference_verify`.

    Parameters
    ----------
    original:
        The pre-mapping circuit on ``n`` virtual qubits.
    mapped:
        The post-mapping circuit on ``m >= n`` physical qubits
        (measurement free; directives are dropped before comparison).
    initial_layout / final_layout:
        Virtual-to-physical assignments before and after execution.
    trials:
        Number of random product-state inputs.  Product states span the
        full Hilbert space, so ``trials`` successes certify unitary
        equality up to numerical tolerance with overwhelming probability.

    Returns
    -------
    bool
        True when every trial matches up to global phase.
    """
    with span(
        "oracle.verify",
        trials=max(1, trials),
        qubits=mapped.num_qubits,
    ) as sp:
        verdict = _verify_mapping_impl(
            original,
            mapped,
            initial_layout,
            final_layout,
            trials=trials,
            seed=seed,
            atol=atol,
        )
        sp.set("verdict", verdict)
    if tracing.is_enabled():
        labels = {"verdict": "pass" if verdict else "fail"}
        telemetry_metrics.counter("oracle_checks", **labels).inc()
        telemetry_metrics.histogram(
            "oracle_trials", buckets=(1, 2, 3, 5, 8, 13, 21), **labels
        ).observe(max(1, trials))
    return verdict


def _check_layouts(
    num_virtual: int,
    num_physical: int,
    initial_layout: Dict[int, int],
    final_layout: Dict[int, int],
) -> None:
    """Reject registers and layouts the oracle cannot compare."""
    if num_physical < num_virtual:
        raise ValueError("mapped circuit has fewer qubits than the original")
    for name, layout in (("initial", initial_layout), ("final", final_layout)):
        images = [layout[v] for v in range(num_virtual)]
        if len(set(images)) != len(images):
            raise ValueError(f"{name} layout is not injective")
        if any(not 0 <= p < num_physical for p in images):
            raise ValueError(f"{name} layout leaves the physical register")


def _verify_mapping_impl(
    original: Circuit,
    mapped: Circuit,
    initial_layout: Dict[int, int],
    final_layout: Dict[int, int],
    trials: int,
    seed: Optional[int],
    atol: float,
) -> bool:
    num_virtual = original.num_qubits
    num_physical = mapped.num_qubits
    _check_layouts(num_virtual, num_physical, initial_layout, final_layout)
    original = original.without_directives()
    mapped = mapped.without_directives()
    rng = np.random.default_rng(seed)
    trials = max(1, trials)
    virtual_in = random_product_states(num_virtual, trials, rng)
    virtual_out = run_batched(original, virtual_in)
    physical_in = _embed_states(
        virtual_in, num_physical, initial_layout, num_virtual
    )
    physical_out = run_batched(mapped, physical_in)
    expected = _embed_states(
        virtual_out, num_physical, final_layout, num_virtual
    )
    return all(
        allclose_up_to_global_phase(physical_out[t], expected[t], atol=atol)
        for t in range(trials)
    )
