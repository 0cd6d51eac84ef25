"""Shared pieces of the end-to-end benchmark: paths, metric table, statistics.

The metric names, units and bounds live in ``BENCHMARK.json`` at the
checkout root; this module reads them so every printed metric carries
the declared unit and a misspelt name fails loudly.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = BENCH_DIR / "out"

#: Default workload seed; ``--seed`` overrides it for every generated input.
DEFAULT_SEED = 2022

#: Worker processes for every pool the benchmark starts (the reference
#: machine has two cores, and the count is program configuration).
WORKERS = 2

#: The device of the paper's Figs. 3 and 5, by registry name.
DEVICE = "surface100"

WORKLOADS = ("paper-sweep", "sabre-sweep", "service-hot", "service-drift")


def content_seed(seed: int, index: int) -> int:
    """Seed for the content of input ``index`` under workload seed ``seed``."""
    import numpy as np

    return int(np.random.default_rng((seed, index)).integers(2**31))


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (no install needed)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def load_spec() -> dict:
    with SPEC_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def metric_table(spec: Optional[dict] = None) -> Dict[str, dict]:
    """Every declared metric by name, end-to-end and per-layer alike."""
    spec = spec if spec is not None else load_spec()
    table = {}
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            table[entry["name"]] = dict(entry, kind=kind)
    return table


# -- statistics -------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, q2, q3 = statistics.quantiles(ordered, n=4)
    return q1, q2, q3


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def median(values: Iterable[float]) -> float:
    ordered = list(values)
    return statistics.median(ordered) if ordered else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Result:
    """Metrics, sample spreads, counts and check outcomes of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.values: Dict[str, float] = {}
        self.spreads: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.details: Dict[str, object] = {}

    def put(self, name: str, value: float, samples: Optional[Sequence[float]] = None) -> None:
        self.values[name] = float(value)
        if samples:
            q1, _, q3 = quartiles(samples)
            self.spreads[name] = [q1, q3, len(samples)]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems
