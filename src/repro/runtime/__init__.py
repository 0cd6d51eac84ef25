"""Suite-scale execution runtime.

The paper's evaluation is embarrassingly parallel — 200 independent
circuit-mapping problems — so this package provides the process-level
fan-out used by the experiment harness, the CLI and the benchmark
drivers:

* :mod:`repro.runtime.parallel` — a generic deterministic process pool
  (ordered results, per-item timing and error capture, graceful serial
  fallback when a worker dies).
* :mod:`repro.runtime.suite_runner` — the mapping-suite runner built on
  it, producing :class:`~repro.runtime.suite_runner.SuiteRunReport`.
"""

from .parallel import ItemOutcome, ParallelResult, parallel_map, workers_from_env
from .suite_runner import (
    CircuitFailure,
    CircuitResilience,
    CircuitTiming,
    SuiteRunReport,
    run_suite_parallel,
)

__all__ = [
    "ItemOutcome",
    "ParallelResult",
    "parallel_map",
    "workers_from_env",
    "CircuitFailure",
    "CircuitResilience",
    "CircuitTiming",
    "SuiteRunReport",
    "run_suite_parallel",
]
