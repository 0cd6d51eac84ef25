"""The stack's single timing clock.

Every timing path in the repository — suite wall times, telemetry
spans — reads this module's :func:`now` so the whole stack agrees on
one *monotonic* clock.  ``time.time()`` is wall-clock time and can jump
backwards under NTP adjustment, which silently corrupts durations;
``time.perf_counter()`` is monotonic with the highest available
resolution, which is exactly what span durations and benchmark deltas
need.

:data:`CLOCK_SOURCE` names the clock in exported records so a reader of
a trace file knows what the numbers mean.
"""

from __future__ import annotations

import time

__all__ = ["CLOCK_SOURCE", "now"]

#: Name of the clock backing :func:`now`, surfaced in exported records.
CLOCK_SOURCE = "time.perf_counter"

#: Monotonic high-resolution timestamp in seconds.  Only differences are
#: meaningful; the epoch is arbitrary (process start, typically).
now = time.perf_counter
