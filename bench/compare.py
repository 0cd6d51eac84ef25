"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python bench/compare.py A1.json A2.json ... --vs B1.json B2.json ...

Each file is a per-run report that ``bench/run.py`` writes to
``<out>/<workload>.result.json`` (or ``.trace.json``); copy them aside
between runs.  ``A`` is the parent, ``B`` the change.  For every
(metric, workload) pair the table shows each side's median and
quartiles and, for end-to-end metrics, a verdict against the bound and
direction declared in ``BENCHMARK.json``:

* ``unchanged``: the median moved by at most the bound;
* ``worse`` / ``better``: the median moved the wrong / right way by more
  than the bound and, when the parent's own quartile spread is wider
  than the bound, every B run is past every A run in that direction;
* ``unresolved``: the median moved by more than the bound but the runs
  overlap.

The quality bounds leave room for the spread between seeds, so the
table ends with every (workload, seed) whose runs differ in their output
digest: there the program computed something else, even when no quality
row reads ``worse``.  The exit status is 1 when any pair reads
``worse``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import metric_table, quartiles  # noqa: E402


def load(paths: Sequence[str], side: str, digests: Dict[tuple, Dict[str, str]]):
    """``{workload: {metric: [value per run]}}``; also files each run's
    output digest under ``(workload, seed, smoke, trace)`` in ``digests``."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, value in report["values"].items():
            runs[report["workload"]][name].append(float(value))
        if "digest" in report:
            key = (report["workload"], report["seed"], report["smoke"], report["trace"])
            digests.setdefault(key, {}).setdefault(report["digest"], side)
    return runs


def verdict(entry: dict, base: List[float], head: List[float]) -> str:
    if "bound" not in entry:
        return "-"
    sign = 1 if entry["better"] == "lower" else -1
    q1, med, q3 = quartiles(base)
    if med == 0:
        return "unresolved"
    worse = sign * (quartiles(head)[1] - med) / abs(med)
    if abs(worse) <= entry["bound"]:
        return "unchanged"
    if (q3 - q1) / abs(med) > entry["bound"]:
        # The parent alone spreads wider than the bound: the move counts
        # only if every run of the change is past every run of the parent.
        cost_base, cost_head = [sign * v for v in base], [sign * v for v in head]
        if worse > 0 and min(cost_head) <= max(cost_base):
            return "unresolved"
        if worse < 0 and max(cost_head) >= min(cost_base):
            return "unresolved"
    return "worse" if worse > 0 else "better"


def compare(base_paths: Sequence[str], head_paths: Sequence[str]):
    """Rows of the table, and every ``(workload, seed, smoke, trace)`` whose runs
    differ in output digest, with the side each digest came from."""
    table = metric_table()
    digests: Dict[tuple, Dict[str, str]] = {}
    base, head = load(base_paths, "A", digests), load(head_paths, "B", digests)
    rows = []
    for name, entry in table.items():
        for workload in sorted(set(base) | set(head)):
            a, b = base[workload].get(name), head[workload].get(name)
            if not a or not b:
                continue
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "unit": entry["unit"],
                    "base": quartiles(a),
                    "head": quartiles(b),
                    "runs": (len(a), len(b)),
                    "verdict": verdict(entry, a, b),
                }
            )
    differing = {key: seen for key, seen in sorted(digests.items()) if len(seen) > 1}
    return rows, differing


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--vs" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--vs")
    base_paths, head_paths = argv[:split], argv[split + 1 :]
    if not base_paths or not head_paths:
        print("need at least one report on each side of --vs", file=sys.stderr)
        return 2
    rows, differing = compare(base_paths, head_paths)
    print(f"{'metric':36s} {'workload':14s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s}  verdict")
    for row in rows:
        a, b = row["base"], row["head"]
        print(
            f"{row['metric']:36s} {row['workload']:14s} "
            f"{a[1]:12.6g} [{a[0]:9.4g}, {a[2]:9.4g}] "
            f"{b[1]:12.6g} [{b[0]:9.4g}, {b[2]:9.4g}]  {row['verdict']}"
        )
    for (workload, seed, smoke, trace), seen in differing.items():
        mode = " (smoke)" * smoke + " (traced)" * trace
        sides = ", ".join(f"{side} {digest[:12]}" for digest, side in seen.items())
        print(f"outputs differ: {workload} seed {seed}{mode}: {sides}")
    return int(any(row["verdict"] == "worse" for row in rows))


if __name__ == "__main__":
    sys.exit(main())
