"""End-to-end benchmark of the compilation stack: four named workloads.

Usage::

    python bench/run.py [--workload NAME ...] [--seed N] [--trace [0|1]] [--smoke]

Each workload runs in a fresh interpreter (``bench/harness.py``) and
measures for ``run_seconds`` from ``BENCHMARK.json``.  With
``--trace 0`` (the default) a run prints every end-to-end metric by name
with its unit; with ``--trace 1`` it prints the per-layer metrics and
writes ``<out>/<workload>.trace.jsonl``.  Outputs are checked outside
the timed region and any failed check makes the exit status non-zero.
The last stdout line is the last workload's result as one JSON object.
``--smoke`` shrinks every workload so that all four finish in about a
minute.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

#: Hard limit on one workload's process.
WORKLOAD_TIMEOUT_S = 175
SMOKE_SECONDS = 2.0


def run_workload(name: str, args) -> int:
    command = [
        sys.executable,
        str(BENCH_DIR / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.plant_fault:
        command += ["--plant-fault", args.plant_fault]
    # A session of its own, so a timeout can take the pool workers down
    # with the workload process.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"{name}: timed out after {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:  # interrupted: stop the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=common.WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    # The command line BENCHMARK.json declares is called with
    # ``--seconds <run_seconds>``; no other length is accepted.
    parser.add_argument("--seconds", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(common.DEFAULT_OUT),
                        help="directory for traces and per-run reports")
    parser.add_argument("--plant-fault", choices=("record", "payload"), default="",
                        help=argparse.SUPPRESS)  # proves the output checks can fail
    args = parser.parse_args(argv)
    run_seconds = float(common.load_spec()["run_seconds"])
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must be run_seconds from BENCHMARK.json ({run_seconds:g})")
    args.seconds = SMOKE_SECONDS if args.smoke else run_seconds
    status = 0
    for name in args.workload or common.WORKLOADS:
        sys.stdout.flush()
        status |= run_workload(name, args) != 0
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
