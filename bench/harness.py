"""Run one workload in this process; the last stdout line is its result.

``bench/run.py`` starts one of these per workload, so every workload
begins in a fresh interpreter.  With ``--setup-probe`` the process only
builds the program's ready state for a workload and prints ``ready``;
the parent times a few of those cold starts for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import common

common.use_source_tree()

#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def setup_probe(workload: str) -> None:
    """Import the program and bring it to the point of serving work."""
    import repro  # noqa: F401 - the import is part of set-up
    from repro.compiler.mapper import sabre_mapper, trivial_mapper
    from repro.hardware import resolve_device
    from repro.service import CompilationService

    if workload.endswith("-sweep"):
        resolve_device(common.DEVICE)
        (trivial_mapper if workload == "paper-sweep" else sabre_mapper)()
        print("ready", flush=True)
        return
    service = CompilationService(workers=common.WORKERS, devices=(common.DEVICE,))
    service.start()
    print("ready", flush=True)
    service.stop()


def measure_setup(workload: str) -> list:
    """Seconds from launching a fresh interpreter to its ``ready`` line."""
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", workload],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - began)
        proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return times


def emit(result: common.Result, trace: bool, args) -> None:
    """Print every declared metric of this mode, then the result line."""
    kind = "per_layer" if trace else "end_to_end"
    table = common.metric_table()
    metrics = {}
    idle = []
    for name, entry in table.items():
        if entry["kind"] != kind:
            continue
        if name in result.values:
            value = result.values[name]
        elif kind == "per_layer":
            value = 0.0  # a layer this workload never reaches: no events
            idle.append(name)
        else:
            result.check(False, f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
        spread = result.spreads.get(name)
        extra = f"  (q1 {spread[0]:.6g}, q3 {spread[1]:.6g}, n={spread[2]:.0f})" if spread else ""
        print(f"{result.workload:14s} {name:36s} {value:14.6g} {entry['unit']}{extra}")
    if "digest" in result.details:
        print(f"{result.workload:14s} digest {result.details['digest']}")
    for problem in result.problems:
        print(f"{result.workload:14s} CHECK FAILED: {problem}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": result.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "smoke": args.smoke,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "values": result.values,
        "spreads": result.spreads,
        "not_exercised": idle,
        "problems": result.problems,
        **result.details,
    }
    suffix = "trace" if trace else "result"
    (out / f"{result.workload}.{suffix}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    line = {
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }
    print(json.dumps(line, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-probe", choices=common.WORKLOADS)
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=False)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--plant-fault", choices=("", "record", "payload"), default="")
    parser.add_argument("--out", default=str(common.DEFAULT_OUT))
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required")

    import serving
    import sweeps

    trace = bool(args.trace)
    setup = [] if trace else measure_setup(args.workload)
    module = sweeps if args.workload in sweeps.SWEEPS else serving
    result = module.run(args.workload, args.seed, args.seconds, trace, args.smoke, args.plant_fault, Path(args.out))
    if setup:
        result.put("setup_s", common.median(setup), setup)
    emit(result, trace, args)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
