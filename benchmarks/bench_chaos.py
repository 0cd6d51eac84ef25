"""Chaos soak benchmark + smoke gate for ``repro.chaos``.

Two modes:

**Smoke mode** (``--smoke``, what ``make chaos-smoke`` runs) gates on:

* the planted-violation self-test — a deliberately corrupted twin
  payload *must* be reported, proving the invariant checker can fail;
* a seeded composed soak (2 worker kills, 1 watchdog-detected hang,
  1 poison-job quarantine, 1 three-delta drift burst, 1
  admission-pressure wave over 12 waves) with every end-to-end
  invariant green: all admitted jobs resolve or quarantine, payloads
  byte-identical to the fault-free twin, exact cache counters, epoch
  pinning, pool recovery;
* a graceful-drain drill: ``drain()`` under load journals queued jobs
  to JSONL, rejects new submits with the typed ``ServiceDraining``, and
  finishes in-flight work;
* whole run under :data:`SMOKE_TIME_LIMIT_S`.

**Full mode** (default) runs a larger soak at workers ∈ {1, 4} plus the
drain drill and writes the digest to ``BENCH_chaos.json`` at the
repository root — the committed chaos-resilience record.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--smoke] [--workers N]

Exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import time
from pathlib import Path

from repro.chaos import ChaosPlan, ChaosRunner, run_selftest
from repro.service import (
    CompilationService,
    CompileRequest,
    ServiceDraining,
)
from repro.service.loadgen import build_corpus

#: Smoke soak shape: the ISSUE's ~30s acceptance soak (it runs far
#: faster on an idle host; the limit is the gate, not the target).
SMOKE_SEED = 2022
SMOKE_WAVES = 12
SMOKE_WAVE_SIZE = 6
SMOKE_TIME_LIMIT_S = 90.0

#: Full-mode soak shape.
FULL_WAVES = 16
FULL_WAVE_SIZE = 8

#: Event minimums both modes plant (and assert actually fired).
KILLS, HANGS, POISONS, DRIFTS, PRESSURES = 2, 1, 1, 1, 1

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def _fail(message: str) -> None:
    raise SystemExit(f"chaos-smoke FAILED: {message}")


def _soak(workers: int, device: str, waves: int, wave_size: int) -> dict:
    """One gated soak; returns the report dict after asserting minimums."""
    plan = ChaosPlan.generate(
        device=device,
        seed=SMOKE_SEED,
        waves=waves,
        wave_size=wave_size,
        kills=KILLS,
        hangs=HANGS,
        poisons=POISONS,
        drifts=DRIFTS,
        pressures=PRESSURES,
    )
    report = ChaosRunner(
        plan, device=device, workers=workers, raise_on_violation=False
    ).run()
    label = f"soak(workers={workers})"
    if report.violations:
        _fail(
            f"{label}: {len(report.violations)} invariant violations:\n"
            + "\n".join(f"  {v}" for v in report.violations)
        )
    if report.kills_injected < KILLS:
        _fail(f"{label}: only {report.kills_injected}/{KILLS} kills landed")
    if report.hangs_detected < HANGS:
        _fail(
            f"{label}: watchdog detected {report.hangs_detected}/{HANGS} "
            "planted hangs"
        )
    if report.quarantined != POISONS:
        _fail(
            f"{label}: {report.quarantined} quarantined, expected "
            f"exactly {POISONS}"
        )
    if report.drift_updates != DRIFTS * 3:
        _fail(
            f"{label}: {report.drift_updates} drift updates applied, "
            f"expected {DRIFTS * 3}"
        )
    total_respawns = sum(report.respawns.values())
    if total_respawns < report.kills_injected + report.hangs_detected:
        _fail(
            f"{label}: {total_respawns} respawns for "
            f"{report.kills_injected} kills + {report.hangs_detected} hangs"
        )
    print(
        f"  {label}: {report.requests} requests, "
        f"{report.checks} invariant checks green "
        f"({report.kills_injected} kills, {report.hangs_detected} hangs, "
        f"{report.quarantined} quarantined, {total_respawns} respawns, "
        f"wall {report.wall_s:.2f}s)"
    )
    return report.to_dict()


def _drain_drill(workers: int, device: str) -> dict:
    """drain() under load: journal queued jobs, typed rejection, stop."""
    corpus = build_corpus(8, seed=7)
    journal = Path(tempfile.mkdtemp(prefix="repro-drain-")) / "journal.jsonl"
    service = CompilationService(workers=workers, devices=(device,))
    service.start()
    # Enough distinct circuits that some are still queued when drain
    # lands; the deadline guarantees in-flight work finishes first.
    jobs = [
        service.submit(CompileRequest(circuit=c, device=device))
        for c in corpus
    ]
    drained = {}
    rejected = {}

    def _drain() -> None:
        drained["report"] = service.drain(deadline_s=30.0, journal=journal)

    thread = threading.Thread(target=_drain)
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if service.stats()["draining"]:
            break
        time.sleep(0.005)
    else:
        _fail("drain drill: service never entered the draining state")
    try:
        service.submit(CompileRequest(circuit=corpus[0], device=device))
    except ServiceDraining:
        rejected["typed"] = True
    except Exception as exc:  # noqa: BLE001 - gate on the exact type
        _fail(
            "drain drill: submit during drain raised "
            f"{type(exc).__name__}, expected ServiceDraining"
        )
    else:
        _fail("drain drill: submit during drain was accepted")
    thread.join(timeout=60.0)
    report = drained.get("report")
    if report is None:
        _fail("drain drill: drain() did not return")
    resolved = 0
    for job in jobs:
        try:
            job.result(timeout=1.0)
            resolved += 1
        except Exception:  # noqa: BLE001 - journaled jobs fail typed
            pass
    journaled = 0
    if journal.exists():
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line
        ]
        journaled = len(lines)
        for line in lines:
            if "qasm" not in line or "seq" not in line:
                _fail(f"drain drill: malformed journal line {line}")
    if journaled != report.journaled:
        _fail(
            f"drain drill: journal has {journaled} lines, report says "
            f"{report.journaled}"
        )
    if resolved + report.journaled < len(jobs):
        _fail(
            f"drain drill: {resolved} resolved + {report.journaled} "
            f"journaled < {len(jobs)} submitted"
        )
    print(
        f"  drain drill: {resolved} in-flight finished, "
        f"{report.journaled} queued jobs journaled to JSONL, typed "
        f"ServiceDraining rejection, wall {report.wall_s:.2f}s"
    )
    return {
        "resolved": resolved,
        "journaled": report.journaled,
        "typed_rejection": rejected.get("typed", False),
        "deadline_hit": report.deadline_hit,
    }


def _smoke(workers: int, device: str) -> None:
    start = time.perf_counter()
    selftest = run_selftest(device=device, workers=1, seed=97)
    print(
        "  self-test: planted payload corruption caught "
        f"({len(selftest.violations)} violation reported)"
    )
    _soak(workers, device, SMOKE_WAVES, SMOKE_WAVE_SIZE)
    _drain_drill(workers, device)
    elapsed = time.perf_counter() - start
    if elapsed > SMOKE_TIME_LIMIT_S:
        _fail(
            f"smoke took {elapsed:.2f}s (limit {SMOKE_TIME_LIMIT_S:.0f}s)"
        )
    print(f"chaos-smoke ok: selftest + soak + drain drill in {elapsed:.2f}s")
    print("chaos-smoke passed")


def _full(workers: int, device: str) -> None:
    del workers  # full mode fixes the worker counts it records
    start = time.perf_counter()
    run_selftest(device=device, workers=1, seed=97)
    summary = {
        "seed": SMOKE_SEED,
        "device": device,
        "selftest_caught_planted_violation": True,
        "soak": {
            str(n): _soak(n, device, FULL_WAVES, FULL_WAVE_SIZE)
            for n in (1, 4)
        },
        "drain_drill": _drain_drill(2, device),
    }
    summary["wall_s"] = round(time.perf_counter() - start, 3)
    OUTPUT.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast gated run (self-test + composed soak + drain drill)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="warm worker processes for the smoke soak (default 2)",
    )
    parser.add_argument("--device", default="surface7")
    args = parser.parse_args(argv)
    if args.smoke:
        _smoke(args.workers, args.device)
    else:
        _full(args.workers, args.device)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
