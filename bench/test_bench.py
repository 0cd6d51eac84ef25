"""Tests of the benchmark itself; run with ``python -m pytest bench -q``.

Each test drives ``bench/run.py --smoke`` in a subprocess, as a user
would, and reads the per-run reports it writes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import common
import compare

RUN = str(common.BENCH_DIR / "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
DETERMINISTIC = ("gate_overhead_pct_mean", "fidelity_decrease_pct_mean")


def smoke(out: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=300,
    )


def results(proc: subprocess.CompletedProcess) -> list:
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def report(out: Path, workload: str, kind: str = "result") -> dict:
    return json.loads((out / f"{workload}.{kind}.json").read_text())


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    out = tmp_path_factory.mktemp("plain")
    proc = smoke(out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, proc


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc = smoke(out, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, proc


def test_spec_has_exactly_the_contract_keys():
    spec = common.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_length_is_fixed_by_the_spec():
    run_seconds = common.load_spec()["run_seconds"]
    refused = subprocess.run([sys.executable, RUN, "--seconds", str(run_seconds + 1)],
                             capture_output=True, text=True, timeout=60)
    assert refused.returncode != 0 and "run_seconds" in refused.stderr


def test_compare_verdicts_are_symmetric():
    throughput = {"better": "higher", "bound": 0.05}
    noisy = [80.0, 100.0, 120.0]  # quartile spread wider than the bound
    assert compare.verdict(throughput, noisy, [60.0, 65.0, 70.0]) == "worse"
    assert compare.verdict(throughput, noisy, [130.0, 140.0, 150.0]) == "better"
    assert compare.verdict(throughput, noisy, [70.0, 85.0, 125.0]) == "unresolved"
    assert compare.verdict(throughput, noisy, [98.0, 101.0, 103.0]) == "unchanged"
    steady = [99.0, 100.0, 101.0]
    assert compare.verdict(throughput, steady, [90.0, 91.0, 102.0]) == "worse"
    assert compare.verdict(dict(throughput, better="lower"), steady, [90.0, 91.0, 102.0]) == "better"


@pytest.mark.parametrize("fixture, kind", [("plain", "end_to_end"), ("traced", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(request, fixture, kind):
    _, proc = request.getfixturevalue(fixture)
    declared = {m["name"]: m["unit"] for m in common.load_spec()[kind]}
    lines = results(proc)
    assert len(lines) == len(common.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert {name: m["unit"] for name, m in line["metrics"].items()} == declared


def test_same_seed_gives_identical_deterministic_metrics(plain, tmp_path):
    first, _ = plain
    proc = smoke(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in common.WORKLOADS:
        a, b = report(first, workload), report(tmp_path, workload)
        assert a["digest"] == b["digest"], workload
        for name in DETERMINISTIC:
            assert a["values"][name] == b["values"][name], (workload, name)


def test_other_seed_changes_the_inputs(plain, tmp_path):
    first, _ = plain
    proc = smoke(tmp_path, "--workload", "sabre-sweep", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert report(first, "sabre-sweep")["digest"] != report(tmp_path, "sabre-sweep")["digest"]


@pytest.mark.parametrize("workload, fault", [("sabre-sweep", "record"), ("service-hot", "payload")])
def test_planted_wrong_output_is_caught(tmp_path, workload, fault):
    proc = smoke(tmp_path, "--workload", workload, "--plant-fault", fault)
    assert proc.returncode != 0
    assert results(proc)[-1]["correct"] is False
    assert "CHECK FAILED" in proc.stdout


def test_trace_covers_the_layers(traced):
    out, _ = traced
    for workload in common.WORKLOADS:
        values = report(out, workload, "trace")["values"]
        assert values["trace.coverage"] >= 0.95, workload
        assert "trace.overhead_pct" in values
        lines = (out / f"{workload}.trace.jsonl").read_text().splitlines()
        span = json.loads(lines[0])
        assert set(span) == {"id", "name", "start", "end", "parent", "item"}
