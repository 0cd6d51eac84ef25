# Developer entry points.  The package is laid out under src/, so every
# target exports PYTHONPATH=src rather than requiring an install.

PY ?= python

.PHONY: test bench-figures fuzz-smoke trace-smoke resilience-smoke \
	chaos-smoke bench-chaos bench-e2e-smoke

# Tier-1 test suite.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# Differential/metamorphic fuzz gate: first a planted-bug self-test
# (the harness must find and shrink a deliberate router off-by-one),
# then a fixed 200-sample block through the full invariant bank.
# Reproducers for any failure land under results/fuzz/.
fuzz-smoke:
	PYTHONPATH=src $(PY) -m repro.cli fuzz --samples 200 --seed 2022 \
		--self-test --out results/fuzz

# Telemetry smoke gate: traces a 10-circuit suite, validates the
# JSONL/Chrome/Prometheus outputs (expected span names, lossless worker
# merge) and fails when telemetry-on routing overhead exceeds 10%
# (off-first and on-first timing rounds alternate).
trace-smoke:
	PYTHONPATH=src $(PY) benchmarks/bench_telemetry_overhead.py

# Resilience smoke gate: a 20-circuit suite with an injected worker
# SIGKILL and a deadline-expiry fault must still produce a complete,
# annotated report in <10s; then the recovery drill proves every fault
# class (raise/sleep/kill/crash) hits its recovery path, including a
# byte-identical journal resume.
resilience-smoke:
	PYTHONPATH=src $(PY) benchmarks/bench_resilience.py

# Chaos smoke gate: first the planted-violation self-test (a corrupted
# twin payload must be reported, proving the checker can fail), then a
# seeded composed soak (2 worker kills, 1 watchdog-detected hang,
# 1 poison-job quarantine, a 3-delta drift burst and an
# admission-pressure wave over 12 waves) with every invariant green —
# resolve-or-quarantine, byte-identity vs the fault-free twin, exact
# cache counters, epoch pinning, pool recovery — and finally a
# graceful-drain drill (queued jobs journaled to JSONL, typed
# ServiceDraining rejection).
chaos-smoke:
	PYTHONPATH=src $(PY) benchmarks/bench_chaos.py --smoke

# Full chaos soak at workers 1 and 4 plus the drain drill; rewrites the
# committed BENCH_chaos.json (events landed, respawns, invariant
# checks, wall times).
bench-chaos:
	PYTHONPATH=src $(PY) benchmarks/bench_chaos.py

# End-to-end benchmark gate: all four workloads of bench/ (BENCHMARK.json)
# shrunk to a smoke run with every output check on, then the benchmark's
# own tests.
bench-e2e-smoke:
	$(PY) bench/run.py --smoke
	$(PY) -m pytest bench -q

# The paper-figure benchmark harness (slow; full 200-circuit sweep).
bench-figures:
	PYTHONPATH=src $(PY) -m pytest benchmarks -q
