"""The two service workloads: a cache-hot stream and a drifting cold stream.

Both drive one ``CompilationService(workers=2)`` on the 100-qubit device
from this process: an open loop first (requests sent on a fixed schedule,
each timed from when it was due), then a closed loop (a fixed window of
outstanding requests, oldest first).  Latency comes from the open loop,
throughput from the closed loop.

``service-drift`` applies one ``DriftPlan`` update before every 40th
request, counted over the whole stream, so each request's admission
epoch is a function of its index alone and the output check can rebuild
the device it was compiled against.
"""

from __future__ import annotations

import collections
import ctypes
import os
import random
import sys
import threading
import time
from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import accumulate
from typing import Dict, List, Optional

from repro.hardware import resolve_device
from repro.hardware.drift import CalibrationStream, DriftPlan
from repro.service import CompilationService
from repro.service.jobs import PRIORITY_CLASSES, CompileRequest, Job, ServiceError
from repro.service.loadgen import build_corpus
from repro.service.queue import AdmissionError
from repro.service.workers import WarmWorkerPool, compute_payload
import repro.service.service as service_mod

import checks
import spans
from common import DEFAULT_SEED, DEVICE, WORKERS, Result, content_seed, median, peak_rss_mb, percentile

now = time.perf_counter

#: Per-workload traffic.  ``rate`` is the open-loop arrival rate (req/s),
#: ``window`` the closed loop's outstanding requests, ``slo_ms`` the
#: latency limit a request must meet to count as attained.
#: ``best_segment`` reports the closed loop's fastest segment as its
#: throughput instead of the median segment.
#:
#: ``service-drift`` arrives at 40 req/s, not 80.  Its closed-loop
#: capacity on the two-CPU reference host was 82-115 req/s, so 80 req/s
#: is 70-98% load: over seeds 101-104 its open-loop p99 ran from 0.13 to
#: 1.8 s and one run in four ended with 38 requests still queued, which
#: the validity check rejects.  That measures a queue that is still
#: growing, not the service.  At 40 req/s (35-50% load) the queue stays
#: short and the latencies describe compile, dispatch and drift cost.
SERVICES: Dict[str, dict] = {
    # Every measured request hits the cache (the corpus is prefilled), so
    # admission, the queue, the cache lookup and thread handoffs do all
    # the work.  Zipf(s=1) picks over 64 circuits.  The turns the client,
    # dispatcher and collector threads settle into differ from one
    # service instance to the next, moving this path's latency by up to a
    # third, so an untraced run restarts the service four times and pools
    # the samples.  Its threads share one CPU, whose speed on the shared
    # host halves for seconds at a time, and every closed-loop segment
    # does the same work (cache hits); so, as ``timeit`` takes the
    # fastest repeat, the run reports its best segment.  In two ten-seed
    # sets that cut the throughput spread from 0.50 to 0.22 and from 0.41
    # to 0.30.
    "service-hot": {
        "mapper": "sabre", "corpus": 64, "max_qubits": 10, "picks": "zipf",
        "rate": 4000.0, "window": 48, "slo_ms": 2.0, "drift_every": 0,
        "prefill": True, "instances": 4, "best_segment": True,
    },
    # Uniform picks over 192 circuits with the epoch moving every 40
    # requests: nearly every request compiles on a warm worker while
    # calibration writes interleave with reads.  Each cycle of 192
    # requests serves every circuit once, in an order shuffled by the
    # seed; drawn with replacement, the circuits a run happened to serve
    # moved mean fidelity decrease by 3.8% over ten seeds (1.2%
    # shuffled).  A window of 4 keeps priority reordering from stalling
    # the oldest-first client.
    "service-drift": {
        "mapper": "noise-aware", "corpus": 192, "max_qubits": 12, "picks": "shuffled",
        "rate": 40.0, "window": 4, "slo_ms": 50.0, "drift_every": 40,
        "prefill": False, "instances": 1, "best_segment": False,
    },
}
#: Calibration updates drawn for the drift stream; a 20-s run uses about 40.
DRIFT_UPDATES = 400
SMOKE_CORPUS = 16
#: Open-loop validity: generator lateness and end-of-loop backlog limits.
#: The generator shares the interpreter lock and a CPU with the service's
#: own threads, so a send can wait behind them.  That wait is the
#: service's and counts in the request's latency, which is timed from its
#: due time.  The generator has fallen behind only when the p99 send is
#: later than both two switch intervals (a woken thread waits up to one
#: for the lock) and one inter-arrival gap (a send within the gap still
#: leaves before its successor is due, keeping the arrival rate and
#: order).  At 40 req/s the drift stream's p99 lateness was 0.3-4.9 ms in
#: 57 of 60 runs, and 8.6, 11.7 and 22.4 ms in slow phases of the host.
MAX_LAG_P99_MS = 2e3 * sys.getswitchinterval()
BACKLOG_SECONDS = 0.05
#: Requests replayed through an inline (workers=0) service under the
#: compiler probes, for the compile-layer breakdown.
REPLAY_REQUESTS = 48
CLOSED_SEGMENTS = 20
RESULT_TIMEOUT_S = 120.0
PR_SET_TIMERSLACK = 29


class Stream:
    """The seeded request stream, applying drift updates as it goes."""

    def __init__(self, name: str, seed: int, smoke: bool, part: int = 0) -> None:
        config = SERVICES[name]
        seed = content_seed(seed, part)  # one independent stream per service instance
        self.config = config
        size = SMOKE_CORPUS if smoke else config["corpus"]
        # The corpus (the service's catalogue) and the drift plan (the
        # device's calibration history) stay fixed; ``seed`` drives the
        # traffic over them: picks and priorities.  Drawn from the seed,
        # the corpus moved compile cost and mapping quality by a fifth,
        # and the drift trajectory moved mean gate overhead by 18%
        # (eight seeds, IQR over median), swamping the program.
        self.corpus = build_corpus(size, DEFAULT_SEED, 4, config["max_qubits"])
        self._cumulative = list(accumulate(1.0 / (rank + 1) for rank in range(size)))
        self._rng = random.Random(seed)
        self._cycle: List[int] = []
        self.sent = 0
        self.epoch = 0
        self.plan: Optional[DriftPlan] = None
        if config["drift_every"]:
            self.plan = DriftPlan.generate(resolve_device(DEVICE), DRIFT_UPDATES, seed=DEFAULT_SEED)
        self.drift_ms: List[float] = []

    def request(self, circuit) -> CompileRequest:
        priority = PRIORITY_CLASSES[self._rng.randrange(len(PRIORITY_CLASSES))]
        return CompileRequest(circuit=circuit, device=DEVICE, mapper=self.config["mapper"], priority=priority)

    def next(self, service: CompilationService) -> CompileRequest:
        """The next request; applies the due drift update first."""
        every = self.config["drift_every"]
        if every and self.sent % every == 0:
            began = now()
            service.apply_drift(self.plan.updates[self.epoch], device=DEVICE)
            self.drift_ms.append(1e3 * (now() - began))
            self.epoch += 1
        self.sent += 1
        return self.request(self.corpus[self._pick()])

    def _pick(self) -> int:
        if self.config["picks"] == "zipf":
            pick = bisect_left(self._cumulative, self._rng.random() * self._cumulative[-1])
            return min(pick, len(self.corpus) - 1)
        if not self._cycle:
            self._cycle = list(range(len(self.corpus)))
            self._rng.shuffle(self._cycle)
        return self._cycle.pop()


class Sent:
    """One submitted request and what became of it."""

    __slots__ = ("request", "epoch", "due", "job", "latency_ms", "payload")

    def __init__(self, request, epoch, due) -> None:
        self.request, self.epoch, self.due = request, epoch, due
        self.job: Optional[Job] = None
        self.latency_ms: Optional[float] = None
        self.payload: Optional[bytes] = None


def _submit(service, stream: Stream, due: float, result: Result) -> Sent:
    request = stream.next(service)
    sent = Sent(request, stream.epoch, due)
    result.attempted += 1
    try:
        sent.job = service.submit(request)
    except (AdmissionError, ServiceError):
        result.failed += 1
    return sent


def _collect(sent: Sent, result: Result) -> Optional[float]:
    """Wait for one request and drop its job; returns its resolve time."""
    job, sent.job = sent.job, None
    if job is None:
        return None
    try:
        response = job.result(timeout=RESULT_TIMEOUT_S)
    except ServiceError:
        result.failed += 1
        return None
    resolved = job.submitted_s + response.elapsed_s
    sent.latency_ms = 1e3 * (resolved - sent.due)
    sent.payload = response.payload
    result.check(job.epoch == sent.epoch, f"job {job.seq} admitted at epoch {job.epoch}, expected {sent.epoch}")
    return resolved


def precise_sleep() -> None:
    """Let this thread's ``time.sleep`` wake on time.

    Linux lets a sleep overshoot by the thread's timer slack, 50 us by
    default: a quarter of a cache hit's latency, which the open loop would
    count against the service.
    """
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # not Linux: keep the default
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)


def open_loop(service, stream: Stream, seconds: float, result: Result) -> dict:
    """Send ``rate`` requests per second on schedule for ``seconds``."""
    precise_sleep()
    rate = stream.config["rate"]
    count = max(1, int(rate * seconds))
    start = now() + 0.01
    lags, batch = [], []
    pending = collections.deque()
    for index in range(count):
        due = start + index / rate
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        lags.append(1e3 * (now() - due))
        sent = _submit(service, stream, due, result)
        batch.append(sent)
        pending.append(sent)
        # Collect finished requests as we go, so finished jobs do not pile
        # up and lengthen garbage-collector pauses in the service.
        while pending and (pending[0].job is None or pending[0].job.done):
            _collect(pending.popleft(), result)
    backlog = sum(1 for s in pending if s.job is not None and not s.job.done)
    while pending:
        _collect(pending.popleft(), result)
    latencies = [s.latency_ms for s in batch if s.latency_ms is not None]
    slo = stream.config["slo_ms"]
    return {
        "sent": batch,
        "latencies": latencies,
        "lags": lags,
        "backlog_end": backlog,
        "attained": sum(1 for v in latencies if v <= slo),
    }


def closed_loop(
    service, stream: Stream, seconds: float, segments: int, result: Result, wakeups: List[float]
) -> List[float]:
    """Requests per second in each of ``segments`` equal segments; appends
    each answer's client wake-up delay (us) to ``wakeups``."""
    window = stream.config["window"]
    outstanding = collections.deque()
    rates = []
    segment = seconds / segments
    while len(rates) < segments:
        began, done = now(), 0
        while now() - began < segment:
            while len(outstanding) < window:
                outstanding.append(_submit(service, stream, now(), result))
            sent = outstanding.popleft()
            resolved = _collect(sent, result)
            if resolved is not None:
                done += 1
                wakeups.append(1e6 * (now() - resolved))
        rates.append(done / (now() - began))
    for sent in outstanding:
        _collect(sent, result)
    return rates


# -- traced pooled run -------------------------------------------------------
@contextmanager
def service_probes(service: CompilationService, marks: Dict[int, dict]):
    """Timestamp every job at the service's layer boundaries, by ``Job.seq``."""
    dispatcher = threading.local()

    def mark(seq, key, value):
        if seq is not None:  # a job popped before the probes went in
            marks.setdefault(seq, {})[key] = value

    def around(key, seq_of):
        def make(original):
            def wrapper(*args, **kwargs):
                began = now()
                out = original(*args, **kwargs)
                mark(seq_of(args, out), key, (began, now()))
                return out
            return wrapper
        return make

    def pop(original):
        def wrapper(*args, **kwargs):
            job = original(*args, **kwargs)
            if job is not None:
                dispatcher.seq = job.seq
                mark(job.seq, "pop", now())
            return job
        return wrapper

    def poll(original):
        def wrapper(*args, **kwargs):
            messages = original(*args, **kwargs)
            received = now()
            for message in messages:
                if message[0] == "done":
                    mark(message[2], "recv", received)
            return messages
        return wrapper

    def resolve(original):
        def wrapper(self, response):
            mark(self.seq, "resolve", now())
            return original(self, response)
        return wrapper

    puts: List[float] = []

    def put(original):
        def wrapper(*args, **kwargs):
            began = now()
            out = original(*args, **kwargs)
            puts.append(now() - began)
            return out
        return wrapper

    probes = [
        (CompilationService, "submit", around("submit", lambda a, out: out.seq)),
        (service.queue, "push", around("push", lambda a, out: a[0].seq)),
        (service.queue, "pop", pop),
        (service.cache, "get", around("get", lambda a, out: getattr(dispatcher, "seq", None))),
        (service.cache, "put", put),
        (WarmWorkerPool, "submit", around("dispatch", lambda a, out: a[2])),
        (WarmWorkerPool, "poll_messages", poll),
        (Job, "resolve", resolve),
    ]
    with ExitStack() as stack:
        for owner, attr, make in probes:
            stack.enter_context(spans.patched(owner, attr, make))
        yield puts


def request_spans(tracer: spans.Tracer, marks: Dict[int, dict]) -> dict:
    """Turn per-job timestamps into contiguous layer spans under one
    ``service.request`` root each; returns per-layer samples."""
    samples = collections.defaultdict(list)
    for seq, m in sorted(marks.items()):
        if "submit" not in m or "resolve" not in m or "pop" not in m:
            continue
        root = tracer.add("service.request", m["submit"][0], m["resolve"], item=seq)
        cursor = m["submit"][0]

        def layer(name, end, start=None):
            nonlocal cursor
            begin = cursor if start is None else max(start, cursor)
            end = max(end, begin)
            tracer.add(name, begin, end, parent=root, item=seq)
            cursor = end
            return end - begin

        samples["admit"].append(layer("service.admit", m["submit"][1]))
        if "push" in m:
            tracer.add("service.queue.push", *m["push"], parent=root, item=seq)
            samples["queue"].append(layer("service.queue.wait", m["pop"], m["push"][1]))
        if "get" in m:
            samples["get"].append(layer("service.cache.get", m["get"][1], m["get"][0]))
        if "dispatch" in m and "recv" in m:
            samples["idle"].append(layer("service.workers.idle_wait", m["dispatch"][0]))
            samples["dispatch"].append(layer("service.workers.dispatch", m["dispatch"][1]))
            samples["roundtrip"].append(layer("service.workers.roundtrip", m["recv"]))
        layer("service.finish", m["resolve"])
    return samples


def replay_inline(name: str, seed: int, smoke: bool, tracer: spans.Tracer) -> None:
    """Replay the head of the stream through a ``workers=0`` service under
    the compiler probes: compute happens on the dispatcher thread."""
    stream = Stream(name, seed, smoke)
    scratch = Result(name)
    with CompilationService(workers=0, devices=(DEVICE,)) as inline:
        with spans.compile_probes(tracer, root=(service_mod, "compute_payload")):
            for _ in range(REPLAY_REQUESTS):
                _collect(_submit(inline, stream, now(), scratch), scratch)


# -- the workload --------------------------------------------------------------
def _prefill(service, stream: Stream, result: Result) -> None:
    """Compile every corpus circuit once (untimed) so the stream only hits."""
    batch = [service.submit(stream.request(circuit)) for circuit in stream.corpus]
    result.attempted += len(batch)
    for job in batch:
        try:
            job.result(timeout=RESULT_TIMEOUT_S)
        except ServiceError:
            result.failed += 1


def _reference(stream: Stream):
    """``compute_payload`` against the device as of a given epoch."""
    pristine = resolve_device(DEVICE)
    calibrations = [pristine.calibration]
    replay = CalibrationStream(pristine.calibration, name=DEVICE)

    def reference(request, epoch):
        while len(calibrations) <= epoch:
            replay.apply(stream.plan.updates[len(calibrations) - 1])
            calibrations.append(replay.calibration)
        return compute_payload(request, replace(pristine, calibration=calibrations[epoch]))

    return reference


def pin_service_threads() -> None:
    """Keep this process's threads on one CPU; worker processes stay free.

    Handoffs between the client, dispatcher and collector threads then
    never cross CPUs, which on a shared two-core host takes most of the
    run-to-run spread out of the hot path.
    """
    cpu = max(os.sched_getaffinity(0))  # the first CPU takes most device interrupts
    for thread in threading.enumerate():
        if thread.native_id is not None:
            os.sched_setaffinity(thread.native_id, {cpu})


def _serve(stream: Stream, seconds: float, segments: int, result: Result, marks=None) -> dict:
    """One service instance: prefill, then the open and closed loops.

    With ``marks`` (a traced run) an untraced open loop comes first, for
    the tracing overhead, then the same traffic under the probes.
    """
    traced = marks is not None
    share = seconds / (3 if traced else 2)
    capacity = max(128, len(stream.corpus))
    with CompilationService(workers=WORKERS, devices=(DEVICE,), cache_capacity=capacity) as service:
        pin_service_threads()
        if stream.config["prefill"]:
            _prefill(service, stream, result)
        served = {"plain": open_loop(service, stream, share, result) if traced else None, "wakeups": []}
        with ExitStack() as probes:
            served["puts"] = probes.enter_context(service_probes(service, marks)) if traced else None
            served["open"] = open_loop(service, stream, share, result)
            served["rates"] = closed_loop(service, stream, share, segments, result, served["wakeups"])
        served["stats"] = service.stats()
    return served


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, plant: str, out) -> Result:
    result = Result(name)
    instances = 1 if trace else SERVICES[name]["instances"]
    marks: Optional[Dict[int, dict]] = {} if trace else None
    runs, served = [], []
    for part in range(instances):
        stream = Stream(name, seed, smoke, part)
        one = _serve(stream, seconds / instances, CLOSED_SEGMENTS // instances, result, marks)
        reference = _reference(stream)
        served += [(s.request, s.epoch, s.payload, reference) for s in one["open"]["sent"] if s.payload is not None]
        runs.append(one)
    latencies = [v for one in runs for v in one["open"]["latencies"]]
    rates = [v for one in runs for v in one["rates"]]
    sent = sum(len(one["open"]["sent"]) for one in runs)
    lag_p99 = percentile((v for one in runs for v in one["open"]["lags"]), 99)
    backlog = max(one["open"]["backlog_end"] for one in runs)
    result.put("loadgen.lag_p99_ms", lag_p99)
    result.put("loadgen.backlog_end", backlog)
    # A traced run only reports these: at 4000 req/s the probes slow the
    # hot path enough to make the generator late.
    if not trace:
        rate = SERVICES[name]["rate"]
        lag_limit = max(MAX_LAG_P99_MS, 1e3 / rate)
        limit = max(8, rate * BACKLOG_SECONDS)
        result.check(lag_p99 <= lag_limit, f"invalid open loop: generator lag p99 {lag_p99:.2f} ms > {lag_limit:g} ms")
        result.check(backlog <= limit, f"invalid open loop: backlog {backlog} > {limit:.0f} at the end")
    result.put("loadgen.slo_attainment", sum(one["open"]["attained"] for one in runs) / sent)
    result.put("latency.p50_ms", percentile(latencies, 50), latencies)
    result.put("latency.p90_ms", percentile(latencies, 90))
    result.put("latency.p99_ms", percentile(latencies, 99))
    if trace:
        _traced(result, name, seed, smoke, runs[0], stream, marks, out)
    else:
        best = max(rates) if SERVICES[name]["best_segment"] else median(rates)
        result.put("throughput_per_s", best, rates)
    result.put("peak_rss_mb", peak_rss_mb())
    checks.service_quality(result, [payload for _, _, payload, _ in served])
    checks.check_payloads(result, served, seed, plant)
    return result


def _traced(result, name, seed, smoke, served, stream, marks, out) -> None:
    stats, puts, wakeups = served["stats"], served["puts"], served["wakeups"]
    tracer = spans.Tracer()
    samples = request_spans(tracer, marks)
    result.put("service.admit.p50_us", 1e6 * percentile(samples["admit"], 50))
    result.put("service.admit.p99_us", 1e6 * percentile(samples["admit"], 99))
    result.put("service.queue.wait_p50_ms", 1e3 * percentile(samples["queue"], 50))
    result.put("service.queue.wait_p99_ms", 1e3 * percentile(samples["queue"], 99))
    result.put("service.cache.get_p50_us", 1e6 * percentile(samples["get"], 50))
    result.put("service.cache.put_p50_us", 1e6 * percentile(puts, 50))
    result.put("service.workers.idle_wait_p50_ms", 1e3 * percentile(samples["idle"], 50))
    result.put("service.workers.idle_wait_p99_ms", 1e3 * percentile(samples["idle"], 99))
    result.put("service.workers.dispatch_p50_us", 1e6 * percentile(samples["dispatch"], 50))
    result.put("service.workers.roundtrip_p50_ms", 1e3 * percentile(samples["roundtrip"], 50))
    result.put("service.workers.roundtrip_p99_ms", 1e3 * percentile(samples["roundtrip"], 99))
    result.put("service.client.wakeup_p50_us", percentile(wakeups, 50))
    cache = stats["cache"]
    result.put("service.cache.hits", cache["hits"])
    result.put("service.cache.misses", cache["misses"])
    result.put("service.cache.hit_ratio", cache["hit_rate"])
    result.put("service.coalesced", stats["coalesced"])
    result.put("service.recovered", stats["recovered"])
    result.put("service.failed", stats["failed"])
    result.put("service.respawns", sum(stats["health"]["respawns"].values()))
    result.put("service.workers.dispatch_bytes", stats["dispatch_bytes"])
    drift = stats["drift"]
    result.put("hardware.drift.apply_p50_ms", percentile(stream.drift_ms, 50))
    result.put("hardware.drift.apply_p99_ms", percentile(stream.drift_ms, 99))
    result.put("hardware.drift.updates", drift["updates"])
    result.put("hardware.drift.rows_recomputed", drift["rows_recomputed"])
    result.put("hardware.drift.wholesale_rebuilds", drift["wholesale_rebuilds"])
    result.put("trace.coverage", spans.coverage(tracer.spans, "service.request"))
    plain_p50 = percentile(served["plain"]["latencies"], 50)
    result.put("trace.overhead_pct", 100.0 * (percentile(served["open"]["latencies"], 50) / plain_p50 - 1.0))

    replay_inline(name, seed, smoke, tracer)
    for metric, value in spans.compile_summary(tracer).items():
        result.put(metric, value)
    tracer.write(out / f"{result.workload}.trace.jsonl")
