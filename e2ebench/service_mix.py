"""Workload ``service_mix``: an open loop of jobs against the checking service.

Set-up writes DIMACS files, binary resolution traces, binary DRUP proofs
and corrupted pigeonhole traces, then starts a ``Scheduler`` over a
pre-forked ``WorkerPool`` (one worker per usable CPU) with the ``VerdictCache``
on. The loop submits rounds of jobs through ``JobStore.submit`` at a fixed
rate and times each job from its due time to DONE in the journal. A round:

* cold jobs — a breadth-first, depth-first or DRAT check under a fresh
  ``timeout`` value, so its cache key is new and a worker runs it;
* corrupted traces — cold rejections, which the cache keeps too;
* repeats — a job of an earlier round resubmitted as is, served from the
  cache.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cnf import parse_dimacs_file
from repro.cnf.dimacs import write_dimacs_file
from repro.experiments.suite import default_suite
from repro.proofs import open_proof_writer
from repro.service import JobStore, Scheduler, ServiceClient, VerdictCache
from repro.service.jobs import SETTLED_STATES
from repro.service.daemon import DEFAULT_CACHE_BATCH
from repro.solver import Solver
from repro.solver.buggy import CorruptingTraceWriter
from repro.trace import BinaryTraceWriter

from harness import Oracle, Tracer, percentile
from instances import draw_corruptions

#: Jobs submitted per second, fixed so that runs of different program
#: versions offer the same load. On a shared 2-core host the pool saturated
#: at 190-310 jobs/s on this mix (closed loop, every job of a round due at
#: once; eleven runs), so 25 jobs/s offers 8-13% of saturation: the workers
#: were busy 6-8% of the time and the median job waited 0.3-0.5 ms in the
#: queue, so latency measures per-job service overhead plus check time
#: rather than queueing. Every run measures the saturation again and
#: reports it with the offered load, the workers' utilisation and the
#: median queue wait in the result envelope.
RATE = {"tiny": 20.0, "full": 25.0}

#: Medium-scale families added to the small suite for BF/DF jobs.
MEDIUM_FAMILIES = ("bw_swap", "lfsr_bmc", "dlx_adder_eq", "barrel_counter", "aim_ksat")

#: One repeat of an earlier job follows every ``REPEAT_EVERY`` cold jobs, so
#: repeats are a third of the traffic. A hit finishes in milliseconds and a
#: cold check takes tens, so with hits under half of the jobs both the
#: median and the 90th percentile land on cold jobs: the end-to-end figures
#: time the miss path (fingerprint, cache miss, dispatch, worker, cache
#: write), which hits still delay by taking the dispatcher and journal in
#: between. The hit path itself shows in ``service.cache_get_s``.
REPEAT_EVERY = 2

#: How long to wait after the last submission for every job to finish.
DRAIN_TIMEOUT_S = 60.0

#: How long to wait for the journal to catch up with settled jobs.
JOURNAL_SETTLE_S = 5.0


@dataclass(frozen=True)
class Template:
    """One checkable artifact and the verdict it must get."""

    name: str
    formula: str
    artifact: str
    method: str
    expected: bool


@dataclass
class State:
    workdir: Path
    templates: list[Template]
    corrupted: list[Template]
    scheduler: Scheduler
    store: JobStore
    cache: VerdictCache
    rng: random.Random
    workers: int
    next_salt: int = 0
    history: list = field(default_factory=list)


def _artifacts(workdir: Path, name: str, formula, with_proof: bool) -> list[Template]:
    cnf = workdir / f"{name}.cnf"
    write_dimacs_file(formula, cnf)
    trace = workdir / f"{name}.rtb"
    if not Solver(formula, trace_writer=BinaryTraceWriter(trace)).solve().is_unsat:
        raise RuntimeError(f"{name}: expected UNSAT")
    out = [Template(name, str(cnf), str(trace), method, True) for method in ("bf", "df")]
    if with_proof:
        proof = workdir / f"{name}.drat"
        Solver(formula, drup_writer=open_proof_writer(proof, "binary")).solve()
        out.append(Template(name, str(cnf), str(proof), "drat", True))
    return out


def setup(seed: int, scale: str, workdir: Path) -> State:
    rng = random.Random(seed)
    small = default_suite("small")
    if scale == "tiny":
        small = small[:3]
    templates = []
    for entry in small:
        templates += _artifacts(workdir, entry.name, entry.build(), with_proof=True)
    if scale != "tiny":
        for entry in default_suite("medium"):
            if entry.name in MEDIUM_FAMILIES:
                templates += _artifacts(workdir, f"{entry.name}-m", entry.build(), False)
    corrupted = []
    for bad in draw_corruptions([(5, 4), (6, 5)], rng):
        stem = bad.name.replace("/", "-")
        cnf, trace = workdir / f"{stem}.cnf", workdir / f"{stem}.rtb"
        write_dimacs_file(bad.formula, cnf)
        writer = CorruptingTraceWriter(BinaryTraceWriter(trace), bad.bug, seed=bad.bug_seed)
        Solver(bad.formula, trace_writer=writer).solve()
        if not writer.corrupted:
            raise RuntimeError(f"{bad.name}: the drawn trace bug did not fire")
        corrupted += [Template(bad.name, str(cnf), str(trace), method, False)
                      for method in ("bf", "df")]
    store = JobStore(workdir / "journal.jsonl")
    cache = VerdictCache(workdir / "cache", batch_size=DEFAULT_CACHE_BATCH)
    workers = usable_cpus()
    scheduler = Scheduler(store, ServiceClient(cache=cache), num_workers=workers)
    scheduler.start()
    return State(workdir, templates, corrupted, scheduler, store, cache, rng, workers)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, as ``nproc`` counts)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def teardown(state: State) -> None:
    state.scheduler.stop()
    state.store.close()


def worker_pids(state: State) -> list[int]:
    pool = state.scheduler.pool
    return pool.worker_pids() if pool is not None else []


def _round(state: State) -> list[tuple[Template, int]]:
    """One round of the mix.

    Every clean template once and every corrupted one once, each under a
    fresh salt (cold), in a fixed order; after every ``REPEAT_EVERY`` cold
    jobs, one job repeated from earlier rounds (a cache hit). The first
    round has no earlier jobs, so it is all cold; every later round has the
    same composition and shape, and the seed picks which jobs repeat.
    """
    fresh = []
    for template in state.templates + state.corrupted:
        state.next_salt += 1
        fresh.append((template, state.next_salt))
    history = list(state.history)
    state.history += fresh
    jobs = []
    for index, job in enumerate(fresh, start=1):
        jobs.append(job)
        if history and index % REPEAT_EVERY == 0:
            jobs.append(state.rng.choice(history))
    return jobs


def _journal(path: Path) -> dict[str, dict[str, float]]:
    """job id -> {state: journal time} from the service's own journal."""
    events: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("event") == "state":
                events.setdefault(event["job_id"], {})[event["state"]] = event["t"]
    return events


def _settled_events(state: State, job_ids: list[str]) -> dict[str, dict[str, float]]:
    """The journal once it records every job that is settled in memory.

    ``JobStore`` sets a job's state before it appends the journal line, so
    a job can read as DONE a moment before its line is written.
    """
    deadline = time.time() + JOURNAL_SETTLE_S
    while True:
        events = _journal(state.store.journal_path)
        missing = [job_id for job_id in job_ids
                   if state.store.get(job_id).state.value not in events.get(job_id, {})]
        if not missing or time.time() >= deadline:
            return events
        time.sleep(0.01)


def _counters(state: State) -> dict[str, int]:
    metrics = state.scheduler.metrics
    names = ("pool.formula_hits", "pool.store_reuses", "jobs.done", "jobs.served_from_cache",
             "jobs.crash_requeues", "pool.task_retries", "pool.worker_crashes",
             "jobs.worker_crash_failures", "pool.task_timeouts")
    return {name: metrics.counter(name).value for name in names}


@dataclass
class LoopResult:
    """One loop's jobs, in wall-clock seconds."""

    latencies: list[float]
    queue_waits: list[float]
    runs: list[float]
    lateness: list[float]
    start: float  # perf_counter time of the first due submission
    wall: float
    done: int
    counters: dict[str, int]
    spans: list[list]


def _drain(state: State, job_ids: set[str]) -> None:
    deadline = time.time() + DRAIN_TIMEOUT_S
    while job_ids and time.time() < deadline:
        job_ids = {job_id for job_id in job_ids
                   if state.store.get(job_id).state not in SETTLED_STATES}
        if job_ids:
            time.sleep(0.005)


def run_loop(state: State, seconds: float, tracer: Tracer, oracle: Oracle,
             rate: float) -> LoopResult:
    """Rounds of jobs submitted at ``rate`` until ``seconds`` have passed
    (at least one round).

    Within a round the load is an open loop: job ``i`` is due at
    ``i / rate`` after the round starts, whether or not earlier jobs are
    done. Between rounds the loop waits for every verdict, so every round
    starts from an empty queue and a run's length does not change what a
    round sees. With ``rate`` infinite every job of a round is due at once:
    a closed loop that keeps the workers saturated.
    """
    before = _counters(state)
    mark = tracer.mark()
    submitted = []  # (job id, due, sent, template)
    loop_start = time.time()
    rounds = 0
    while rounds == 0 or time.time() - loop_start < seconds:
        rounds += 1
        round_jobs = []
        start = time.time() + 0.005
        for index, (template, salt) in enumerate(_round(state)):
            due = start + index / rate
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            options = {"method": template.method, "timeout": 3600.0 + salt}
            sent = time.time()
            job = oracle.attempt(
                f"{template.name}/{template.method}/submit", tracer.call, "service.submit",
                template.name, state.store.submit, template.formula, template.artifact, options,
            )
            if job is not None:
                round_jobs.append((job[0].job_id, due, sent, template))
        _drain(state, {job_id for job_id, *_ in round_jobs})
        submitted += round_jobs
    events = _settled_events(state, [job_id for job_id, *_ in submitted])
    # Journal times are wall-clock; spans use perf_counter.
    offset = time.perf_counter() - time.time()
    first_due = submitted[0][1] if submitted else loop_start
    result = LoopResult([], [], [], [], first_due + offset, 0.0, 0, {}, [])
    last_done = first_due
    for job_id, due, sent, template in submitted:
        what = f"{job_id}:{template.name}/{template.method}"
        job = state.store.get(job_id)
        times = events.get(job_id, {})
        result.lateness.append(sent - due)
        if job.state.value != "DONE" or "DONE" not in times:
            oracle.fail(what, f"ended {job.state.value}")
            continue
        oracle.expect(what, template.expected, bool(job.result.get("verified")))
        done, running = times["DONE"], times["RUNNING"]
        last_done = max(last_done, done)
        result.done += 1
        result.latencies.append(done - due)
        result.queue_waits.append(running - sent)
        result.runs.append(done - running)
        if tracer.enabled:
            tracer.spans.append(["service.job", due + offset, done + offset, None, job_id])
            parent = len(tracer.spans) - 1
            tracer.spans.append(["service.queue", sent + offset, running + offset, parent, job_id])
            tracer.spans.append(["service.run", running + offset, done + offset, parent, job_id])
    result.wall = last_done - first_due
    after = _counters(state)
    result.counters = {name: after[name] - before[name] for name in after}
    result.spans = tracer.since(mark)
    return result


def time_layer_calls(state: State, tracer: Tracer) -> dict[str, float]:
    """Time the service's per-job pieces on the workload's own artifacts.

    ``cnf.parse_s`` is ``parse_dimacs_file`` over every DIMACS file the jobs
    name, once each. The others are means per distinct job of the loop:
    ``ServiceClient.fingerprint``, ``VerdictCache.get`` on the workload's
    cache, and ``VerdictCache.put`` of the same verdicts into a fresh cache
    (its final flush included).
    """
    client = state.scheduler.client
    totals = {"cnf.parse_s": 0.0, "service.fingerprint_s": 0.0,
              "service.cache_get_s": 0.0, "service.cache_put_s": 0.0}
    for formula in sorted({t.formula for t, _salt in state.history}):
        _, seconds = tracer.call("cnf.parse", formula, parse_dimacs_file, formula)
        totals["cnf.parse_s"] += seconds
    fresh = VerdictCache(state.workdir / "cache-put", batch_size=DEFAULT_CACHE_BATCH)
    jobs = sorted({(t.formula, t.artifact, t.method, salt) for t, salt in state.history})
    for formula, artifact, method, salt in jobs:
        options = {"method": method, "timeout": 3600.0 + salt}
        fingerprint, seconds = tracer.call(
            "service.fingerprint", formula, client.fingerprint, formula, artifact, options
        )
        totals["service.fingerprint_s"] += seconds
        report, seconds = tracer.call("service.cache_get", formula, state.cache.get, fingerprint)
        totals["service.cache_get_s"] += seconds
        if report is not None:
            _, seconds = tracer.call("service.cache_put", formula, fresh.put, fingerprint, report)
            totals["service.cache_put_s"] += seconds
    _, seconds = tracer.call("service.cache_put", "flush", fresh.flush)
    totals["service.cache_put_s"] += seconds
    for name in ("service.fingerprint_s", "service.cache_get_s", "service.cache_put_s"):
        totals[name] /= max(1, len(jobs))
    return totals


def loop_metrics(result: LoopResult) -> dict[str, float]:
    counters = result.counters
    done = max(1, counters["jobs.done"])
    return {
        "service.queue_wait_p50_s": percentile(result.queue_waits, 0.5),
        "service.run_p50_s": percentile(result.runs, 0.5),
        "service.late_s": percentile(result.lateness, 0.9),
        "service.cache_hit_frac": counters["jobs.served_from_cache"] / done,
        "service.retries": counters["jobs.crash_requeues"] + counters["pool.task_retries"],
        "service.crashes": counters["pool.worker_crashes"]
        + counters["jobs.worker_crash_failures"] + counters["pool.task_timeouts"],
        "service.jobs_per_s": result.done / result.wall if result.wall > 0 else 0.0,
        "pool.formula_hits": counters["pool.formula_hits"],
        "pool.store_reuses": counters["pool.store_reuses"],
    }
