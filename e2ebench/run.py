"""End-to-end benchmark: formula → solve with trace/proof → check → verdict.

Run from the repository root:

    python3 e2ebench/run.py --workload trace_check --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``trace_check`` — solve with a binary resolution trace, lint, then the
  breadth-first, depth-first, hybrid and streaming checkers;
* ``drat_check`` — solve with a binary DRUP proof, then forward and
  backward DRAT and RUP checking, plus a ``gen_drat`` RAT fixture;
* ``service_mix`` — an open loop of check jobs against the service.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced passes (two halves of the loop for the
service) and reports the per-layer metrics from the traced ones, with the
share of wall time no span covers and the tracing overhead. Every verdict is
checked against the known answer. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the result envelope (commit, CPU count, Python version, seed, scale,
tracing, units). Spans and the envelope are also written under
``.e2ebench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import (  # noqa: E402 - needs no program import
    Oracle,
    Tracer,
    calibrate,
    covered_seconds,
    envelope,
    layer_self_times,
    peak_rss_mb,
    percentile,
    reference_scale,
    self_times,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Calibration units run before and after each set-up.
SETUP_CALIBRATION_UNITS = 3

#: Fewest measured passes per kind (untraced, traced) in one run.
MIN_PASSES = 3

#: Length of the service's closed-loop saturation measurement, in seconds.
SATURATION_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in
       ("cnf", "solver", "trace", "analysis", "checker", "proofs", "service")},
    "solver.props_per_s": "1/s",
    "solver.conflicts": "count",
    "solver.propagations": "count",
    "solver.decisions": "count",
    "trace.write_s": "s",
    "trace.records": "count",
    "trace.bytes": "B",
    "trace.decode_s": "s",
    "analysis.analyze_s": "s",
    "analysis.dead_frac": "fraction",
    "checker.bf_s": "s",
    "checker.df_s": "s",
    "checker.hybrid_s": "s",
    "checker.stream_s": "s",
    "checker.reject_s": "s",
    "checker.resolutions": "count",
    "checker.bf_built_frac": "fraction",
    "checker.df_built_frac": "fraction",
    "checker.hybrid_built_frac": "fraction",
    "checker.bf_peak_units": "count",
    "checker.df_peak_units": "count",
    "checker.stream_peak_units": "count",
    "checker.stream_spills": "count",
    "proofs.write_s": "s",
    "proofs.bytes": "B",
    "proofs.parse_s": "s",
    "proofs.forward_s": "s",
    "proofs.backward_s": "s",
    "proofs.rup_s": "s",
    "proofs.reject_s": "s",
    "proofs.propagations": "count",
    "proofs.rat_steps": "count",
    "proofs.rat_resolvents": "count",
    "proofs.skipped_frac": "fraction",
    "cnf.parse_s": "s",
    "service.fingerprint_s": "s",
    "service.cache_get_s": "s",
    "service.cache_put_s": "s",
    "service.cache_hit_frac": "fraction",
    "service.queue_wait_p50_s": "s",
    "service.run_p50_s": "s",
    "service.late_s": "s",
    "service.jobs_per_s": "1/s",
    "service.retries": "count",
    "service.crashes": "count",
    "pool.formula_hits": "count",
    "pool.store_reuses": "count",
    "tracing.unattributed_frac": "fraction",
    "tracing.overhead_frac": "fraction",
}

WORKLOADS = ("trace_check", "drat_check", "service_mix")


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: median([row[name] for row in rows]) for name in rows[0]}


def _to_reference(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Per-layer seconds (and rates) at the calibration's reference speed."""
    out = dict(metrics)
    for name, value in metrics.items():
        unit = PER_LAYER[name]
        if unit == "s":
            out[name] = value * scale
        elif unit == "1/s":
            out[name] = value / scale
    return out


def _pass_layer_row(module, result, wall, start, spans) -> dict[str, float]:
    row = module.layer_metrics(result, self_times(spans))
    for layer, seconds in layer_self_times(spans).items():
        row[f"{layer}.self_s"] = seconds
    # The benchmark's calibration samples are not the program's time.
    program_wall = wall - result.calibration_s
    covered = covered_seconds(spans, start, start + wall)
    row["tracing.unattributed_frac"] = 1.0 - covered / program_wall
    return row


def measure_passes(module, state, seconds: float, trace: bool, oracle, tracer):
    """Trace/DRAT workloads: a closed loop of passes over the instance set.

    Calibration units run between steps whenever the last sample is old,
    and after the pass; the pass's times are scaled by the mean of its
    samples.
    """
    untraced = Tracer(False)
    runs = {False: [], True: []}  # traced? -> [(result, scaled latencies, scale, layer row)]
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        active = tracer if tracing else untraced
        mark = active.mark()
        start = time.perf_counter()
        result = module.run_pass(state, active, oracle)
        wall = time.perf_counter() - start
        scale = reference_scale([*result.calibration, calibrate()])
        row = _pass_layer_row(module, result, wall, start, active.since(mark)) if tracing else {}
        latencies = [seconds * scale for seconds in result.latencies]
        runs[tracing].append((result, latencies, scale, _to_reference(row, scale)))
        index += 1
        if (time.perf_counter() >= deadline and len(runs[False]) >= MIN_PASSES
                and (not trace or len(runs[True]) >= MIN_PASSES)):
            break
    plain = runs[False]
    verdict_s = median([sum(latencies) for _, latencies, _, _ in plain])
    details = {
        "passes": len(plain),
        "verdict_s": verdict_s,
        "wall_verdict_s": median([sum(res.latencies) for res, *_ in plain]),
        "solve_s": median([res.solve_s * scale for res, _, scale, _ in plain]),
        "check_s": median([res.check_s * scale for res, _, scale, _ in plain]),
        "calibration_scale": median([scale for _, _, scale, _ in plain]),
        "pass_verdict_s": [sum(latencies) for _, latencies, _, _ in plain],
        "pass_tail_s": [max(latencies) for _, latencies, _, _ in plain],
    }
    if trace:
        metrics = _medians([row for *_, row in runs[True]])
        traced_s = median([sum(latencies) for _, latencies, _, _ in runs[True]])
        metrics["tracing.overhead_frac"] = traced_s / verdict_s - 1.0
        details["traced_passes"] = len(runs[True])
        return metrics, details
    metrics = {
        "verdict_s": verdict_s,
        "verdict_tail_s": median([max(latencies) for _, latencies, _, _ in plain]),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, details


def measure_service(module, state, seconds: float, trace: bool, oracle, tracer, rate):
    """The service workload: rounds of an open loop (see ``service_mix``).

    Its times stay in wall-clock seconds: job latency is set by two worker
    processes and the scheduler threads as much as by the calibrated core,
    and scaling it by the calibration made runs spread wider, not narrower.
    """
    # Warm-up: one all-cold round with every job due at once.
    module.run_loop(state, 0.0, Tracer(False), oracle, math.inf)
    # The pool's saturation throughput on this mix: closed-loop rounds.
    saturated = module.run_loop(state, SATURATION_S, Tracer(False), oracle, math.inf)
    saturation = saturated.done / saturated.wall
    loop_seconds = seconds / 2 if trace else seconds
    plain = module.run_loop(state, loop_seconds, Tracer(False), oracle, rate)
    details = {
        "jobs": len(plain.latencies),
        "rate_per_s": rate,
        "saturation_jobs_per_s": saturation,
        "offered_load": rate / saturation,
        "utilisation": sum(plain.runs) / (state.workers * plain.wall),
        "queue_wait_p50_s": percentile(plain.queue_waits, 0.5),
        "job_p50_s": percentile(plain.latencies, 0.5),
        "job_p90_s": percentile(plain.latencies, 0.9),
        "jobs_per_s": plain.done / plain.wall,
    }
    if not trace:
        metrics = {
            "verdict_s": details["job_p50_s"],
            "verdict_tail_s": details["job_p90_s"],
            "peak_rss_mb": peak_rss_mb(module.worker_pids(state)),
        }
        return metrics, details
    traced = module.run_loop(state, loop_seconds, tracer, oracle, rate)
    raw = module.time_layer_calls(state, tracer)
    # Per traced job: the loop's spans plus the timed layer calls after it.
    for layer, spent in layer_self_times(tracer.spans).items():
        raw[f"{layer}.self_s"] = spent / max(1, traced.done)
    covered = covered_seconds(traced.spans, traced.start, traced.start + traced.wall)
    metrics = {
        **module.loop_metrics(traced),
        **raw,
        "tracing.unattributed_frac": 1.0 - covered / traced.wall,
        "tracing.overhead_frac": (
            percentile(traced.latencies, 0.5) / details["job_p50_s"] - 1.0
        ),
    }
    details["traced_jobs"] = len(traced.latencies)
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own self-tests")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        import importlib

        module = importlib.import_module(args.workload)
    except ImportError as exc:
        print(f"e2ebench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    out_dir = Path.cwd() / ".e2ebench"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    oracle = Oracle()
    tracer = Tracer(trace)
    state = None
    try:
        setup_times = []
        for attempt in range(SETUP_REPEATS):
            workdir = scratch / f"setup-{attempt}"
            workdir.mkdir()
            before = [calibrate() for _ in range(SETUP_CALIBRATION_UNITS)]
            start = time.perf_counter()
            candidate = module.setup(args.seed, args.scale, workdir)
            seconds = time.perf_counter() - start
            after = [calibrate() for _ in range(SETUP_CALIBRATION_UNITS)]
            setup_times.append(seconds * reference_scale(before + after))
            if state is not None and hasattr(module, "teardown"):
                module.teardown(state)
            state = candidate
        if args.workload == "service_mix":
            metrics, details = measure_service(
                module, state, args.seconds, trace, oracle, tracer, module.RATE[args.scale]
            )
        else:
            metrics, details = measure_passes(module, state, args.seconds, trace, oracle, tracer)
        if not trace:
            metrics["setup_s"] = median(setup_times)
    finally:
        if state is not None and hasattr(module, "teardown"):
            module.teardown(state)
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    values = {name: (float(metrics.get(name, 0.0)), unit) for name, unit in units.items()}
    details.update({
        "attempted": oracle.attempted,
        "failed_frac": oracle.failed / max(1, oracle.attempted),
        "wrong_verdicts": len(oracle.wrong),
    })
    info = envelope(args.workload, args.seed, args.scale, trace, values, details)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(info, indent=2) + "\n")
    if trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    for line in (oracle.wrong + oracle.errors)[:20]:
        print(f"e2ebench: {line}", file=sys.stderr)
    print(json.dumps({"envelope": info}))
    print(json.dumps({
        "correct": oracle.correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if oracle.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
