"""Workload ``trace_check``: the paper's own Table 1/2 path.

Per instance: ``Solver.solve`` writing a binary resolution trace →
``load_trace`` → ``analyze_trace(graph=True)`` → breadth-first, depth-first,
hybrid and ``StreamingWindowChecker`` under a small memory budget (so it
spills). Seeded pigeonhole instances are traced through
``CorruptingTraceWriter`` with a semantic bug that set-up has seen fire, and
every checker must reject them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import analyze_trace
from repro.checker import (
    BreadthFirstChecker,
    DepthFirstChecker,
    HybridChecker,
    StreamingWindowChecker,
    check_model,
)
from repro.solver import Solver
from repro.solver.buggy import CorruptingTraceWriter
from repro.trace import BinaryTraceWriter, load_trace

from harness import Oracle, PassResult, TimedWriter, Tracer
from instances import draw_corruptions, draw_suite

#: Resident-clause budget of the streaming checker, in logical units: far
#: below what the medium traces hold, so the run spills to disk.
STREAM_BUDGET = 2000

#: name -> checker factory. The streaming checker maps the trace file
#: itself; the others get the decoded trace.
CHECKERS = {
    "bf": lambda formula, trace, path: BreadthFirstChecker(formula, trace),
    "df": lambda formula, trace, path: DepthFirstChecker(formula, trace),
    "hybrid": lambda formula, trace, path: HybridChecker(formula, trace),
    "stream": lambda formula, trace, path: StreamingWindowChecker(
        formula, path, memory_budget=STREAM_BUDGET, tmp_dir=path.parent
    ),
}


@dataclass
class State:
    workdir: Path
    instances: list
    corruptions: list


def setup(seed: int, scale: str, workdir: Path) -> State:
    rng = random.Random(seed)
    if scale == "tiny":
        instances = draw_suite("small", rng, skip=("barrel_counter", "dlx_adder_eq",
                                                   "vliw_shift_eq", "longmult_comm"))
        corruptions = draw_corruptions([(5, 4)], rng)
    else:
        instances = draw_suite("medium", rng)
        corruptions = draw_corruptions([(6, 5), (7, 6)], rng)
    return State(workdir, instances, corruptions)


def _solve(tracer: Tracer, name: str, formula, writer, result: PassResult):
    if tracer.enabled:
        writer = TimedWriter(writer, tracer, "trace.write", name)
    solved, seconds = tracer.call(
        "solver.solve", name, lambda: Solver(formula, trace_writer=writer).solve()
    )
    result.solve_s += seconds
    for stat in ("conflicts", "propagations", "decisions"):
        result.add(f"solver.{stat}", getattr(solved.stats, stat))
    if tracer.enabled:
        result.add("trace.records", writer.records)
    return solved, seconds


def run_pass(state: State, tracer: Tracer, oracle: Oracle) -> PassResult:
    result = PassResult()
    path = state.workdir / "trace.rtb"
    for inst in state.instances:
        result.tick()
        solved, solve_s = oracle.attempt(
            f"{inst.name}/solve", _solve, tracer, inst.name, inst.formula,
            BinaryTraceWriter(path), result,
        ) or (None, 0.0)
        if solved is None:
            continue
        if solved.is_sat:
            oracle.expect(f"{inst.name}/sat", not inst.known_unsat, True)
            model, seconds = tracer.call(
                "checker.model", inst.name, check_model, inst.formula, solved.model
            )
            oracle.expect(f"{inst.name}/model", True, model.satisfied)
            result.latencies.append(solve_s + seconds)
            continue
        if not solved.is_unsat:
            oracle.fail(f"{inst.name}/solve", f"status {solved.status}")
            continue
        result.tick()
        result.add("trace.bytes", path.stat().st_size)
        trace, decode_s = tracer.call("trace.decode", inst.name, load_trace, path)
        report, analyze_s = tracer.call(
            "analysis.analyze", inst.name, analyze_trace, trace, graph=True
        )
        oracle.expect(f"{inst.name}/lint", True, report.ok)
        result.add("analysis.learned", report.graph["num_learned"])
        result.add("analysis.dead", report.graph["dead_learned"])
        spent = solve_s + decode_s + analyze_s
        result.tick()
        for method, make in CHECKERS.items():
            checked = oracle.attempt(
                f"{inst.name}/{method}", tracer.call, f"checker.{method}", inst.name,
                lambda: make(inst.formula, trace, path).check(),
            )
            if checked is None:
                continue
            check, seconds = checked
            oracle.expect(f"{inst.name}/{method}", True, check.verified)
            result.check_s += seconds
            spent += seconds
            result.tick()
            result.add("checker.resolutions", check.resolutions)
            result.add(f"checker.{method}_built", check.clauses_built)
            result.add(f"checker.{method}_learned", check.total_learned)
            result.peak(f"checker.{method}_peak_units", check.peak_memory_units)
            if method == "stream":
                result.add("checker.stream_spills", (check.memory or {}).get("spilled_clauses", 0))
        result.latencies.append(spent)
    for bad in state.corruptions:
        result.tick()
        writer = CorruptingTraceWriter(BinaryTraceWriter(path), bad.bug, seed=bad.bug_seed)
        solved, solve_s = oracle.attempt(
            f"{bad.name}/solve", _solve, tracer, bad.name, bad.formula, writer, result
        ) or (None, 0.0)
        if solved is None:
            continue
        result.tick()
        oracle.expect(f"{bad.name}/solve", True, solved.is_unsat)
        if not writer.corrupted:
            oracle.fail(f"{bad.name}/solve", "the drawn trace bug did not fire")
            continue
        trace, decode_s = tracer.call("trace.decode", bad.name, load_trace, path)
        spent = solve_s + decode_s
        for method, make in CHECKERS.items():
            checked = oracle.attempt(
                f"{bad.name}/{method}", tracer.call, "checker.reject", bad.name,
                lambda: make(bad.formula, trace, path).check(),
            )
            if checked is None:
                continue
            check, seconds = checked
            oracle.expect(f"{bad.name}/{method}", False, check.verified)
            result.check_s += seconds
            spent += seconds
        result.latencies.append(spent)
    return result


def layer_metrics(result: PassResult, by_name: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span self times by name."""
    counts = result.counts
    solver_self = by_name.get("solver.solve", 0.0)
    learned = counts.get("analysis.learned", 0)
    row = {
        "solver.props_per_s": counts.get("solver.propagations", 0) / solver_self
        if solver_self else 0.0,
        "trace.write_s": by_name.get("trace.write", 0.0),
        "trace.decode_s": by_name.get("trace.decode", 0.0),
        "analysis.analyze_s": by_name.get("analysis.analyze", 0.0),
        "analysis.dead_frac": counts.get("analysis.dead", 0) / learned if learned else 0.0,
        "checker.reject_s": by_name.get("checker.reject", 0.0),
    }
    for method in CHECKERS:
        row[f"checker.{method}_s"] = by_name.get(f"checker.{method}", 0.0)
    for method in ("bf", "df", "hybrid"):
        total = counts.get(f"checker.{method}_learned", 0)
        built = counts.get(f"checker.{method}_built", 0)
        row[f"checker.{method}_built_frac"] = built / total if total else 0.0
    for name in ("solver.conflicts", "solver.propagations", "solver.decisions",
                 "trace.records", "trace.bytes", "checker.resolutions",
                 "checker.bf_peak_units", "checker.df_peak_units",
                 "checker.stream_peak_units", "checker.stream_spills"):
        row[name] = counts.get(name, 0)
    return row
