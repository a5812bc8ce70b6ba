"""Workload ``drat_check``: the clausal-proof path.

Per instance: ``Solver.solve`` writing a binary DRUP proof (garbage
collection deletions logged) → ``iter_proof_steps`` over the file →
``DratChecker`` forward, ``DratChecker(backward=True)`` and ``RupChecker``.
Added to these, one ``tools/gen_drat.py`` text-format fixture (core, dead blocks, RAT
gadgets and deletions): forward and backward checking must verify it, the
RUP-only checker must reject it (its RAT lemmas are not RUP), and forward
checking must reject each of its ``corruptions()``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.checker import RupChecker, check_model
from repro.cnf import parse_dimacs_file
from repro.experiments.suite import default_suite
from repro.proofs import DratChecker, iter_proof_steps, open_proof_writer
from repro.solver import Solver

from harness import REPO_ROOT, Oracle, PassResult, TimedWriter, Tracer
from instances import draw_suite

sys.path.insert(0, str(REPO_ROOT / "tools"))
import gen_drat  # noqa: E402

#: The medium-scale families whose forward DRAT check stays well under a
#: second; the others are drawn at small scale only.
MEDIUM_FAMILIES = ("bw_swap", "barrel_counter", "lfsr_bmc", "dlx_adder_eq", "aim_ksat")

#: gen_drat fixture size: (core blocks, dead lemmas, RAT gadgets).
FIXTURE = {"tiny": (4, 8, 2), "full": (16, 400, 60)}

CHECKERS = {
    "forward": lambda formula, path: DratChecker(formula, path),
    "backward": lambda formula, path: DratChecker(formula, path, backward=True),
    "rup": lambda formula, path: RupChecker(formula, path),
}


@dataclass
class State:
    workdir: Path
    instances: list
    fixture_formula: object
    fixture_proof: Path
    corrupted: list  # (name, path)


def setup(seed: int, scale: str, workdir: Path) -> State:
    rng = random.Random(seed)
    if scale == "tiny":
        instances = draw_suite("small", rng, skip=("barrel_counter", "dlx_adder_eq",
                                                   "vliw_shift_eq", "longmult_comm"))
    else:
        skip = tuple(entry.name for entry in default_suite("medium")
                     if entry.name not in MEDIUM_FAMILIES)
        instances = draw_suite("small", rng) + draw_suite("medium", rng, skip=skip)
    core, dead, rat = FIXTURE[scale]
    fixture = gen_drat.generate(core=core, dead=dead, rat=rat, deletions=True)
    cnf, proof = workdir / "fixture.cnf", workdir / "fixture.drat"
    fixture.write_cnf(cnf)
    # Text, so the fixture also drives the text parser, and so every
    # corruption mode changes the bytes (the binary literal flip needs a
    # one-byte varint, which large fixtures do not start with).
    fixture.write_proof(proof, "text")
    corrupted = []
    for name, data in gen_drat.corruptions(proof, "text"):
        path = workdir / f"fixture-{name}.drat"
        path.write_bytes(data)
        corrupted.append((f"gen_drat/{name}", path))
    return State(workdir, instances, parse_dimacs_file(cnf), proof, corrupted)


def _solve(tracer: Tracer, name: str, formula, path: Path, result: PassResult):
    writer = open_proof_writer(path, "binary")
    if tracer.enabled:
        writer = TimedWriter(writer, tracer, "proofs.write", name)
    solved, seconds = tracer.call(
        "solver.solve", name, lambda: Solver(formula, drup_writer=writer).solve()
    )
    result.solve_s += seconds
    for stat in ("conflicts", "propagations", "decisions"):
        result.add(f"solver.{stat}", getattr(solved.stats, stat))
    return solved, seconds


def _check(tracer, oracle, result, name, span, method, formula, path, expected):
    """One clausal check; returns ``(report or None, seconds)``."""
    checked = oracle.attempt(
        f"{name}/{method}", tracer.call, span, name,
        lambda: CHECKERS[method](formula, path).check(),
    )
    if checked is None:
        return None, 0.0
    report, seconds = checked
    oracle.expect(f"{name}/{method}", expected, report.verified)
    result.check_s += seconds
    result.tick()
    return report, seconds


def _proof_counts(result: PassResult, method: str, report) -> None:
    proof = report.proof or {}
    result.add("proofs.propagations", report.resolutions)
    result.add("proofs.rat_steps", proof.get("rat_lemmas", 0))
    result.add("proofs.rat_resolvents", proof.get("rat_resolvents", 0))
    if method == "backward":
        result.add("proofs.backward_adds", proof.get("adds", 0))
        result.add("proofs.backward_checked", proof.get("checked", 0))


def run_pass(state: State, tracer: Tracer, oracle: Oracle) -> PassResult:
    result = PassResult()
    path = state.workdir / "proof.drat"
    for inst in state.instances:
        result.tick()
        solved, solve_s = oracle.attempt(
            f"{inst.name}/solve", _solve, tracer, inst.name, inst.formula, path, result
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
        result.add("proofs.bytes", path.stat().st_size)
        steps, _ = tracer.call(
            "proofs.parse", inst.name, lambda: sum(1 for _ in iter_proof_steps(path))
        )
        result.add("proofs.steps", steps)
        spent = solve_s
        for method in CHECKERS:
            report, seconds = _check(tracer, oracle, result, inst.name, f"proofs.{method}",
                                     method, inst.formula, path, True)
            spent += seconds
            if report is not None:
                _proof_counts(result, method, report)
        result.latencies.append(spent)
    result.tick()
    spent = 0.0
    for method in CHECKERS:
        # RAT lemmas are not RUP: the RUP-only checker must reject the fixture.
        report, seconds = _check(tracer, oracle, result, "gen_drat", f"proofs.{method}", method,
                                 state.fixture_formula, state.fixture_proof, method != "rup")
        spent += seconds
        if report is not None:
            _proof_counts(result, method, report)
    result.latencies.append(spent)
    for name, bad in state.corrupted:
        result.tick()
        _, seconds = _check(tracer, oracle, result, name, "proofs.reject", "forward",
                            state.fixture_formula, bad, False)
        result.latencies.append(seconds)
    return result


def layer_metrics(result: PassResult, by_name: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its span self times by name."""
    counts = result.counts
    solver_self = by_name.get("solver.solve", 0.0)
    adds = counts.get("proofs.backward_adds", 0)
    row = {
        "solver.props_per_s": counts.get("solver.propagations", 0) / solver_self
        if solver_self else 0.0,
        "proofs.write_s": by_name.get("proofs.write", 0.0),
        "proofs.parse_s": by_name.get("proofs.parse", 0.0),
        "proofs.reject_s": by_name.get("proofs.reject", 0.0),
        "proofs.skipped_frac": 1.0 - counts.get("proofs.backward_checked", 0) / adds
        if adds else 0.0,
    }
    for method in CHECKERS:
        row[f"proofs.{method}_s"] = by_name.get(f"proofs.{method}", 0.0)
    for name in ("solver.conflicts", "solver.propagations", "solver.decisions",
                 "proofs.bytes", "proofs.propagations", "proofs.rat_steps",
                 "proofs.rat_resolvents"):
        row[name] = counts.get(name, 0)
    return row
