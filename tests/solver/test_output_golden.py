"""Byte-identical solver output, pinned by digest.

Speed work on the solver's inner loop must not change the search. This
test pins SHA-256 digests of everything a solve writes — the binary and
ASCII resolution traces and the binary DRUP proof — plus the search
counters, for every small ``default_suite`` instance and two pigeonhole
instances, under eight configurations. The ``reduce`` configuration sets
the learned-clause cap so low that ``reduce_learned`` runs, which puts
deletion records in both the traces and the proofs. ``vsids_random``
mixes seeded random decisions into VSIDS, and ``static``, ``random`` and
``jeroslow_wang`` pin the alternative decision heuristics, so a change to
the shared heuristic protocol is held to the same bytes.

The digests live in ``golden_output.json`` next to this file. Regenerate
them only for a change that is *meant* to alter the search::

    PYTHONPATH=src python -m tests.solver.test_output_golden > tests/solver/golden_output.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments.suite import default_suite
from repro.generators import pigeonhole
from repro.proofs import BinaryProofWriter
from repro.solver import Solver, SolverConfig
from repro.trace.ascii_format import AsciiTraceWriter
from repro.trace.binary_format import BinaryTraceWriter

GOLDEN_PATH = Path(__file__).with_name("golden_output.json")

CONFIGS = {
    "default": SolverConfig(),
    "minimize": SolverConfig(minimize_learned=True),
    "luby": SolverConfig(restart_policy="luby"),
    "reduce": SolverConfig(min_learned_cap=10, max_learned_factor=0.0),
    "vsids_random": SolverConfig(random_decision_freq=0.1, seed=5),
    "static": SolverConfig(decision_heuristic="static"),
    "random": SolverConfig(decision_heuristic="random", seed=3),
    "jeroslow_wang": SolverConfig(decision_heuristic="jeroslow-wang"),
}


def _instances():
    instances = {inst.name: inst.build for inst in default_suite("small")}
    instances["php_6_5"] = lambda: pigeonhole(6, 5)
    instances["php_7_6"] = lambda: pigeonhole(7, 6)
    return instances


INSTANCES = _instances()


class _TeeTraceWriter:
    """Forwards every trace record to several writers."""

    def __init__(self, *writers):
        self._writers = writers

    def __getattr__(self, name):
        def forward(*args):
            for writer in self._writers:
                getattr(writer, name)(*args)

        return forward


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def solve_digests(instance: str, config: str, workdir: Path) -> dict:
    """Solve one instance and summarise everything the solve wrote."""
    paths = {
        "binary_trace": workdir / f"{instance}.{config}.rtb",
        "ascii_trace": workdir / f"{instance}.{config}.trace",
        "drup_proof": workdir / f"{instance}.{config}.drat",
    }
    trace = _TeeTraceWriter(
        BinaryTraceWriter(paths["binary_trace"]), AsciiTraceWriter(paths["ascii_trace"])
    )
    solver = Solver(
        INSTANCES[instance](),
        config=CONFIGS[config],
        trace_writer=trace,
        drup_writer=BinaryProofWriter(paths["drup_proof"]),
    )
    result = solver.solve()
    stats = result.stats
    summary = {key: _digest(path) for key, path in paths.items()}
    summary.update(
        status=result.status,
        conflicts=stats.conflicts,
        decisions=stats.decisions,
        propagations=stats.propagations,
    )
    return summary


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_table_covers_every_case(golden):
    expected = {f"{instance}/{config}" for instance in INSTANCES for config in CONFIGS}
    assert set(golden) == expected


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_solver_output_is_byte_identical(instance, config, tmp_path, golden):
    assert solve_digests(instance, config, tmp_path) == golden[f"{instance}/{config}"]


def test_reduce_config_exercises_deletions(tmp_path):
    """The ``reduce`` cases must actually pin deletion records."""
    trace_path = tmp_path / "php.trace"
    writer = AsciiTraceWriter(trace_path)
    Solver(INSTANCES["php_7_6"](), config=CONFIGS["reduce"], trace_writer=writer).solve()
    assert any(line.startswith("D") for line in trace_path.read_text().splitlines())


def main() -> int:
    table = {}
    with tempfile.TemporaryDirectory() as workdir:
        for instance in sorted(INSTANCES):
            for config in sorted(CONFIGS):
                table[f"{instance}/{config}"] = solve_digests(instance, config, Path(workdir))
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
