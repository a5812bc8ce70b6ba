"""Seeded instance draws for the benchmark workloads.

The instance families are those of ``repro.experiments.suite.default_suite``.
Three of its families are random: random 3-SAT, the random-circuit CEC miter
and the dense FPGA channel. For those the workload seed picks the generator
seed; every other family is fixed by its size. Pigeonhole traces carry the
injected trace bugs, because every learned clause of a pigeonhole refutation
lies in the cone of the empty clause: a semantic corruption anywhere in it
breaks the proof, so rejecting it is the only correct verdict. (In other
families a corruption can land on a dead clause, and accepting that trace
is correct, so the expected verdict would not be known.) Some bugs fire
only with some probability; the draw keeps a (bug, site seed) pair only once
a trial solve shows that it fires, so every corrupted trace is corrupted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.circuits import miter_to_cnf, random_cec_miter
from repro.cnf import CnfFormula
from repro.experiments.suite import default_suite
from repro.generators import dense_channel_instance, pigeonhole, random_ksat
from repro.solver import Solver
from repro.solver.buggy import BugKind, CorruptingTraceWriter
from repro.trace.io import InMemoryTraceWriter

#: Generator parameters of the random families, as ``default_suite`` sizes
#: them at each scale.
RANDOM_FAMILY_PARAMS = {
    "small": {"cec_rand": (12, 80, 4), "aim_ksat": (40, 180), "fpga_route": (4, 6, 10)},
    "medium": {"cec_rand": (20, 250, 8), "aim_ksat": (80, 360), "fpga_route": (7, 9, 30)},
}

#: Trace bugs that leave a well-formed trace, so only resolution replay
#: can catch them (``repro.solver.buggy``).
SEMANTIC_BUGS = (
    BugKind.DROP_SOURCE,
    BugKind.SWAP_SOURCES,
    BugKind.WRONG_ANTECEDENT,
    BugKind.OMIT_LEVEL_ZERO,
    BugKind.WRONG_FINAL_CONFLICT,
)

#: Draws per pigeonhole size before giving up on finding a bug that fires.
MAX_CORRUPTION_DRAWS = 64


@dataclass(frozen=True)
class Instance:
    """One generated formula and what its answer is known to be.

    ``known_unsat`` is False only for random 3-SAT, whose answer is not
    known in advance: a SAT claim must then come with a model that
    satisfies the formula, an UNSAT claim with a proof every checker
    accepts.
    """

    name: str
    formula: CnfFormula
    known_unsat: bool


@dataclass(frozen=True)
class Corruption:
    """A pigeonhole instance to be traced through ``CorruptingTraceWriter``."""

    name: str
    formula: CnfFormula
    bug: BugKind
    bug_seed: int


def _random_factory(name: str, params: tuple, seed: int) -> Callable[[], CnfFormula]:
    if name == "cec_rand":
        return lambda: miter_to_cnf(random_cec_miter(*params, seed=seed))
    if name == "aim_ksat":
        return lambda: random_ksat(*params, seed=seed)
    return lambda: dense_channel_instance(*params, seed=seed)[0]


def draw_suite(scale: str, rng: random.Random, skip: tuple[str, ...] = ()) -> list[Instance]:
    """``default_suite(scale)`` with the random families re-seeded by ``rng``."""
    params = RANDOM_FAMILY_PARAMS[scale]
    out = []
    for entry in default_suite(scale):
        if entry.name in skip:
            continue
        if entry.name in params:
            generator_seed = rng.randrange(1, 1 << 30)
            formula = _random_factory(entry.name, params[entry.name], generator_seed)()
            name = f"{entry.name}@{generator_seed}"
        else:
            formula, name = entry.build(), entry.name
        out.append(Instance(name, formula, known_unsat=entry.name != "aim_ksat"))
    return out


def fires(formula: CnfFormula, bug: BugKind, bug_seed: int) -> bool:
    """Whether ``bug`` at ``bug_seed`` corrupts the solver's trace of ``formula``.

    The solver is deterministic, so a trace written with the same writer
    later is corrupted exactly when this trial is.
    """
    writer = CorruptingTraceWriter(InMemoryTraceWriter(), bug, seed=bug_seed)
    Solver(formula, trace_writer=writer).solve()
    return writer.corrupted


def draw_corruptions(sizes: list[tuple[int, int]], rng: random.Random) -> list[Corruption]:
    """One corrupted pigeonhole trace per size, bug kind and site seeded.

    Pairs whose bug does not fire are drawn again, so the trace must be
    rejected.
    """
    out = []
    for pigeons, holes in sizes:
        formula = pigeonhole(pigeons, holes)
        for _ in range(MAX_CORRUPTION_DRAWS):
            bug = rng.choice(SEMANTIC_BUGS)
            bug_seed = rng.randrange(1 << 16)
            if fires(formula, bug, bug_seed):
                break
        else:
            raise RuntimeError(f"php({pigeons},{holes}): no drawn trace bug fired")
        name = f"php{pigeons}_{holes}/{bug.value}@{bug_seed}"
        out.append(Corruption(name, formula, bug, bug_seed))
    return out
