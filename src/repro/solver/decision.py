"""Alternative decision heuristics, for ablation against VSIDS.

Chaff's VSIDS was the paper's era-defining heuristic; these baselines
(static order, Jeroslow-Wang, uniform random) exist so the benchmark
harness can quantify what it buys. All expose the surface the solver
drives :class:`repro.solver.vsids.VsidsHeuristic` through: ``bump_all``,
``decay``, ``save_phase``, ``unassign``, ``pick_branch`` and the
``phase`` and ``banned`` attributes. The solver makes one ``bump_all``
call per conflict analysis and one ``unassign`` call per backtrack.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.cnf import Assignment
from repro.solver.vsids import VsidsHeuristic


class _ActivityFreeHeuristic:
    """Shared no-op activity bookkeeping and plain phase saving."""

    def __init__(self, num_vars: int, default_phase: bool = False):
        self.num_vars = num_vars
        self.phase = [default_phase] * (num_vars + 1)
        self.banned: set[int] = set()

    def bump_all(self, variables: Iterable[int]) -> None:
        pass

    def decay(self) -> None:
        pass

    def save_phase(self, lit: int) -> None:
        self.phase[abs(lit)] = lit > 0

    def unassign(self, lits: Iterable[int]) -> None:
        for lit in lits:
            self.save_phase(lit)


class StaticOrderHeuristic(_ActivityFreeHeuristic):
    """Branch on the lowest-numbered free variable (DLL's original order)."""

    def pick_branch(self, assignment: Assignment) -> int | None:
        for var in range(1, self.num_vars + 1):
            if not assignment.is_assigned(var) and var not in self.banned:
                return var if self.phase[var] else -var
        return None


class RandomHeuristic(_ActivityFreeHeuristic):
    """Branch on a uniformly random free variable (seeded)."""

    def __init__(self, num_vars: int, default_phase: bool = False, seed: int = 0):
        super().__init__(num_vars, default_phase)
        self._rng = random.Random(seed)

    def pick_branch(self, assignment: Assignment) -> int | None:
        free = [
            v
            for v in range(1, self.num_vars + 1)
            if not assignment.is_assigned(v) and v not in self.banned
        ]
        if not free:
            return None
        var = self._rng.choice(free)
        return var if self.phase[var] else -var


class JeroslowWangHeuristic(_ActivityFreeHeuristic):
    """One-sided Jeroslow-Wang: J(l) = sum over clauses containing l of
    2^-|clause|, scored once from the input formula. Picks the free
    variable with the best literal score and branches on that phase."""

    def __init__(self, num_vars: int, clause_literal_lists, default_phase: bool = False):
        super().__init__(num_vars, default_phase)
        score: dict[int, float] = {}
        for literals in clause_literal_lists:
            if not literals:
                continue
            weight = 2.0 ** -len(literals)
            for lit in literals:
                score[lit] = score.get(lit, 0.0) + weight
        self._score = score
        # Pre-rank variables by their best literal score (descending).
        def var_key(var: int) -> float:
            return max(score.get(var, 0.0), score.get(-var, 0.0))

        self._order = sorted(range(1, num_vars + 1), key=var_key, reverse=True)
        for var in range(1, num_vars + 1):
            self.phase[var] = score.get(var, 0.0) >= score.get(-var, 0.0)

    def save_phase(self, lit: int) -> None:
        pass  # JW keeps its static polarity preference

    def pick_branch(self, assignment: Assignment) -> int | None:
        for var in self._order:
            if not assignment.is_assigned(var) and var not in self.banned:
                return var if self.phase[var] else -var
        return None


def make_decision_heuristic(name: str, num_vars: int, db, config):
    """Factory keyed by ``SolverConfig.decision_heuristic``."""
    if name == "vsids":
        return VsidsHeuristic(
            num_vars,
            var_decay=config.var_decay,
            default_phase=config.default_phase,
            random_freq=config.random_decision_freq,
            seed=config.seed,
        )
    if name == "static":
        return StaticOrderHeuristic(num_vars, default_phase=config.default_phase)
    if name == "random":
        return RandomHeuristic(num_vars, default_phase=config.default_phase, seed=config.seed)
    if name == "jeroslow-wang":
        return JeroslowWangHeuristic(
            num_vars,
            (db.lits[cid] for cid in sorted(db.lits) if cid <= db.num_original),
            default_phase=config.default_phase,
        )
    raise ValueError(f"unknown decision heuristic {name!r}")
