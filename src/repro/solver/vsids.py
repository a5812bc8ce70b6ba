"""VSIDS-style decision heuristic with phase saving.

Chaff's contribution: each variable carries an activity score bumped when
the variable participates in conflict analysis; scores decay geometrically
so recent conflicts dominate.

Selection uses a max-heap of ``(-activity, var)`` with lazy deletion. A
bump leaves a variable's old entries behind as *stale*, and
``pick_branch`` pops past stale entries and past assigned or banned
variables. The heap's invariant is that every unassigned variable
has a *current* entry, one carrying its present activity. The first live
entry popped is then the unassigned variable of highest activity, ties
broken by the lower index.

``_queued[var]`` records that a current entry for ``var`` exists.
Pushing one sets it (``bump``, ``requeue``, ``unassign``, a rescale and
the linear-scan fallback); ``pick_branch`` clears it when it pops a
current entry, and ``bump_all`` clears it because the bump makes every
entry stale. ``bump_all`` is conflict analysis's batch bump: its
variables are all assigned, so it pushes nothing and leaves the push to
the backtrack that unassigns them. Unassigning pushes only variables
whose flag is clear, so a variable propagated and undone without being
bumped or reaching the top of the heap costs no heap traffic. Decisions
are exactly those of a heap that pushes on every bump and re-pushes every
unassigned variable, because both keep the same invariant.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Iterable

from repro.cnf import Assignment
from repro.cnf.assignment import UNASSIGNED


class VsidsHeuristic:
    """Activity-driven branching with saved phases."""

    def __init__(
        self,
        num_vars: int,
        var_decay: float = 0.95,
        default_phase: bool = False,
        random_freq: float = 0.0,
        seed: int = 0,
    ):
        self.num_vars = num_vars
        self.activity = [0.0] * (num_vars + 1)
        self.phase = [default_phase] * (num_vars + 1)
        self.banned: set[int] = set()  # e.g. variables eliminated by preprocessing
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.random_freq = random_freq
        self._rng = random.Random(seed)
        self._heap: list[tuple[float, int]] = []
        self._queued = [False] * (num_vars + 1)
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Give every variable exactly one current entry."""
        activity = self.activity
        self._heap[:] = [(-activity[v], v) for v in range(1, self.num_vars + 1)]
        heapify(self._heap)
        self._queued[1:] = [True] * self.num_vars

    def bump(self, var: int) -> None:
        """Increase a variable's activity and queue it at the new one.

        The solver bumps through ``bump_all`` only; this single-variable
        form serves the heuristic's unit tests, which bump unassigned
        variables and so need the push.
        """
        self.bump_all((var,))
        self.requeue(var)

    def bump_all(self, variables: Iterable[int]) -> None:
        """Bump the variables one conflict analysis met, in order.

        They are all assigned (each sits in a falsified or implying
        clause), so none needs a heap entry until a backtrack unassigns
        it: the bump only marks its old entries stale, and ``unassign``
        pushes it at whatever activity it has by then.
        """
        activity = self.activity
        queued = self._queued
        inc = self.var_inc
        for var in variables:
            act = activity[var] + inc
            activity[var] = act
            queued[var] = False
            if act > 1e100:
                self._rescale()  # queues every variable at its new activity
                inc = self.var_inc

    def decay(self) -> None:
        """Geometric decay, implemented by scaling the increment."""
        self.var_inc /= self.var_decay

    def _rescale(self) -> None:
        for var in range(1, self.num_vars + 1):
            self.activity[var] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_heap()

    def save_phase(self, lit: int) -> None:
        """Remember the polarity a variable was last assigned."""
        self.phase[abs(lit)] = lit > 0

    def requeue(self, var: int) -> None:
        """Give one variable a current heap entry if it lacks one.

        The solver requeues through ``unassign`` only; this form serves
        ``bump`` and the heuristic's unit tests.
        """
        if not self._queued[var]:
            self._queued[var] = True
            heappush(self._heap, (-self.activity[var], var))

    def unassign(self, lits: Iterable[int]) -> None:
        """Save the phase of, and requeue, every literal a backtrack undoes."""
        phase = self.phase
        queued = self._queued
        activity = self.activity
        heap = self._heap
        for lit in lits:
            if lit > 0:
                var = lit
                phase[var] = True
            else:
                var = -lit
                phase[var] = False
            if not queued[var]:
                queued[var] = True
                heappush(heap, (-activity[var], var))

    def pick_branch(self, assignment: Assignment) -> int | None:
        """Return the decision literal, or None if all variables assigned."""
        values = assignment.values
        banned = self.banned
        if self.random_freq and self._rng.random() < self.random_freq:
            free = [
                v
                for v in range(1, self.num_vars + 1)
                if values[v] == UNASSIGNED and v not in banned
            ]
            if not free:
                return None
            var = self._rng.choice(free)
            return var if self.phase[var] else -var
        heap = self._heap
        activity = self.activity
        queued = self._queued
        while heap:
            neg_act, var = heappop(heap)
            if -neg_act != activity[var]:
                # Stale entry: a fresher one with the true activity exists.
                continue
            queued[var] = False
            if values[var] != UNASSIGNED or var in banned:
                continue
            return var if self.phase[var] else -var
        # Heap exhausted: fall back to a linear scan (covers stale-heap cases).
        for var in range(1, self.num_vars + 1):
            if values[var] == UNASSIGNED and var not in banned:
                heappush(heap, (-activity[var], var))
                queued[var] = True
                return var if self.phase[var] else -var
        return None
