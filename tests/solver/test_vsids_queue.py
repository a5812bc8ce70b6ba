"""The VSIDS queue discipline: same decisions as a heap that re-pushes
every unassigned variable, with heap pushes only where something changed.

``LazyHeapVsids`` below is the heuristic as it was before the queued flag:
every bump pushes, every backtrack re-pushes every undone variable. It is
the oracle the differential test drives :class:`VsidsHeuristic` against.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import Assignment
from repro.solver.vsids import VsidsHeuristic


class LazyHeapVsids:
    """Lazy-deletion heap that pushes on every bump and every requeue."""

    def __init__(self, num_vars, var_decay=0.95, default_phase=False, random_freq=0.0, seed=0):
        self.num_vars = num_vars
        self.activity = [0.0] * (num_vars + 1)
        self.phase = [default_phase] * (num_vars + 1)
        self.banned: set[int] = set()
        self.var_inc = 1.0
        self.var_decay = var_decay
        self.random_freq = random_freq
        self._rng = random.Random(seed)
        self._heap = [(0.0, v) for v in range(1, num_vars + 1)]
        heapq.heapify(self._heap)

    def bump(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            self._rescale()
        heapq.heappush(self._heap, (-self.activity[var], var))

    def decay(self):
        self.var_inc /= self.var_decay

    def _rescale(self):
        for var in range(1, self.num_vars + 1):
            self.activity[var] *= 1e-100
        self.var_inc *= 1e-100
        self._heap = [(-self.activity[v], v) for v in range(1, self.num_vars + 1)]
        heapq.heapify(self._heap)

    def save_phase(self, lit):
        self.phase[abs(lit)] = lit > 0

    def requeue(self, var):
        heapq.heappush(self._heap, (-self.activity[var], var))

    def pick_branch(self, assignment):
        if self.random_freq and self._rng.random() < self.random_freq:
            free = [
                v
                for v in range(1, self.num_vars + 1)
                if not assignment.is_assigned(v) and v not in self.banned
            ]
            if not free:
                return None
            var = self._rng.choice(free)
            return var if self.phase[var] else -var
        while self._heap:
            neg_act, var = heapq.heappop(self._heap)
            if assignment.is_assigned(var) or var in self.banned:
                continue
            if -neg_act != self.activity[var]:
                continue
            return var if self.phase[var] else -var
        for var in range(1, self.num_vars + 1):
            if not assignment.is_assigned(var) and var not in self.banned:
                heapq.heappush(self._heap, (-self.activity[var], var))
                return var if self.phase[var] else -var
        return None


NUM_VARS = 12

operations = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.integers(1, NUM_VARS)),
        st.tuples(st.just("analyze"), st.lists(st.integers(0, 40), max_size=6)),
        st.tuples(st.just("decay")),
        st.tuples(st.just("assign"), st.integers(-NUM_VARS, NUM_VARS).filter(bool)),
        st.tuples(st.just("decide")),
        st.tuples(st.just("backtrack"), st.integers(0, 6)),
        st.tuples(st.just("rescale")),
    ),
    max_size=80,
)


@given(
    ops=operations,
    random_freq=st.sampled_from([0.0, 0.3]),
    banned=st.sets(st.integers(1, NUM_VARS), max_size=2),
    seed=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_decisions_match_the_lazy_heap_oracle(ops, random_freq, banned, seed):
    new = VsidsHeuristic(NUM_VARS, random_freq=random_freq, seed=seed)
    old = LazyHeapVsids(NUM_VARS, random_freq=random_freq, seed=seed)
    new.banned.update(banned)
    old.banned.update(banned)
    assignment = Assignment(NUM_VARS)
    picks = []

    def decide():
        lit = new.pick_branch(assignment)
        assert lit == old.pick_branch(assignment)
        picks.append(lit)
        if lit is not None:
            assignment.new_decision_level()
            assignment.assign(lit)
        return lit

    for op in ops:
        kind = op[0]
        if kind == "bump":
            new.bump(op[1])
            old.bump(op[1])
        elif kind == "analyze":
            # Conflict analysis bumps assigned variables only, in the
            # order it meets them, each once.
            trail = assignment.trail
            met = list(dict.fromkeys(abs(trail[i % len(trail)]) for i in op[1] if trail))
            new.bump_all(met)
            for var in met:
                old.bump(var)
        elif kind == "decay":
            new.decay()
            old.decay()
        elif kind == "assign":
            lit = op[1]
            if not assignment.is_assigned(abs(lit)):
                assignment.assign(lit)  # a propagation: nothing is popped
        elif kind == "decide":
            decide()
        elif kind == "backtrack":
            level = op[1]
            if level >= assignment.decision_level:
                continue
            undone = assignment.trail[assignment.level_limits[level]:]
            assignment.backtrack(level)
            new.unassign(undone)
            for lit in undone:
                old.save_phase(lit)
                old.requeue(abs(lit))
        elif kind == "rescale":
            # The next bump pushes an activity past 1e100.
            new.var_inc = old.var_inc = 1e101
        assert new.activity == old.activity
        assert new.phase == old.phase
    # Drain: every remaining decision agrees too.
    while decide() is not None:
        pass
    assert picks[-1] is None


def test_backtracking_over_propagated_variables_pushes_nothing():
    heuristic = VsidsHeuristic(4)
    assignment = Assignment(4)
    decision = heuristic.pick_branch(assignment)
    assert decision == -1  # all activities tie: lowest index, default phase
    assignment.new_decision_level()
    assignment.assign(decision)
    assignment.assign(3)  # propagated: its heap entry was never popped
    assignment.assign(-4)
    before = Counter(heuristic._heap)
    undone = list(assignment.trail)
    assignment.backtrack(0)
    heuristic.unassign(undone)
    # Only the decision, which pick_branch popped, goes back on the heap.
    assert Counter(heuristic._heap) - before == Counter({(0.0, 1): 1})
    assert len(heuristic._heap) == len(before) + 1
    assert heuristic.phase[1:] == [False, False, True, False]


def test_conflict_bumps_push_once_when_unassigned():
    heuristic = VsidsHeuristic(4)
    assignment = Assignment(4)
    assignment.new_decision_level()
    for lit in (2, -3):
        assignment.assign(lit)
    size = len(heuristic._heap)
    heuristic.bump_all([2, 3])
    heuristic.bump_all([3])
    assert len(heuristic._heap) == size  # assigned: nothing to queue yet
    undone = list(assignment.trail)
    assignment.backtrack(0)
    heuristic.unassign(undone)
    # One entry each, at the activity the variable has now.
    assert len(heuristic._heap) == size + 2
    assert (-heuristic.activity[3], 3) in heuristic._heap
    assert abs(heuristic.pick_branch(assignment)) == 3
