"""Unit tests for solver internals: database, VSIDS, restarts, conflict analysis."""

import pytest

from repro.cnf import Assignment, CnfFormula
from repro.solver.conflict import analyze_conflict
from repro.solver.database import ClauseDatabase
from repro.solver.restarts import (
    GeometricRestartPolicy,
    LubyRestartPolicy,
    NoRestartPolicy,
    make_restart_policy,
)
from repro.solver.vsids import VsidsHeuristic


class TestClauseDatabase:
    def test_from_formula_numbers_clauses(self):
        formula = CnfFormula(3, [[1, 2], [-2, 3]])
        db = ClauseDatabase.from_formula(formula)
        assert db.num_original == 2
        assert db.clause_literals(1) == [1, 2]
        assert db.clause_literals(2) == [-2, 3]

    def test_special_original_clauses_tracked(self):
        db = ClauseDatabase(3)
        unit = db.add_original([2])
        empty = db.add_original([])
        assert db.unit_originals == [unit]
        assert db.empty_original == empty

    def test_watches_attached_to_first_two_literals(self):
        db = ClauseDatabase(4)
        cid = db.add_original([1, -2, 3])
        assert db.watchers_of(1) == [(cid, [1, -2, 3])]
        assert db.watchers_of(-2) == [(cid, [1, -2, 3])]
        assert db.watchers_of(3) == []

    def test_watch_entries_share_the_clause_literal_list(self):
        db = ClauseDatabase(4)
        cid = db.add_original([1, -2, 3])
        (entry,) = db.watchers_of(1)
        assert entry[0] == cid
        assert entry[1] is db.clause_literals(cid)
        assert db.watchers_of(-2)[0][1] is db.clause_literals(cid)

    def test_watches_are_literal_indexed(self):
        db = ClauseDatabase(4)
        cid = db.add_original([-4, 1])
        assert len(db.watches) == 2 * 4 + 1
        assert db.watches[-4] is db.watchers_of(-4) == [(cid, [-4, 1])]
        assert db.watches[1] is db.watchers_of(1) == [(cid, [-4, 1])]
        # Opposite polarities of one variable never share a list.
        assert db.watchers_of(4) == [] and db.watchers_of(-1) == []

    def test_watches_sized_from_variables_used_not_declared(self):
        db = ClauseDatabase.from_formula(CnfFormula(10**6, [[1, -2], [2]]))
        assert db.num_vars == 2
        assert len(db.watches) == 2 * 2 + 1

    def test_learned_ids_continue_numbering(self):
        db = ClauseDatabase(3)
        db.add_original([1, 2])
        learned = db.add_learned([-1, 3])
        assert learned == 2
        assert db.is_learned(learned)
        assert not db.is_learned(1)

    def test_reduce_learned_respects_locked_and_binary(self):
        db = ClauseDatabase(6)
        db.add_original([1, 2])
        locked = db.add_learned([-1, 2, 3])
        low_activity = db.add_learned([-2, 3, 4])
        binary = db.add_learned([5, 6])
        db.bump_clause(locked)
        deleted = db.reduce_learned(locked={locked})
        assert deleted == [(low_activity, [-2, 3, 4])]
        assert locked in db
        assert binary in db
        assert low_activity not in db

    def test_deleted_clause_detached_from_watches(self):
        db = ClauseDatabase(4)
        db.add_original([1, 2])
        cid = db.add_learned([-1, 3, 4])
        db.reduce_learned(locked=set())
        assert cid not in [entry[0] for entry in db.watchers_of(-1)]
        assert cid not in [entry[0] for entry in db.watchers_of(3)]

    def test_activity_rescale(self):
        db = ClauseDatabase(3)
        cid = db.add_learned([1, 2, 3])
        db.cla_inc = 1e100
        db.bump_clause(cid)
        assert db.activity[cid] < 1e100


class TestVsids:
    def test_picks_unassigned_variable(self):
        heuristic = VsidsHeuristic(3)
        assignment = Assignment(3)
        assignment.assign(1)
        assignment.assign(2)
        lit = heuristic.pick_branch(assignment)
        assert abs(lit) == 3

    def test_highest_activity_wins(self):
        heuristic = VsidsHeuristic(5)
        assignment = Assignment(5)
        heuristic.bump(4)
        heuristic.bump(4)
        heuristic.bump(2)
        assert abs(heuristic.pick_branch(assignment)) == 4

    def test_all_assigned_returns_none(self):
        heuristic = VsidsHeuristic(2)
        assignment = Assignment(2)
        assignment.assign(1)
        assignment.assign(-2)
        assert heuristic.pick_branch(assignment) is None

    def test_phase_saving(self):
        heuristic = VsidsHeuristic(2, default_phase=False)
        assignment = Assignment(2)
        heuristic.bump(1)
        assert heuristic.pick_branch(assignment) == -1  # default negative
        heuristic.save_phase(1)
        heuristic.requeue(1)
        assert heuristic.pick_branch(assignment) == 1  # remembered positive

    def test_decay_keeps_relative_order(self):
        heuristic = VsidsHeuristic(3)
        heuristic.bump(1)
        heuristic.decay()
        heuristic.bump(2)  # post-decay bump outweighs the earlier one
        assignment = Assignment(3)
        assert abs(heuristic.pick_branch(assignment)) == 2

    def test_activity_rescale(self):
        heuristic = VsidsHeuristic(2)
        heuristic.var_inc = 1e100
        heuristic.bump(1)
        heuristic.bump(1)
        assert heuristic.activity[1] < 1e100

    def test_random_decisions_deterministic_by_seed(self):
        picks_a = []
        picks_b = []
        for picks, seed in ((picks_a, 9), (picks_b, 9)):
            heuristic = VsidsHeuristic(10, random_freq=1.0, seed=seed)
            assignment = Assignment(10)
            for _ in range(5):
                lit = heuristic.pick_branch(assignment)
                picks.append(lit)
                assignment.assign(lit)
        assert picks_a == picks_b


class TestRestartPolicies:
    def test_no_restart(self):
        assert not NoRestartPolicy().should_restart(10**9)

    def test_geometric_growth(self):
        policy = GeometricRestartPolicy(first=10, inc=2.0)
        assert not policy.should_restart(9)
        assert policy.should_restart(10)
        policy.on_restart()
        assert not policy.should_restart(19)
        assert policy.should_restart(20)

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            GeometricRestartPolicy(first=0)
        with pytest.raises(ValueError):
            GeometricRestartPolicy(inc=0.5)

    def test_luby_sequence_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [LubyRestartPolicy.luby(i) for i in range(1, 16)] == expected

    def test_luby_policy_advances(self):
        policy = LubyRestartPolicy(unit=2)
        assert policy.should_restart(2)
        policy.on_restart()
        assert policy.should_restart(2)
        policy.on_restart()
        assert not policy.should_restart(2)  # third element is 2 -> needs 4
        assert policy.should_restart(4)

    def test_factory(self):
        assert isinstance(make_restart_policy("none"), NoRestartPolicy)
        assert isinstance(make_restart_policy("geometric"), GeometricRestartPolicy)
        assert isinstance(make_restart_policy("luby"), LubyRestartPolicy)
        with pytest.raises(ValueError):
            make_restart_policy("fibonacci")


class TestConflictAnalysis:
    def _setup(self):
        """Hand-built scenario with a conflict at decision level 2.

        Clauses: c1 = (-1, 2), c2 = (-1, -3, 4), c3 = (-2, -4, 5),
        c4 = (-4, -5). Decisions: x1@1, x3@2. BCP at level 2: c2 implies
        x4, c3 implies x5, c4 conflicts.
        """
        formula = CnfFormula(5, [[-1, 2], [-1, -3, 4], [-2, -4, 5], [-4, -5]])
        db = ClauseDatabase.from_formula(formula)
        assignment = Assignment(5)
        assignment.new_decision_level()
        assignment.assign(1)
        assignment.assign(2, antecedent=1)
        assignment.new_decision_level()
        assignment.assign(3)
        assignment.assign(4, antecedent=2)
        assignment.assign(5, antecedent=3)
        return db, assignment

    def test_first_uip(self):
        db, assignment = self._setup()
        analysis = analyze_conflict(4, db, assignment)
        # Resolving c4 with c3 (pivot x5) gives (-2, -4): x4 is the 1-UIP.
        assert analysis.asserting_literal == -4
        assert set(analysis.learned_literals) == {-2, -4}
        assert analysis.sources == [4, 3]
        assert analysis.backtrack_level == 1

    def test_sources_order_resolves_cleanly(self):
        from repro.checker.resolution import resolve_chain

        db, assignment = self._setup()
        analysis = analyze_conflict(4, db, assignment)
        chain = [(cid, frozenset(db.clause_literals(cid))) for cid in analysis.sources]
        assert resolve_chain(chain) == frozenset(analysis.learned_literals)

    def test_rejects_level_zero(self):
        db, assignment = self._setup()
        assignment.backtrack(0)
        with pytest.raises(ValueError):
            analyze_conflict(4, db, assignment)

    def test_bump_callbacks_invoked(self):
        db, assignment = self._setup()
        bumped_vars: list[int] = []
        bumped_clauses: list[int] = []
        analyze_conflict(
            4, db, assignment,
            bump_vars=bumped_vars.extend,
            bump_clause=bumped_clauses.append,
        )
        assert 4 in bumped_vars and 5 in bumped_vars
        assert bumped_clauses[0] == 4  # the conflicting clause
