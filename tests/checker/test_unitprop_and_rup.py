"""Unit tests for the RUP machinery: propagation engine, DRUP parsing, checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnf import CnfFormula
from repro.checker import DrupWriter, RupChecker
from repro.checker.errors import CheckFailure
from repro.checker.rup import iter_drup
from repro.checker.unitprop import UnitPropagator


class TestUnitPropagator:
    def test_direct_conflict_in_assumptions(self):
        engine = UnitPropagator(2)
        assert engine.propagate([1, -1])

    def test_chain_propagation_to_conflict(self):
        engine = UnitPropagator(3)
        engine.add_clause([-1, 2])
        engine.add_clause([-2, 3])
        engine.add_clause([-3])
        assert engine.propagate([1])

    def test_no_conflict(self):
        engine = UnitPropagator(3)
        engine.add_clause([-1, 2])
        assert not engine.propagate([1])

    def test_db_unit_clauses_fire(self):
        engine = UnitPropagator(2)
        engine.add_clause([1])
        engine.add_clause([-1, 2])
        engine.add_clause([-2])
        assert engine.propagate([])

    def test_empty_clause_is_immediate_conflict(self):
        engine = UnitPropagator(1)
        engine.add_clause([])
        assert engine.propagate([])

    def test_removed_clause_ignored(self):
        engine = UnitPropagator(2)
        index = engine.add_clause([-1])
        assert engine.propagate([1])
        engine.remove_clause(index)
        assert not engine.propagate([1])
        engine.remove_clause(index)  # double removal is a no-op

    def test_duplicate_literals_deduped(self):
        engine = UnitPropagator(2)
        index = engine.add_clause([1, 1, 2])
        assert engine.clauses[index] == [1, 2]

    def test_grow(self):
        engine = UnitPropagator(2)
        engine.add_clause([5])
        assert engine.num_vars == 5

    def test_removing_a_level0_reason_undoes_its_consequences(self):
        engine = UnitPropagator(3)
        unit = engine.add_clause([1])
        engine.add_clause([-1, 2])
        engine.add_clause([-2, 3])
        assert engine.propagate([-3])
        engine.remove_clause(unit)
        assert not engine.propagate([-3])
        engine.add_clause([1])
        assert engine.propagate([-3])

    def test_duplicate_unit_survives_removal_of_its_twin(self):
        engine = UnitPropagator(2)
        first = engine.add_clause([1])
        engine.add_clause([1])
        engine.add_clause([-1, 2])
        engine.remove_clause(first)
        assert engine.propagate([-2])

    def test_removal_re_derives_through_an_alternative_reason(self):
        engine = UnitPropagator(3)
        engine.add_clause([1])
        reason = engine.add_clause([-1, 2])
        engine.add_clause([-1, 3, 2])
        engine.add_clause([-3])
        engine.remove_clause(reason)
        # (-1 3 2) with x1 true and x3 false still implies x2.
        assert engine.propagate([-2])

    def test_truncation_re_derives_literals_whose_reason_survives(self):
        engine = UnitPropagator(5)
        engine.add_clause([1])
        unit = engine.add_clause([2])
        engine.add_clause([-1, 3])  # x3 lands on the trail after x2
        engine.add_clause([-3, -5, 4])
        engine.add_clause([-3, -5, -4])
        engine.remove_clause(unit)  # undoes x2 and, with it, x3
        # x3 must come back: only with it does x5 refute the database.
        assert engine.propagate([5])

    def test_level0_conflict_outlives_unrelated_removals(self):
        engine = UnitPropagator(3)
        unrelated = engine.add_clause([2, 3])
        unit = engine.add_clause([1])
        engine.add_clause([-1])
        engine.remove_clause(unrelated)
        assert engine.propagate_tracked([]) == (True, [1, 2])
        engine.remove_clause(unit)
        assert not engine.propagate([])
        assert engine.propagate([1])

    def test_tracked_cone_of_a_level0_conflict(self):
        engine = UnitPropagator(3)
        engine.add_clause([1, 2])
        engine.add_clause([-1])
        engine.add_clause([-2, 3])
        engine.add_clause([-3])
        assert engine.propagate_tracked([]) == (True, [0, 1, 2, 3])


def _fixpoint_conflict(clauses, assumptions) -> bool:
    """Naive unit propagation to a fixpoint: the differential oracle."""
    true: set[int] = set()
    for lit in assumptions:
        if -lit in true:
            return True
        true.add(lit)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            free = {lit for lit in clause if -lit not in true}
            if not free:
                return True
            if len(free) == 1:
                true.add(free.pop())
                changed = True
    return False


#: Variables 1..6 against a declared header of 3, so literals beyond
#: ``num_vars`` appear in both clauses and assumptions.
DECLARED_VARS = 3
_lits = st.integers(min_value=-6, max_value=6).filter(bool)
# Short clauses with duplicate literals and tautologies; units and binaries
# are common, so level-0 reasons are frequently the clause removed. Empty
# clauses are kept rare: each one refutes level 0 until it is removed.
_clauses = st.integers(min_value=0, max_value=9).flatmap(
    lambda k: st.just([]) if k == 0 else st.lists(_lits, min_size=1, max_size=4)
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _clauses),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=40)),
        st.tuples(
            st.sampled_from(["propagate", "propagate_tracked"]),
            st.lists(_lits, max_size=3),
        ),
    ),
    max_size=40,
)


class TestUnitPropagatorDifferential:
    @settings(max_examples=400, deadline=None)
    @given(_ops)
    def test_interleavings_match_the_fixpoint_oracle(self, ops):
        engine = UnitPropagator(DECLARED_VARS)
        live: dict[int, list[int]] = {}
        for op, arg in ops:
            if op == "add":
                live[engine.add_clause(arg)] = list(arg)
            elif op == "remove":
                if engine.clauses:
                    # Any slot, live or already removed (a no-op).
                    index = arg % len(engine.clauses)
                    engine.remove_clause(index)
                    live.pop(index, None)
            else:
                expected = _fixpoint_conflict(live.values(), arg)
                if op == "propagate":
                    assert engine.propagate(arg) == expected
                    continue
                conflict, used = engine.propagate_tracked(arg)
                assert conflict == expected
                if conflict:
                    assert set(used) <= set(live)
                    cone = [live[index] for index in used]
                    assert _fixpoint_conflict(cone, arg)
                else:
                    assert used == []


class TestDrupFormat:
    def test_writer_reader_roundtrip(self, tmp_path):
        path = tmp_path / "p.drup"
        with DrupWriter(path) as writer:
            writer.add_clause([1, -2])
            writer.delete_clause([1, -2])
            writer.finish_unsat()
        steps = list(iter_drup(path))
        assert steps == [("add", [1, -2]), ("delete", [1, -2]), ("add", [])]

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "p.drup"
        path.write_text("c comment\n1 2 0\n")
        assert list(iter_drup(path)) == [("add", [1, 2])]

    def test_missing_terminator_rejected(self, tmp_path):
        path = tmp_path / "p.drup"
        path.write_text("1 2\n")
        with pytest.raises(CheckFailure):
            list(iter_drup(path))

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "p.drup"
        path.write_text("1 x 0\n")
        with pytest.raises(CheckFailure):
            list(iter_drup(path))


class TestRupChecker:
    def test_handwritten_valid_proof(self, tmp_path):
        # PHP(2,1): (x1)(x2)(-x1 -x2). Proof: the empty clause is RUP.
        formula = CnfFormula(2, [[1], [2], [-1, -2]])
        proof = tmp_path / "p.drup"
        proof.write_text("0\n")
        assert RupChecker(formula, proof).check().verified

    def test_non_rup_clause_rejected(self, tmp_path):
        formula = CnfFormula(2, [[1, 2]])
        proof = tmp_path / "p.drup"
        proof.write_text("1 0\n0\n")  # (x1) is not implied by (x1|x2)
        report = RupChecker(formula, proof).check()
        assert not report.verified
        assert "not RUP" in str(report.failure)

    def test_proof_without_empty_clause_rejected(self, tmp_path):
        formula = CnfFormula(2, [[1], [-1, 2]])
        proof = tmp_path / "p.drup"
        proof.write_text("2 0\n")
        report = RupChecker(formula, proof).check()
        assert not report.verified
        assert report.failure.kind.value == "not-empty"

    def test_deletions_respected(self, tmp_path):
        # Deleting the clause that made step 2 RUP must break the proof.
        formula = CnfFormula(2, [[1], [-1, 2], [-2]])
        proof = tmp_path / "p.drup"
        proof.write_text("d 1 0\nd -1 2 0\nd -2 0\n0\n")
        report = RupChecker(formula, proof).check()
        assert not report.verified

    def test_deleting_unknown_clause_tolerated(self, tmp_path):
        formula = CnfFormula(2, [[1], [-1]])
        proof = tmp_path / "p.drup"
        proof.write_text("d 5 6 0\n0\n")
        assert RupChecker(formula, proof).check().verified
