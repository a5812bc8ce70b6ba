"""Decision-heuristic variants and learned-clause minimization."""

import pytest

from repro.checker import BreadthFirstChecker, DepthFirstChecker
from repro.cnf import Assignment, CnfFormula
from repro.solver import SolverConfig, solve_formula
from repro.solver.decision import (
    JeroslowWangHeuristic,
    RandomHeuristic,
    StaticOrderHeuristic,
    make_decision_heuristic,
)
from repro.solver.reference import reference_is_satisfiable
from repro.trace import InMemoryTraceWriter

from tests.conftest import pigeonhole, random_3sat

HEURISTICS = ["vsids", "static", "random", "jeroslow-wang"]


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_all_heuristics_complete_and_correct(heuristic):
    config = SolverConfig(decision_heuristic=heuristic)
    assert solve_formula(pigeonhole(5, 4), config).is_unsat
    formula = random_3sat(15, 55, seed=3)
    result = solve_formula(formula, SolverConfig(decision_heuristic=heuristic))
    assert result.is_sat == reference_is_satisfiable(formula)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_all_heuristics_produce_checkable_traces(heuristic):
    formula = pigeonhole(5, 4)
    writer = InMemoryTraceWriter()
    result = solve_formula(
        formula, SolverConfig(decision_heuristic=heuristic), trace_writer=writer
    )
    assert result.is_unsat
    assert DepthFirstChecker(formula, writer.to_trace()).check().verified


@pytest.mark.parametrize("default_phase", [False, True])
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_declared_but_unused_variables_take_the_default_phase(heuristic, default_phase):
    # The header declares 8 variables; clauses use only 1-3. The solver
    # sizes its arrays from the variables used, so it never branches on
    # 4-8 (one decision, on a used variable, then BCP finishes) and the
    # model gives each of them ``default_phase``, whatever the heuristic.
    formula = CnfFormula(8, [[1, 2], [-1, 3], [-2, -3]])
    config = SolverConfig(decision_heuristic=heuristic, default_phase=default_phase, seed=3)
    result = solve_formula(formula, config)
    assert result.is_sat
    assert sorted(result.model) == list(range(1, 9))
    assert formula.evaluate(result.model)
    assert all(result.model[var] is default_phase for var in range(4, 9))
    assert result.stats.decisions == 1
    assert result.stats.propagations == 3


def test_unknown_heuristic_rejected():
    with pytest.raises(ValueError):
        SolverConfig(decision_heuristic="oracle")
    with pytest.raises(ValueError):
        make_decision_heuristic("oracle", 3, None, SolverConfig())


class TestIndividualHeuristics:
    def test_static_order_picks_lowest_free(self):
        heuristic = StaticOrderHeuristic(4)
        assignment = Assignment(4)
        assignment.assign(1)
        assert abs(heuristic.pick_branch(assignment)) == 2

    def test_static_exhausted(self):
        heuristic = StaticOrderHeuristic(1)
        assignment = Assignment(1)
        assignment.assign(1)
        assert heuristic.pick_branch(assignment) is None

    def test_random_is_seeded(self):
        picks = []
        for _ in range(2):
            heuristic = RandomHeuristic(20, seed=4)
            assignment = Assignment(20)
            picks.append([heuristic.pick_branch(assignment) for _ in range(5)])
        assert picks[0] == picks[1]

    def test_jw_prefers_short_clause_variables(self):
        # x1 appears in a unit clause (weight 1/2); x2 only in a long one.
        clauses = [[1], [2, 3, 4, 5]]
        heuristic = JeroslowWangHeuristic(5, clauses)
        assignment = Assignment(5)
        assert abs(heuristic.pick_branch(assignment)) == 1

    def test_jw_polarity_follows_scores(self):
        clauses = [[-1, 2], [-1, 3], [1, 2, 3]]
        heuristic = JeroslowWangHeuristic(3, clauses)
        assignment = Assignment(3)
        assert heuristic.pick_branch(assignment) == -1  # negative phase scores higher


class TestMinimization:
    def test_minimization_shrinks_or_matches_learned_lengths(self):
        formula = pigeonhole(6, 5)
        base = solve_formula(formula, SolverConfig(minimize_learned=False))
        minimized = solve_formula(formula, SolverConfig(minimize_learned=True))
        assert base.is_unsat and minimized.is_unsat
        # Minimization prunes the search: never more conflicts on PHP.
        assert minimized.stats.conflicts <= base.stats.conflicts

    @pytest.mark.parametrize("seed", range(5))
    def test_minimized_traces_check_on_random_unsat(self, seed):
        formula = random_3sat(20, 130, seed=seed)
        writer = InMemoryTraceWriter()
        result = solve_formula(
            formula, SolverConfig(minimize_learned=True, seed=seed), trace_writer=writer
        )
        if not result.is_unsat:
            pytest.skip("instance happened to be SAT")
        trace = writer.to_trace()
        assert DepthFirstChecker(formula, trace).check().verified
        assert BreadthFirstChecker(formula, trace).check().verified

    def test_minimization_records_extra_sources(self):
        formula = pigeonhole(6, 5)
        plain_writer = InMemoryTraceWriter()
        solve_formula(formula, SolverConfig(minimize_learned=False), trace_writer=plain_writer)
        mini_writer = InMemoryTraceWriter()
        solve_formula(formula, SolverConfig(minimize_learned=True), trace_writer=mini_writer)
        plain_avg = _average_sources(plain_writer)
        mini_avg = _average_sources(mini_writer)
        # Minimization trades shorter clauses for more recorded resolutions.
        assert mini_avg >= plain_avg

    def test_minimization_correct_on_sat(self):
        formula = random_3sat(15, 55, seed=9)
        result = solve_formula(formula, SolverConfig(minimize_learned=True))
        assert result.is_sat == reference_is_satisfiable(formula)


def _average_sources(writer: InMemoryTraceWriter) -> float:
    trace = writer.to_trace()
    if not trace.learned:
        return 0.0
    return sum(len(r.sources) for r in trace.learned.values()) / len(trace.learned)
