"""Unit tests for the assignment trail."""

import pytest

from repro.cnf import Assignment, FALSE, TRUE, UNASSIGNED


def test_initial_state():
    asg = Assignment(3)
    assert asg.decision_level == 0
    assert asg.num_assigned() == 0
    assert asg.value_of_lit(1) == UNASSIGNED
    assert not asg.is_assigned(2)


def test_assign_and_query_both_phases():
    asg = Assignment(3)
    asg.assign(2)
    assert asg.value_of_lit(2) == TRUE
    assert asg.value_of_lit(-2) == FALSE
    asg.assign(-3)
    assert asg.value_of_lit(3) == FALSE
    assert asg.value_of_lit(-3) == TRUE


def test_double_assignment_rejected():
    asg = Assignment(2)
    asg.assign(1)
    with pytest.raises(ValueError):
        asg.assign(-1)


def test_decision_levels_and_antecedents():
    asg = Assignment(4)
    asg.assign(1, antecedent=5)  # level 0 implication
    assert asg.levels[1] == 0
    assert asg.antecedents[1] == 5
    asg.new_decision_level()
    asg.assign(2)  # decision
    asg.assign(3, antecedent=7)
    assert asg.levels[2] == 1
    assert asg.levels[3] == 1
    assert asg.antecedents[2] == 0


def test_positions_record_chronology():
    asg = Assignment(3)
    asg.assign(3)
    asg.assign(-1)
    asg.assign(2)
    assert asg.positions[3] < asg.positions[1] < asg.positions[2]


def test_backtrack_clears_above_level():
    asg = Assignment(5)
    asg.assign(1)
    asg.new_decision_level()
    asg.assign(2)
    asg.new_decision_level()
    asg.assign(3)
    asg.assign(4)
    asg.backtrack(1)
    assert asg.decision_level == 1
    assert asg.is_assigned(1) and asg.is_assigned(2)
    assert not asg.is_assigned(3) and not asg.is_assigned(4)
    assert asg.trail == [1, 2]


def test_backtrack_to_current_level_is_noop():
    asg = Assignment(2)
    asg.new_decision_level()
    asg.assign(1)
    asg.backtrack(1)
    assert asg.is_assigned(1)


def test_backtrack_bad_level_rejected():
    asg = Assignment(2)
    with pytest.raises(ValueError):
        asg.backtrack(-1)
    with pytest.raises(ValueError):
        asg.backtrack(1)


def test_model_reflects_trail():
    asg = Assignment(3)
    asg.assign(1)
    asg.assign(-3)
    assert asg.model() == {1: True, 3: False}


def test_grow_preserves_state():
    asg = Assignment(2)
    asg.assign(1)
    asg.grow(5)
    assert asg.num_vars == 5
    assert asg.is_assigned(1)
    asg.assign(5)
    assert asg.value_of_lit(5) == TRUE
    asg.grow(3)  # shrink request is ignored
    assert asg.num_vars == 5


def test_values_are_literal_indexed():
    asg = Assignment(3)
    assert len(asg.values) == 2 * 3 + 1
    asg.assign(-2)
    asg.assign(3)
    assert asg.values[-2] == TRUE and asg.values[2] == FALSE
    assert asg.values[3] == TRUE and asg.values[-3] == FALSE


def test_value_of_lit_unassigned_in_both_polarities():
    asg = Assignment(3)
    asg.assign(2)
    for var in (1, 3):
        assert asg.value_of_lit(var) == UNASSIGNED
        assert asg.value_of_lit(-var) == UNASSIGNED


def test_backtrack_clears_both_halves():
    asg = Assignment(4)
    asg.assign(1)
    asg.new_decision_level()
    asg.assign(-2)
    asg.assign(4)
    asg.backtrack(0)
    for var in (2, 4):
        assert asg.value_of_lit(var) == UNASSIGNED
        assert asg.value_of_lit(-var) == UNASSIGNED
    assert asg.value_of_lit(1) == TRUE and asg.value_of_lit(-1) == FALSE
    assert asg.values.count(UNASSIGNED) == len(asg.values) - 2


def test_grow_moves_the_negative_half():
    asg = Assignment(3)
    asg.assign(-1)
    asg.assign(3)
    asg.grow(6)
    assert len(asg.values) == 2 * 6 + 1
    assert asg.value_of_lit(-1) == TRUE and asg.value_of_lit(1) == FALSE
    assert asg.value_of_lit(3) == TRUE and asg.value_of_lit(-3) == FALSE
    for var in (2, 4, 5, 6):
        assert asg.value_of_lit(var) == UNASSIGNED
        assert asg.value_of_lit(-var) == UNASSIGNED
    asg.assign(-6)
    assert asg.value_of_lit(-6) == TRUE and asg.value_of_lit(6) == FALSE
    assert asg.value_of_lit(-1) == TRUE  # the new variable did not alias -1
    asg.backtrack(0)  # level 0: nothing to undo
    assert asg.num_assigned() == 3


def test_assign_rejects_out_of_range_literal():
    asg = Assignment(3)
    for lit in (0, 4, -4):
        with pytest.raises(ValueError):
            asg.assign(lit)
    assert asg.values.count(UNASSIGNED) == len(asg.values)
