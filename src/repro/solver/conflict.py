"""First-UIP conflict analysis by resolution (Fig. 2 of the paper).

Starting from the conflicting clause, iteratively resolve with the
antecedent of the literal assigned *last* (reverse chronological order,
``choose_literal`` in the paper) until the resolvent is an *asserting
clause*: exactly one literal at the current decision level. The sequence of
clause IDs used — conflicting clause first, then each antecedent — is the
learned clause's *resolve sources*, recorded in the trace for the checker.

Literals assigned at decision level 0 are kept in the learned clause so the
learned clause is the exact resolvent of its sources (the checker re-derives
it literal-for-literal).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cnf import Assignment
from repro.solver.database import ClauseDatabase


@dataclass
class AnalysisResult:
    """Outcome of conflict analysis at a decision level > 0."""

    learned_literals: list[int]  # asserting literal first
    sources: list[int]  # conflicting clause, then antecedents in order
    backtrack_level: int  # the asserting level
    asserting_literal: int  # the single current-level literal (negated UIP)


def analyze_conflict(
    conflict_cid: int,
    db: ClauseDatabase,
    assignment: Assignment,
    bump_vars=None,
    bump_clause=None,
    minimize: bool = False,
) -> AnalysisResult:
    """Run 1-UIP analysis. The caller guarantees decision level > 0.

    ``bump_vars`` / ``bump_clause`` are optional callbacks for the decision
    heuristic and clause-activity bookkeeping. ``bump_vars`` is called once,
    after the first UIP is found, with every variable the analysis met in
    the order it met them; ``bump_clause`` is called per absorbed clause.

    ``minimize`` enables self-subsumption minimization: a lower-level
    literal is dropped when resolving with its variable's antecedent
    introduces nothing new. Each drop *is* one more resolution, so the
    antecedent is appended to the resolve sources and the trace stays
    exactly checkable — the learned clause remains the literal-for-literal
    resolvent of its recorded sources.
    """
    current_level = assignment.decision_level
    if current_level == 0:
        raise ValueError("analyze_conflict requires decision level > 0")

    sources = [conflict_cid]
    seen: dict[int, None] = {}  # variables met, in the order met
    lower_literals: list[int] = []  # false literals below the current level
    lower_append = lower_literals.append
    counter = 0  # unresolved current-level literals
    levels = assignment.levels
    antecedents = assignment.antecedents
    clause_lits = db.lits
    trail = assignment.trail
    index = len(trail) - 1
    cid = conflict_cid
    pivot_var = 0  # no pivot yet: the conflicting clause is absorbed whole
    while True:
        # Absorb ``cid``: resolve it on ``pivot_var`` into the running clause.
        if bump_clause is not None:
            bump_clause(cid)
        for lit in clause_lits[cid]:
            var = lit if lit > 0 else -lit
            if var == pivot_var or var in seen:
                continue
            seen[var] = None
            if levels[var] == current_level:
                counter += 1
            else:
                lower_append(lit)
        if counter == 0:
            raise RuntimeError(
                f"conflicting clause {conflict_cid} has no literal at the current "
                "decision level; the BCP invariant is broken"
            )

        # choose_literal: the current-level literal assigned last.
        while True:
            pivot_lit = trail[index]
            index -= 1
            pivot_var = pivot_lit if pivot_lit > 0 else -pivot_lit
            if pivot_var in seen and levels[pivot_var] == current_level:
                break
        if counter == 1:
            asserting_literal = -pivot_lit
            break
        cid = antecedents[pivot_var]
        if cid == 0:
            raise RuntimeError(
                f"variable {pivot_var} at level {current_level} has no "
                "antecedent but is not the last current-level literal"
            )
        sources.append(cid)
        counter -= 1

    if bump_vars is not None:
        bump_vars(seen)
    if minimize and lower_literals:
        _minimize_lower_literals(
            lower_literals, sources, db, assignment, bump_clause
        )

    backtrack_level = 0
    watch_literal_index = -1
    for i, lit in enumerate(lower_literals):
        level = levels[lit if lit > 0 else -lit]
        if level > backtrack_level:
            backtrack_level = level
            watch_literal_index = i

    learned = [asserting_literal] + lower_literals
    # Put the highest-level lower literal at position 1 so the database can
    # watch it: after backtracking it is the most recently falsified literal.
    if watch_literal_index >= 0:
        learned[1], learned[watch_literal_index + 1] = (
            learned[watch_literal_index + 1],
            learned[1],
        )
    return AnalysisResult(
        learned_literals=learned,
        sources=sources,
        backtrack_level=backtrack_level,
        asserting_literal=asserting_literal,
    )


def _minimize_lower_literals(
    lower_literals: list[int],
    sources: list[int],
    db: ClauseDatabase,
    assignment: Assignment,
    bump_clause=None,
) -> None:
    """Self-subsumption minimization over the below-current-level literals.

    A literal ``lit`` can be resolved away against its variable's
    antecedent when every *other* antecedent literal is already in the
    clause: the resolution removes ``lit`` and adds nothing. Mutates
    ``lower_literals`` in place and appends the antecedents used to
    ``sources`` in resolution order.
    """
    remaining = set(lower_literals)
    for lit in list(lower_literals):
        var = lit if lit > 0 else -lit
        antecedent = assignment.antecedents[var]
        if antecedent == 0 or antecedent not in db:
            continue  # a decision, or its antecedent is gone
        others = [other for other in db.clause_literals(antecedent) if other != -lit]
        if -lit not in db.clause_literals(antecedent):
            continue  # not actually this variable's implying clause anymore
        if all(other in remaining for other in others):
            remaining.discard(lit)
            sources.append(antecedent)
            if bump_clause is not None:
                bump_clause(antecedent)
    if len(remaining) != len(lower_literals):
        lower_literals[:] = [lit for lit in lower_literals if lit in remaining]
