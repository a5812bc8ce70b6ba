"""The CDCL solver: Fig. 1 of the paper, with trace generation (§3.1).

Pipeline per iteration: decide -> BCP (two watched literals) -> on conflict,
first-UIP analysis by resolution -> learn + assertion-based backtracking.
When the conflict arrives at decision level 0 the instance is UNSAT and the
solver dumps the level-0 trail and final conflicting clause into the trace,
exactly the information the checkers need to re-derive the empty clause.
"""

from __future__ import annotations

import time

from repro.cnf import Assignment, CnfFormula, FALSE, TRUE, UNASSIGNED
from repro.cnf.assignment import NO_ANTECEDENT
from repro.solver.config import SolverConfig
from repro.solver.conflict import analyze_conflict
from repro.solver.database import ClauseDatabase
from repro.solver.decision import make_decision_heuristic
from repro.solver.restarts import make_restart_policy
from repro.solver.result import SAT, UNKNOWN, UNSAT, SolveResult, SolverStats


class Solver:
    """Single-shot CDCL solver over a CNF formula.

    Attach a trace writer (any object satisfying ``repro.trace.io.TraceWriter``)
    to record the resolution trace while solving; pass ``None`` to solve
    without tracing (the paper's Table 1 compares the two).

    Per-variable arrays (the assignment, the watch lists, the heuristic's
    activities and phases) are sized from the largest variable a clause
    uses. The header's declared count is only written to the trace header
    and covered by a SAT model.
    """

    def __init__(
        self,
        formula: CnfFormula,
        config: SolverConfig | None = None,
        trace_writer=None,
        drup_writer=None,
    ):
        self.config = config or SolverConfig()
        self.drup = drup_writer
        self.num_vars = formula.num_vars  # declared
        self.db = ClauseDatabase.from_formula(formula)
        self.assignment = Assignment(self.db.num_vars)
        self.vsids = make_decision_heuristic(
            self.config.decision_heuristic, self.db.num_vars, self.db, self.config
        )
        self.restart_policy = make_restart_policy(
            self.config.restart_policy,
            first=self.config.restart_first,
            inc=self.config.restart_inc,
            luby_unit=self.config.luby_unit,
        )
        self.trace = trace_writer
        self.stats = SolverStats()
        self._qhead = 0
        self._conflicts_since_restart = 0
        self._max_learned = max(
            self.config.min_learned_cap,
            int(self.db.num_original * self.config.max_learned_factor),
        )
        self.elimination_records: list = []
        self.blocked_records: list = []
        self._solved = False

    # -- public API --------------------------------------------------------

    def solve(self) -> SolveResult:
        """Run the search to completion (or budget exhaustion)."""
        if self._solved:
            raise RuntimeError("Solver instances are single-shot; build a new one")
        self._solved = True
        start = time.perf_counter()
        if self.trace is not None:
            self.trace.header(self.num_vars, self.db.num_original)
        try:
            status, model = self._search()
        finally:
            self.stats.solve_time = time.perf_counter() - start
            if self.trace is not None:
                self.trace.close()
            if self.drup is not None:
                self.drup.close()
        return SolveResult(status=status, model=model, stats=self.stats)

    # -- search ------------------------------------------------------------

    def _search(self) -> tuple[str, dict[int, bool] | None]:
        conflict = self._preprocess()
        if conflict is not None:
            self._emit_unsat(conflict)
            return UNSAT, None

        while True:
            decision = self.vsids.pick_branch(self.assignment)
            if decision is None:
                model = self._full_model()
                if self.trace is not None:
                    self.trace.result(SAT)
                return SAT, model

            if (
                self.config.max_decisions is not None
                and self.stats.decisions >= self.config.max_decisions
            ):
                if self.trace is not None:
                    self.trace.result(UNKNOWN)
                return UNKNOWN, None

            self.stats.decisions += 1
            self.assignment.new_decision_level()
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, self.assignment.decision_level
            )
            self.assignment.assign(decision)

            status = self._propagate_and_learn()
            if status is not None:
                return status, None

    def _propagate_and_learn(self) -> str | None:
        """BCP, resolving conflicts as they come. Returns a final status or
        None when the search should continue with a new decision."""
        while True:
            conflict = self._propagate()
            if conflict is None:
                return None

            self.stats.conflicts += 1
            self._conflicts_since_restart += 1

            if self.assignment.decision_level == 0:
                self._emit_unsat(conflict)
                return UNSAT

            analysis = analyze_conflict(
                conflict,
                self.db,
                self.assignment,
                bump_vars=self.vsids.bump_all,
                bump_clause=self.db.bump_clause,
                minimize=self.config.minimize_learned,
            )
            self.vsids.decay()
            self.db.decay_clause_activity(self.config.clause_decay)

            self._backtrack_to(analysis.backtrack_level)

            if len(analysis.sources) == 1:
                # The conflicting clause was already asserting: no resolution
                # happened, so there is nothing to learn — the clause itself
                # becomes the antecedent after backtracking.
                antecedent = analysis.sources[0]
            else:
                antecedent = self.db.add_learned(analysis.learned_literals)
                self.stats.learned_clauses += 1
                if self.trace is not None:
                    self.trace.learned_clause(antecedent, analysis.sources)
                if self.drup is not None:
                    self.drup.add_clause(self.db.lits[antecedent])

            self.assignment.assign(analysis.asserting_literal, antecedent=antecedent)
            self.vsids.save_phase(analysis.asserting_literal)

            if (
                self.config.max_conflicts is not None
                and self.stats.conflicts >= self.config.max_conflicts
            ):
                if self.trace is not None:
                    self.trace.result(UNKNOWN)
                return UNKNOWN

            if self.db.num_learned > self._max_learned:
                self._reduce_learned()

            if (
                self.assignment.decision_level > 0
                and self.restart_policy.should_restart(self._conflicts_since_restart)
            ):
                self.restart_policy.on_restart()
                self.stats.restarts += 1
                self._conflicts_since_restart = 0
                self._backtrack_to(0)

    # -- BCP ----------------------------------------------------------------

    def _propagate(self) -> int | None:
        """Boolean constraint propagation; returns a conflicting clause ID.

        This is the solver's hot loop, so everything it touches is hoisted
        into locals: literal values are read by subscript from the
        literal-indexed ``Assignment.values``, watch lists come straight
        from ``ClauseDatabase.watches``, and implied literals are assigned
        inline with the same writes ``Assignment.assign`` makes. Each
        watch entry is a ``(cid, literals)`` pair, so a visit reads the
        clause's literal list straight from the entry.
        """
        assignment = self.assignment
        values = assignment.values
        trail = assignment.trail
        levels = assignment.levels
        antecedents = assignment.antecedents
        positions = assignment.positions
        level = len(assignment.level_limits)
        watches = self.db.watches
        qhead = self._qhead
        propagations = 0
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            propagations += 1
            watchers = watches[false_lit]
            i = j = 0
            n = len(watchers)
            while i < n:
                entry = watchers[i]
                i += 1
                lits = entry[1]
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                value = values[first]
                if value == TRUE:
                    watchers[j] = entry
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if values[other] != FALSE:
                        lits[k] = lits[1]
                        lits[1] = other
                        watches[other].append(entry)
                        break
                else:
                    watchers[j] = entry
                    j += 1
                    if value == UNASSIGNED:
                        # The clause is unit: imply its first literal.
                        var = first if first > 0 else -first
                        values[first] = TRUE
                        values[-first] = FALSE
                        levels[var] = level
                        antecedents[var] = entry[0]
                        positions[var] = len(trail)
                        trail.append(first)
                        continue
                    # Every literal is false. Close the gap left by moved
                    # watches and keep the unvisited tail of the list.
                    del watchers[j:i]
                    self._qhead = len(trail)
                    self.stats.propagations += propagations
                    return entry[0]
            del watchers[j:]
        self._qhead = qhead
        self.stats.propagations += propagations
        return None

    # -- setup / teardown helpers -------------------------------------------

    def _preprocess(self) -> int | None:
        """Level-0 deductions (the paper's ``preprocess()``).

        Returns a conflicting clause ID if the formula is refuted without
        any branching, else None.
        """
        if self.db.empty_original is not None:
            return self.db.empty_original
        for cid in self.db.unit_originals:
            lit = self.db.lits[cid][0]
            value = self.assignment.value_of_lit(lit)
            if value == FALSE:
                return cid
            if value == UNASSIGNED:
                self.assignment.assign(lit, antecedent=cid)
        conflict = self._propagate()
        if conflict is not None:
            return conflict
        if self.config.preprocess_blocked_clause:
            from repro.solver.blocked import eliminate_blocked_clauses

            self.blocked_records = eliminate_blocked_clauses(
                self.db, self.assignment.is_assigned
            ).records
        if not self.config.preprocess_elimination:
            return None
        return self._eliminate_variables()

    def _eliminate_variables(self) -> int | None:
        """NiVER-style preprocessing; resolvents are recorded in the trace."""
        from repro.solver.elimination import VariableEliminator

        eliminator = VariableEliminator(
            self.db,
            trace=self.trace,
            value_of_lit=self.assignment.value_of_lit,
            max_occurrences=self.config.elimination_max_occurrences,
            max_resolvent_length=self.config.elimination_max_resolvent_length,
        )
        outcome = eliminator.run(self.assignment.is_assigned)
        self.elimination_records = outcome.records
        self.stats.learned_clauses += outcome.stats.added_resolvents
        self.vsids.banned.update(record.var for record in outcome.records)
        if outcome.conflict_cid is not None:
            return outcome.conflict_cid
        for cid in outcome.unit_cids:
            if cid not in self.db:
                continue  # resolved away by a later elimination
            for lit in self.db.lits[cid]:
                value = self.assignment.value_of_lit(lit)
                if value == FALSE:
                    continue
                if value == UNASSIGNED:
                    self.assignment.assign(lit, antecedent=cid)
                break
            else:
                return cid  # every literal false: the unit clause conflicts
        return self._propagate()

    def _backtrack_to(self, level: int) -> None:
        """Undo the trail above ``level`` in one pass, then hand the undone
        literals to the heuristic in one ``unassign`` call (phase saving
        and requeueing)."""
        assignment = self.assignment
        if level >= assignment.decision_level:
            return
        keep = assignment.level_limits[level]
        trail = assignment.trail
        values = assignment.values
        levels = assignment.levels
        antecedents = assignment.antecedents
        positions = assignment.positions
        undone = trail[keep:]
        for lit in undone:
            var = lit if lit > 0 else -lit
            values[lit] = values[-lit] = UNASSIGNED
            levels[var] = -1
            antecedents[var] = NO_ANTECEDENT
            positions[var] = -1
        self.vsids.unassign(undone)
        del trail[keep:]
        del assignment.level_limits[level:]
        self._qhead = keep

    def _reduce_learned(self) -> None:
        locked = {
            assignment_ante
            for assignment_ante in (
                self.assignment.antecedents[abs(lit)] for lit in self.assignment.trail
            )
            if assignment_ante != 0
        }
        deleted = self.db.reduce_learned(locked)
        self.stats.deleted_clauses += len(deleted)
        for cid, literals in deleted:
            if self.drup is not None:
                self.drup.delete_clause(literals)
            if self.trace is not None:
                self.trace.clause_deletion(cid)
        self._max_learned = int(self._max_learned * self.config.max_learned_growth)

    def _emit_unsat(self, conflict_cid: int) -> None:
        if self.drup is not None:
            self.drup.finish_unsat()
        if self.trace is None:
            return
        for lit in self.assignment.trail:
            var = abs(lit)
            antecedent = self.assignment.antecedents[var]
            assert antecedent != 0, f"level-0 variable {var} lacks an antecedent"
            self.trace.level_zero(var, lit > 0, antecedent)
        self.trace.final_conflict(conflict_cid)
        self.trace.result(UNSAT)

    def _full_model(self) -> dict[int, bool]:
        model = self.assignment.model()
        phase = self.vsids.phase
        used = self.assignment.num_vars
        for var in range(1, used + 1):
            model.setdefault(var, phase[var])
        # Declared variables no clause uses take the default phase.
        for var in range(used + 1, self.num_vars + 1):
            model[var] = self.config.default_phase
        # Undo preprocessing in reverse application order: variable
        # elimination ran after blocked-clause elimination.
        if self.elimination_records:
            from repro.solver.elimination import reconstruct_model

            reconstruct_model(model, self.elimination_records)
        if self.blocked_records:
            from repro.solver.blocked import repair_model

            repair_model(model, self.blocked_records)
        return model


def solve_formula(
    formula: CnfFormula,
    config: SolverConfig | None = None,
    trace_writer=None,
    drup_writer=None,
) -> SolveResult:
    """Convenience wrapper: build a Solver, run it, return the result."""
    solver = Solver(formula, config=config, trace_writer=trace_writer, drup_writer=drup_writer)
    return solver.solve()
