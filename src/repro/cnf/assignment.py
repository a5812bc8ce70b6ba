"""The assignment trail shared vocabulary of the solver.

Tracks, per literal, its value, and per variable: decision level,
antecedent clause ID, and the chronological position on the trail.

Values are literal-indexed: ``values[lit]`` is the literal's own
TRUE/FALSE/UNASSIGNED status, for either polarity. The list has ``2n + 1``
slots — slot 0 is unused, ``1..n`` hold the positive literals and
``n+1..2n`` the negative ones, reached through Python's negative indexing
(``values[-v]`` is slot ``2n + 1 - v``). Reading a literal is then one
subscript, which is what the solver's propagation loop does millions of
times; writers keep both polarities in step.

The paper's invariant (§2.1) — "a non-free, non-decision variable will
always have an antecedent, and its decision level will always equal the
highest decision level of the other variables in its antecedent clause" —
is enforced by the solver and replayed by the checkers via this record.
"""

from __future__ import annotations

TRUE = 1
FALSE = 0
UNASSIGNED = -1

NO_ANTECEDENT = 0  # decision variables and unassigned variables


class Assignment:
    """Trail-based variable assignment with decision levels and antecedents."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        n = num_vars + 1  # 1-based variable indexing
        self.values = [UNASSIGNED] * (2 * num_vars + 1)  # literal-indexed
        self.levels = [-1] * n
        self.antecedents = [NO_ANTECEDENT] * n
        self.positions = [-1] * n  # index on the trail, for chronology
        self.trail: list[int] = []  # literals in assignment order
        self.level_limits: list[int] = []  # trail length at each decision

    # -- queries ---------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.level_limits)

    def value_of_lit(self, lit: int) -> int:
        """TRUE/FALSE/UNASSIGNED status of a literal (``1 <= |lit| <= n``)."""
        return self.values[lit]

    def is_assigned(self, var: int) -> bool:
        return self.values[var] != UNASSIGNED

    def num_assigned(self) -> int:
        return len(self.trail)

    def model(self) -> dict[int, bool]:
        """Variable -> bool for every assigned variable."""
        return {abs(lit): lit > 0 for lit in self.trail}

    # -- mutation --------------------------------------------------------

    def new_decision_level(self) -> int:
        self.level_limits.append(len(self.trail))
        return self.decision_level

    def assign(self, lit: int, antecedent: int = NO_ANTECEDENT) -> None:
        """Put a literal on the trail at the current decision level."""
        var = lit if lit > 0 else -lit
        if not 0 < var <= self.num_vars:
            raise ValueError(f"literal {lit} is outside variables 1..{self.num_vars}")
        if self.values[lit] != UNASSIGNED:
            raise ValueError(f"variable {var} is already assigned")
        self.values[lit] = TRUE
        self.values[-lit] = FALSE
        self.levels[var] = len(self.level_limits)
        self.antecedents[var] = antecedent
        self.positions[var] = len(self.trail)
        self.trail.append(lit)

    def backtrack(self, level: int) -> None:
        """Undo all assignments above ``level`` (assertion-based backtracking)."""
        if level < 0 or level > self.decision_level:
            raise ValueError(f"cannot backtrack to level {level}")
        if level == self.decision_level:
            return
        keep = self.level_limits[level]
        values = self.values
        for lit in self.trail[keep:]:
            values[lit] = values[-lit] = UNASSIGNED
            var = lit if lit > 0 else -lit
            self.levels[var] = -1
            self.antecedents[var] = NO_ANTECEDENT
            self.positions[var] = -1
        del self.trail[keep:]
        del self.level_limits[level:]

    def grow(self, num_vars: int) -> None:
        """Extend capacity to ``num_vars`` (used when formulas grow)."""
        if num_vars <= self.num_vars:
            return
        extra = num_vars - self.num_vars
        # The negative half sits at the end of the list, so it has to move
        # up: a plain extend would make values[-v] read the new padding.
        split = self.num_vars + 1
        self.values = (
            self.values[:split] + [UNASSIGNED] * (2 * extra) + self.values[split:]
        )
        self.levels.extend([-1] * extra)
        self.antecedents.extend([NO_ANTECEDENT] * extra)
        self.positions.extend([-1] * extra)
        self.num_vars = num_vars
