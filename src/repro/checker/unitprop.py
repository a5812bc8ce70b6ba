"""A self-contained two-watched-literal propagator for the clausal checkers.

Deliberately independent from the solver's BCP: a checker that shares the
propagation code with the solver it validates would inherit its bugs.

The design is drat-trim's core: every clause of two or more literals is
watched by its first two positions, and the database's own consequences
live on a *level-0 trail* that persists across calls. Units, and clauses
that are unit under level 0, are propagated once, when they are added;
:meth:`UnitPropagator.propagate` only pushes its assumptions above that
trail, runs watched BCP, and undoes back to the mark. Outside a call the
level-0 state keeps one invariant — a clause watching a false literal has
its other watch true — which is what lets BCP visit only the watch lists
of newly false literals.

Removal keeps the invariant without rebuilding: removed clauses become
tombstones that watch lists drop lazily, and removing the *reason* of a
level-0 literal truncates the trail at that literal, re-asserts any unit
clause among the undone literals, re-queues the false watch of every
clause whose true watch was undone, and propagates again. Only when level
0 is already in conflict, and the removed clause is in that conflict's
cone, is level 0 rebuilt from the unit clauses.

Values, reasons and watch lists are literal-indexed Python lists (the
negative literal ``-v`` is reached through negative indexing), sized from
the literals actually seen — never from a header's variable count.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Reason of a literal that no clause implies (an assumption).
NO_REASON = -1


class UnitPropagator:
    """Propagates unit clauses over a growable, shrinkable clause set.

    Clauses are added with :meth:`add_clause` and removed with
    :meth:`remove_clause`; :meth:`propagate` runs unit propagation from a
    set of assumption literals and reports whether a conflict (some clause
    with all literals false) was reached.
    """

    def __init__(self, num_vars: int):
        #: Largest variable declared or seen; informational only.
        self.num_vars = num_vars
        #: Clause literals by index (watches at positions 0 and 1), or
        #: ``None`` for a removed clause.
        self.clauses: list[list[int] | None] = []
        self._cap = 0  # largest variable the literal-indexed lists cover
        self._vals = [0]  # literal -> 1 true, -1 false, 0 unassigned
        self._reasons = [NO_REASON]  # true literal -> implying clause
        self._positions = [0]  # level-0 literal -> its trail position
        self._watches: list[list[int]] = [[]]  # literal -> watching clauses
        self._trail: list[int] = []  # level-0 literals, then assumptions
        self._units: dict[int, list[int]] = {}  # literal -> live unit clauses
        self._empties: list[int] = []  # live empty clauses
        self._conflict: int | None = None  # clause false at level 0
        self._conflict_cone: set[int] | None = None

    # -- the clause database ---------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> int:
        """Add a clause and propagate its level-0 consequences; returns its index."""
        index = len(self.clauses)
        lits = list(dict.fromkeys(literals))
        self.clauses.append(lits)
        if lits:
            top = max(map(abs, lits))
            if top > self.num_vars:
                self.num_vars = top
            if top > self._cap:
                self._grow(top)
        if len(lits) == 1:
            self._units.setdefault(lits[0], []).append(index)
        elif not lits:
            self._empties.append(index)
        if self._conflict is not None:
            # Level 0 is already refuted; watches need no ordering until
            # a rebuild starts from an empty assignment.
            if len(lits) > 1:
                self._watches[lits[0]].append(index)
                self._watches[lits[1]].append(index)
            return index
        if not lits:
            self._conflict = index
            return index
        vals = self._vals
        # Bring up to two non-false literals to the watched positions.
        free = 0
        for k, lit in enumerate(lits):
            if vals[lit] >= 0:
                lits[free], lits[k] = lit, lits[free]
                free += 1
                if free == 2:
                    break
        if len(lits) > 1:
            self._watches[lits[0]].append(index)
            self._watches[lits[1]].append(index)
        if free == 0:
            self._conflict = index
        elif free == 1 and vals[lits[0]] == 0:
            mark = len(self._trail)
            self._assign(lits[0], index)
            self._settle(mark)
        return index

    def remove_clause(self, index: int) -> None:
        """Remove a clause (its slot is tombstoned); removing twice is a no-op."""
        lits = self.clauses[index]
        if lits is None:
            return
        refuted = self._conflict is not None
        in_cone = refuted and index in self._level0_cone()
        self.clauses[index] = None
        if len(lits) == 1:
            self._units[lits[0]].remove(index)
        elif not lits:
            self._empties.remove(index)
        if refuted:
            if in_cone:
                self._rebuild()
            return
        if lits and self._vals[lits[0]] > 0 and self._reasons[lits[0]] == index:
            self._truncate(self._positions[lits[0]])

    def occurrences(self, lit: int) -> list[int]:
        """Indices of the live clauses containing ``lit``.

        The RAT check enumerates resolution partners through this scan of
        the database, as drat-trim does: RAT checks are rare, while an
        index would cost work on every add and remove.
        """
        return [
            index
            for index, clause in enumerate(self.clauses)
            if clause is not None and lit in clause
        ]

    # -- queries ---------------------------------------------------------------

    def propagate(self, assumptions: Iterable[int]) -> bool:
        """Unit-propagate from ``assumptions``; True iff a conflict arises.

        Conflicting assumptions (both phases of a variable) count as an
        immediate conflict. The level-0 trail is left as it was found.
        """
        if self._conflict is not None:
            return True
        mark, conflict = self._search(assumptions)
        self._undo(mark)
        return conflict is not None

    def propagate_tracked(
        self, assumptions: Iterable[int]
    ) -> tuple[bool, list[int]]:
        """Like :meth:`propagate`, but also return the conflict's clause cone.

        Returns ``(conflict, used)`` where ``used`` is a sorted list of
        clause indices: the conflicting clause plus, transitively, the
        reason clause of every propagated literal that fed it. That cone
        alone reproduces the conflict, which is exactly what backward
        (core-first) proof checking needs to mark antecedent lemmas.
        ``used`` is empty when there is no conflict, or when the conflict
        comes from the assumptions alone.
        """
        if self._conflict is not None:
            return True, sorted(self._level0_cone())
        mark, conflict = self._search(assumptions)
        used = [] if conflict is None else self._cone(conflict)
        self._undo(mark)
        return conflict is not None, used

    # -- propagation -------------------------------------------------------------

    def _search(self, assumptions: Iterable[int]) -> tuple[int, int | None]:
        """Push ``assumptions`` above level 0 and propagate.

        Returns the trail mark to undo to and the conflict root: ``None``
        for no conflict, else the clause to start the cone from
        (``NO_REASON`` when the assumptions clash among themselves).
        """
        trail = self._trail
        mark = len(trail)
        vals = self._vals
        reasons = self._reasons
        for lit in assumptions:
            if abs(lit) > self._cap:
                self._grow(abs(lit))
                vals = self._vals
                reasons = self._reasons
            value = vals[lit]
            if value < 0:
                return mark, reasons[-lit]
            if value == 0:
                vals[lit] = 1
                vals[-lit] = -1
                reasons[lit] = NO_REASON
                trail.append(lit)
        return mark, self._propagate_from(mark)

    def _assign(self, lit: int, reason: int) -> None:
        self._vals[lit] = 1
        self._vals[-lit] = -1
        self._reasons[lit] = reason
        self._trail.append(lit)

    def _undo(self, mark: int) -> None:
        trail = self._trail
        vals = self._vals
        for lit in trail[mark:]:
            vals[lit] = vals[-lit] = 0
        del trail[mark:]

    def _propagate_from(self, head: int, requeue: Iterable[int] = ()) -> int | None:
        """Watched BCP over ``requeue`` and then ``trail[head:]``.

        ``requeue`` holds already-false literals whose watch lists must be
        visited again. Returns the index of a clause with every literal
        false, or None at a conflict-free fixpoint.
        """
        vals = self._vals
        reasons = self._reasons
        watches = self._watches
        clauses = self.clauses
        trail = self._trail
        pending = list(requeue)
        while True:
            if pending:
                false_lit = pending.pop()
            elif head < len(trail):
                false_lit = -trail[head]
                head += 1
            else:
                return None
            watchers = watches[false_lit]
            i = j = 0
            n = len(watchers)
            while i < n:
                index = watchers[i]
                i += 1
                lits = clauses[index]
                if lits is None:
                    continue  # tombstone: dropped from this list
                first = lits[0]
                if first == false_lit:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_lit
                value = vals[first]
                if value > 0:
                    watchers[j] = index
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if vals[other] >= 0:
                        lits[k] = false_lit
                        lits[1] = other
                        watches[other].append(index)
                        break
                else:
                    watchers[j] = index
                    j += 1
                    if value < 0:
                        del watchers[j:i]
                        return index
                    vals[first] = 1
                    vals[-first] = -1
                    reasons[first] = index
                    trail.append(first)
            del watchers[j:]

    # -- level-0 maintenance -------------------------------------------------------

    def _settle(self, mark: int, requeue: Iterable[int] = ()) -> None:
        """Propagate level 0 from ``trail[mark:]``; record where literals landed."""
        self._conflict = self._propagate_from(mark, requeue)
        trail = self._trail
        positions = self._positions
        for position in range(mark, len(trail)):
            positions[trail[position]] = position

    def _truncate(self, position: int) -> None:
        """Undo level 0 from ``position`` on, then restore the fixpoint.

        Every clause whose true watch was undone while its other watch is
        still false may now be unit; re-queueing that false watch makes BCP
        visit it again. Unit clauses among the undone literals are
        re-asserted first.
        """
        trail = self._trail
        vals = self._vals
        undone = trail[position:]
        self._undo(position)
        for lit in undone:
            units = self._units.get(lit)
            if units:
                self._assign(lit, units[0])
        clauses = self.clauses
        requeue = set()
        for lit in undone:
            for index in self._watches[lit]:
                lits = clauses[index]
                if lits is None:
                    continue
                other = lits[1] if lits[0] == lit else lits[0]
                if vals[other] < 0:
                    requeue.add(other)
        self._settle(position, requeue)

    def _rebuild(self) -> None:
        """Recompute level 0 from scratch: empty clauses, units, then BCP."""
        self._undo(0)
        self._conflict = None
        self._conflict_cone = None
        if self._empties:
            self._conflict = self._empties[0]
            return
        vals = self._vals
        for lit, units in self._units.items():
            if not units or vals[lit] > 0:
                continue
            if vals[lit] < 0:
                self._conflict = units[0]
                return
            self._assign(lit, units[0])
        self._settle(0)

    def _level0_cone(self) -> set[int]:
        """The cone of the level-0 conflict (fixed until the next rebuild)."""
        if self._conflict_cone is None:
            self._conflict_cone = set(self._cone(self._conflict))
        return self._conflict_cone

    def _cone(self, root: int) -> list[int]:
        """Transitive reason closure of clause ``root``, sorted."""
        if root == NO_REASON:
            return []
        vals = self._vals
        reasons = self._reasons
        clauses = self.clauses
        cone = {root}
        stack = [root]
        while stack:
            for lit in clauses[stack.pop()]:
                reason = reasons[lit if vals[lit] > 0 else -lit]
                if reason != NO_REASON and reason not in cone:
                    cone.add(reason)
                    stack.append(reason)
        return sorted(cone)

    def _grow(self, var: int) -> None:
        """Widen the literal-indexed lists to cover ``var`` (amortized doubling)."""
        old = self._cap
        new = max(var, 2 * old)
        split = old + 1
        pad = 2 * (new - old)
        # Negative literals live at the tail, so new slots go in the middle.
        self._vals = self._vals[:split] + [0] * pad + self._vals[split:]
        self._reasons = (
            self._reasons[:split] + [NO_REASON] * pad + self._reasons[split:]
        )
        self._positions = (
            self._positions[:split] + [0] * pad + self._positions[split:]
        )
        self._watches = (
            self._watches[:split]
            + [[] for _ in range(pad)]
            + self._watches[split:]
        )
        self._cap = new
