"""Clause database with two-watched-literal indexing and learned-clause
activity bookkeeping.

Clause IDs are the contract with the checker: originals get 1..m in file
order, learned clauses continue the numbering even across deletions (IDs are
never reused — the trace refers to clauses by ID forever).

Clauses that are antecedents of currently assigned variables are *locked*
and never deleted, per the paper: "the clauses that are antecedents of
currently assigned variables should always be kept by the solver because
they may be used in the future resolution process."
"""

from __future__ import annotations

from typing import Iterable

from repro.cnf import CnfFormula


class ClauseDatabase:
    """Mutable clause store for the solver.

    Literal lists are reordered in place so positions 0 and 1 always hold
    the watched literals (for clauses of length >= 2).

    ``watches`` is literal-indexed like :attr:`repro.cnf.Assignment.values`:
    ``watches[lit]`` lists the clauses watching ``lit``, with negative
    literals reached through negative indexing (slot 0 is unused). Each
    entry is a ``(cid, literals)`` pair whose literal list *is*
    ``lits[cid]``, so propagation reaches a clause's literals without a
    dictionary lookup.

    ``num_vars`` sizes the watch lists. :meth:`from_formula` passes the
    largest variable a clause uses, never the header's declared count, so
    a header that over-declares costs no memory.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.lits: dict[int, list[int]] = {}  # cid -> literal list
        self.learned_ids: set[int] = set()
        self.activity: dict[int, float] = {}  # learned cid -> activity
        self.watches: list[list[tuple[int, list[int]]]] = [
            [] for _ in range(2 * num_vars + 1)
        ]
        self.next_cid = 1
        self.num_original = 0
        # Learned clauses that must never be deleted: preprocessing
        # resolvents *replace* original clauses, so dropping them would
        # change the formula (unlike ordinary redundant learned clauses).
        self.protected: set[int] = set()
        self.empty_original: int | None = None  # cid of an input empty clause
        self.unit_originals: list[int] = []  # cids of input unit clauses
        self.cla_inc = 1.0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_formula(cls, formula: CnfFormula) -> "ClauseDatabase":
        used = max((max(map(abs, c.literals)) for c in formula if c.literals), default=0)
        db = cls(used)
        for clause in formula:
            db.add_original(list(clause.literals))
        return db

    def add_original(self, literals: list[int]) -> int:
        """Add an original clause; returns its ID."""
        cid = self.next_cid
        self.next_cid += 1
        self.num_original += 1
        self.lits[cid] = literals
        if not literals:
            if self.empty_original is None:
                self.empty_original = cid
        elif len(literals) == 1:
            self.unit_originals.append(cid)
        else:
            self._attach(cid)
        return cid

    def add_learned(self, literals: list[int], watch_hint: int | None = None) -> int:
        """Add a learned clause; caller orders/others via ``watch_hint``.

        ``watch_hint`` is the index of the literal that should share watch
        duty with position 0 (the asserting literal). The solver passes the
        highest-decision-level false literal so the watch invariant holds
        right after backtracking.
        """
        cid = self.next_cid
        self.next_cid += 1
        self.learned_ids.add(cid)
        self.activity[cid] = self.cla_inc
        self.lits[cid] = literals
        if len(literals) >= 2:
            if watch_hint is not None and watch_hint >= 2:
                literals[1], literals[watch_hint] = literals[watch_hint], literals[1]
            self._attach(cid)
        return cid

    def _attach(self, cid: int) -> None:
        lits = self.lits[cid]
        entry = (cid, lits)
        self.watches[lits[0]].append(entry)
        self.watches[lits[1]].append(entry)

    def _detach(self, cid: int) -> None:
        lits = self.lits[cid]
        entry = (cid, lits)  # equal to the attached entry: same cid, same list
        for lit in lits[:2]:
            self.watches[lit].remove(entry)

    # -- queries -----------------------------------------------------------

    def __contains__(self, cid: int) -> bool:
        return cid in self.lits

    def clause_literals(self, cid: int) -> list[int]:
        return self.lits[cid]

    def is_learned(self, cid: int) -> bool:
        return cid in self.learned_ids

    @property
    def num_learned(self) -> int:
        return len(self.learned_ids)

    def watchers_of(self, lit: int) -> list[tuple[int, list[int]]]:
        return self.watches[lit]

    # -- learned clause activity / deletion ---------------------------------

    def bump_clause(self, cid: int) -> None:
        if cid in self.activity:
            self.activity[cid] += self.cla_inc
            if self.activity[cid] >= 1e100:
                self._rescale_activity()

    def decay_clause_activity(self, decay: float) -> None:
        self.cla_inc /= decay

    def _rescale_activity(self) -> None:
        for cid in self.activity:
            self.activity[cid] *= 1e-100
        self.cla_inc *= 1e-100

    def reduce_learned(self, locked: Iterable[int]) -> list[tuple[int, list[int]]]:
        """Delete roughly the lower-activity half of unlocked learned clauses.

        Binary learned clauses are kept (cheap and valuable). Returns the
        deleted clauses as ``(cid, literals)`` pairs — the literals feed
        DRUP deletion logging, the IDs feed the trace's deletion records.
        """
        locked_set = set(locked)
        candidates = [
            cid
            for cid in self.learned_ids
            if cid not in locked_set
            and cid not in self.protected
            and len(self.lits[cid]) > 2
        ]
        if not candidates:
            return []
        candidates.sort(key=lambda cid: self.activity[cid])
        victims = candidates[: max(1, len(candidates) // 2)]
        deleted: list[tuple[int, list[int]]] = []
        for cid in victims:
            self._detach(cid)
            deleted.append((cid, self.lits.pop(cid)))
            del self.activity[cid]
            self.learned_ids.remove(cid)
        return deleted
