"""Flat-arena CDCL kernel: raw-speed propagation, learning and restarts.

This module is the hot path of :class:`~repro.solvers.cdcl.CDCLSolver`.
Instead of per-clause Python objects it keeps every clause as a span in a
single flat ``array('i')``:

.. code-block:: text

    arena:  ... | size | flags | lbd | lit lit lit ... | size | flags | ...
                  ^ cref (clause reference = arena offset)

* ``size``  — number of literals in the span,
* ``flags`` — bit 0: learned clause, bit 1: deleted (pending compaction),
* ``lbd``   — literal block distance stamped when the clause was learned,
* literals  — *encoded* ints: variable ``v`` positive is ``2*v``, negative
  ``2*v + 1`` (so negation is ``enc ^ 1`` and the encoding doubles as the
  watch-list index).

Around the arena sit flat per-variable / per-literal lists — ``values``
(one slot per encoded literal: +1 true, -1 false, 0 unassigned), trail,
levels, reasons (clause refs, ``-1`` for decisions), watch lists — so the
propagation loop touches nothing but ints, flat sequences and local
variables.  The kernel implements:

* two-watched-literal unit propagation with in-place watch-list
  compaction (MiniSat's scheme),
* first-UIP conflict analysis producing learned clauses appended to the
  arena, with VSIDS variable bumping and LBD stamping,
* clause-activity + LBD learned-clause database reduction with garbage
  compaction that rebuilds the watch lists,
* Luby-sequence restarts that keep the assumption levels,
* DRAT emission for every learned and deleted clause, and final-conflict
  analysis for minimized assumption cores.

Clause simplification beyond learned-clause reduction is not the
kernel's job: it lives in the preprocessing pipeline,
:class:`repro.preprocess.Preprocessor`.

The class is engine-only: result objects, telemetry spans around whole
solves, proof-log ownership and the public solver API live in
:mod:`repro.solvers.cdcl.solver`.
"""

from __future__ import annotations

from array import array
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.telemetry import instrument as _telemetry

__all__ = ["ArenaKernel", "luby"]

#: Ints of header per clause span: size, flags, lbd.
_HEADER = 3
_FLAG_LEARNED = 1
_FLAG_DELETED = 2
#: Clause-activity decay per conflict (MiniSat's default).
_CLAUSE_DECAY = 0.999


def luby(i: int) -> int:
    """The ``i``-th term (1-based) of the Luby restart sequence.

    The sequence is 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... —
    each power of two appears after all prefixes of the sequence up to the
    previous power have repeated (Luby, Sinclair & Zuckerman 1993).  Restart
    intervals are ``restart_base * luby(k)`` for the ``k``-th restart.
    """
    if i <= 0:
        raise SolverError(f"luby index must be positive, got {i}")
    x = i - 1
    # Smallest complete subsequence (length 2**seq - 1) containing x,
    # then recurse into it (MiniSat's iterative formulation).
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


def encode(lit: int) -> int:
    """DIMACS literal -> arena encoding (``2*v`` positive, ``2*v+1`` negative)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def decode(enc: int) -> int:
    """Arena encoding -> DIMACS literal."""
    v = enc >> 1
    return -v if enc & 1 else v


class ArenaKernel:
    """CDCL state machine over a flat integer clause arena.

    One instance holds one clause database; :class:`CDCLSolver` creates a
    fresh kernel per plain solve and keeps one alive across
    ``solve_incremental`` calls.  All literals crossing the boundary of
    this class are DIMACS-signed ints; internally everything is encoded.

    Parameters mirror the solver-level knobs: ``decay`` (VSIDS), Luby
    ``restart_base``, ``max_conflicts``, and ``reduce_interval`` /
    ``keep_lbd`` (learned-DB reduction).
    """

    def __init__(
        self,
        num_vars: int,
        decay: float = 0.95,
        restart_base: int = 200,
        max_conflicts: int = 5_000_000,
        reduce_interval: int = 2000,
        keep_lbd: int = 2,
    ) -> None:
        self.decay = decay
        self.restart_base = restart_base
        self.max_conflicts = max_conflicts
        self.reduce_interval = reduce_interval
        self.keep_lbd = keep_lbd
        #: DRAT sink (duck-typed ProofLog) of the current run; None = off.
        self.proof = None
        #: Lifetime count of learned-DB reductions (read by tests).
        self.reductions = 0
        self._conflicts_since_reduce = 0
        self.reset(num_vars)

    # -- state --------------------------------------------------------------
    def reset(
        self,
        num_vars: int,
        activity: Optional[List[float]] = None,
        phase: Optional[List[bool]] = None,
    ) -> None:
        """Fresh clause database over ``num_vars`` variables.

        ``activity`` / ``phase`` (sized ``num_vars + 1``) carry VSIDS
        scores and saved polarities over from a previous database — used
        by the session layer's ``pop`` so rebuilt databases still branch
        on historically active variables first.
        """
        self.num_vars = num_vars
        size = 2 * (num_vars + 1)
        self.arena = array("i")
        # Watch lists are allocated lazily (None = no watchers yet): a
        # database over n variables would otherwise pay for 2n+2 empty
        # lists up front, which dominates load time on large easy
        # instances.
        self.watches: List[Optional[List[int]]] = [None] * size
        self.values: List[int] = [0] * size
        self.level: List[int] = [0] * (num_vars + 1)
        self.reason: List[int] = [-1] * (num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.head = 0
        self.activity = (
            list(activity) if activity is not None else [0.0] * (num_vars + 1)
        )
        self.phase = list(phase) if phase is not None else [False] * (num_vars + 1)
        self.var_inc = 1.0
        # Branching heap, built lazily on the first pick: propagation-only
        # solves (and the load phase) never pay for it.
        self.heap: Optional[List[Tuple[float, int]]] = None
        self.learned_refs: List[int] = []
        self.clause_act: Dict[int, float] = {}
        self.cla_inc = 1.0
        self.live_clauses = 0
        self.root_conflict = False
        self.emitted_empty = False
        self._conflicts_since_reduce = 0

    def grow(self, num_vars: int) -> None:
        """Extend the variable universe to at least ``num_vars``."""
        if num_vars <= self.num_vars:
            return
        extra = num_vars - self.num_vars
        self.values.extend([0] * (2 * extra))
        self.watches.extend([None] * (2 * extra))
        self.level.extend([0] * extra)
        self.reason.extend([-1] * extra)
        self.activity.extend([0.0] * extra)
        self.phase.extend([False] * extra)
        if self.heap is not None:
            for v in range(self.num_vars + 1, num_vars + 1):
                heappush(self.heap, (0.0, v))
        self.num_vars = num_vars

    def decision_level(self) -> int:
        """Current decision level (number of open decision scopes)."""
        return len(self.trail_lim)

    # -- proof --------------------------------------------------------------
    def emit_empty(self) -> None:
        """Record the final empty clause, at most once per database state."""
        if self.proof is not None and not self.emitted_empty:
            self.emitted_empty = True
            self.proof.add(())

    # -- clause construction ------------------------------------------------
    def add_clause(self, lits: Sequence[int]) -> None:
        """Insert a normalised problem clause (DIMACS ints) at level 0.

        Mirrors the classic root-level handling: an empty clause flags the
        database contradictory, a (root-)unit clause enqueues its literal,
        a fully falsified clause flags a root conflict.  Watches go on
        non-false literals so the two-watcher invariant holds for clauses
        added mid-session.  The caller must be at decision level 0.
        """
        if self.root_conflict:
            return
        if not lits:
            self.root_conflict = True
            return
        values = self.values
        enc = [encode(lit) for lit in lits]
        if len(enc) == 1:
            value = values[enc[0]]
            if value < 0:
                self.root_conflict = True
            elif value == 0:
                self._enqueue(enc[0], -1)
            return
        # Stable partition: non-false literals first, so both watch slots
        # prefer watchable literals.
        enc.sort(key=lambda e: values[e] < 0)
        if values[enc[0]] < 0:
            self.root_conflict = True
            return
        cref = self._alloc(enc, learned=False, lbd=0)
        if values[enc[1]] < 0 and values[enc[0]] == 0:
            # Unit under the (permanent) root assignment.
            self._enqueue(enc[0], cref)

    def _alloc(self, enc: Sequence[int], learned: bool, lbd: int) -> int:
        """Append a >=2-literal clause span to the arena; watch its head.

        Watch lists are flat ``[cref, blocker, cref, blocker, ...]`` pair
        lists: the blocker is some literal of the clause (initially the
        other watched literal) whose truth lets propagation skip the
        clause without touching the arena at all.
        """
        arena = self.arena
        cref = len(arena)
        arena.append(len(enc))
        arena.append(_FLAG_LEARNED if learned else 0)
        arena.append(lbd)
        arena.extend(enc)
        self._watch(enc[0], cref, enc[1])
        self._watch(enc[1], cref, enc[0])
        self.live_clauses += 1
        if learned:
            self.learned_refs.append(cref)
            self.clause_act[cref] = self.cla_inc
        return cref

    def _watch(self, enc: int, cref: int, blocker: int) -> None:
        """Append a ``(cref, blocker)`` pair to ``enc``'s watch list."""
        ws = self.watches[enc]
        if ws is None:
            self.watches[enc] = [cref, blocker]
        else:
            ws.append(cref)
            ws.append(blocker)

    def load_clauses(self, clauses) -> None:
        """Bulk-insert problem clauses (sequences of DIMACS-signed ints
        without duplicate literals) into an empty-trail DB.

        The fast path behind :meth:`CDCLSolver._solve`: no per-clause
        value checks or watch-slot partitioning. Units are enqueued (or
        flag a root conflict); every other clause is appended watching its
        first two literals unconditionally. That may transiently watch a
        literal falsified by a pending unit — sound, because the unit is
        still ahead of the propagation head, so :meth:`propagate` will
        visit the clause and restore the invariant before it is ever
        relied upon. Tautologies are *not* filtered: a clause containing
        ``x`` and ``-x`` can never become unit (the two literals cannot
        both be false), so it is inert in the watch machinery and merely
        occupies arena space. Must not be used once propagation has run
        (``head`` > 0): use :meth:`add_clause` for mid-session inserts.
        """
        if self.head:
            raise SolverError("load_clauses() requires an unpropagated trail")
        watches = self.watches
        values = self.values
        buf: List[int] = []
        append = buf.append
        cref = len(self.arena)
        count = 0
        for lits in clauses:
            size = len(lits)
            if size == 0:
                self.root_conflict = True
                return
            if size == 1:
                lit = lits[0]
                enc = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
                value = values[enc]
                if value < 0:
                    self.root_conflict = True
                    return
                if value == 0:
                    self._enqueue(enc, -1)
                continue
            encs = [(lit << 1) if lit > 0 else ((-lit) << 1) | 1 for lit in lits]
            append(size)
            append(0)
            append(0)
            buf += encs
            first = encs[0]
            second = encs[1]
            ws = watches[first]
            if ws is None:
                watches[first] = [cref, second]
            else:
                ws.extend((cref, second))
            ws = watches[second]
            if ws is None:
                watches[second] = [cref, first]
            else:
                ws.extend((cref, first))
            cref += _HEADER + size
            count += 1
        self.arena.extend(buf)
        self.live_clauses += count

    # The same loader under its former name: ``perfbench/spans.py`` wraps
    # ``ArenaKernel.load_formula`` by name, and its tracer refuses to
    # install when a wrapped name is missing.
    load_formula = load_clauses

    def clause_literals(self, cref: int) -> Tuple[int, ...]:
        """The DIMACS literals of the clause at ``cref`` (diagnostics)."""
        arena = self.arena
        base = cref + _HEADER
        return tuple(decode(arena[k]) for k in range(base, base + arena[cref]))

    def _enqueue(self, enc: int, reason: int) -> None:
        self.values[enc] = 1
        self.values[enc ^ 1] = -1
        v = enc >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(enc)

    # -- propagation (the hot loop) -----------------------------------------
    def propagate(self, stats) -> int:
        """Exhaust unit propagation; return a conflicting cref or -1.

        Everything the inner loop touches is hoisted into locals: the
        arena, the per-literal value list, the watch lists and the trail.
        Watch lists are flat ``[cref, blocker]`` pair lists compacted in
        place (kept watchers slide left over moved ones) exactly once per
        falsified literal; a true blocker skips the clause without any
        arena access at all.
        """
        arena = self.arena
        watches = self.watches
        values = self.values
        trail = self.trail
        level = self.level
        reason = self.reason
        head = self.head
        lvl = len(self.trail_lim)
        start = head
        conflict = -1
        while head < len(trail):
            falsified = trail[head] ^ 1
            head += 1
            ws = watches[falsified]
            if not ws:
                continue
            i = 0
            j = 0
            n = len(ws)
            while i < n:
                blocker = ws[i + 1]
                if values[blocker] > 0:
                    ws[j] = ws[i]
                    ws[j + 1] = blocker
                    i += 2
                    j += 2
                    continue
                cref = ws[i]
                i += 2
                base = cref + 3
                other = arena[base]
                if other == falsified:
                    other = arena[base + 1]
                    arena[base + 1] = falsified
                    arena[base] = other
                if other != blocker and values[other] > 0:
                    ws[j] = cref
                    ws[j + 1] = other
                    j += 2
                    continue
                end = base + arena[cref]
                k = base + 2
                found = -1
                while k < end:
                    if values[arena[k]] >= 0:
                        found = k
                        break
                    k += 1
                if found >= 0:
                    replacement = arena[found]
                    arena[base + 1] = replacement
                    arena[found] = falsified
                    wr = watches[replacement]
                    if wr is None:
                        watches[replacement] = [cref, other]
                    else:
                        wr.append(cref)
                        wr.append(other)
                    continue
                # No replacement: the clause is unit or conflicting.
                ws[j] = cref
                ws[j + 1] = other
                j += 2
                if values[other] < 0:
                    conflict = cref
                    while i < n:  # keep the unvisited tail watched
                        ws[j] = ws[i]
                        ws[j + 1] = ws[i + 1]
                        j += 2
                        i += 2
                    break
                values[other] = 1
                values[other ^ 1] = -1
                v = other >> 1
                level[v] = lvl
                reason[v] = cref
                trail.append(other)
            del ws[j:]
            if conflict >= 0:
                break
        stats.propagations += head - start
        self.head = head
        return conflict

    # -- conflict analysis --------------------------------------------------
    def analyze(self, conflict: int) -> Tuple[List[int], int, int]:
        """First-UIP analysis: (encoded learned clause, backjump level, LBD).

        The learned clause has the asserting (first-UIP) literal at index 0
        and a literal of the backjump level at index 1, so it can be
        attached with the watch invariant intact.  Resolution walks the
        trail top-down; reason clauses keep their propagated literal at
        span position 0 (the propagation loop never reorders a clause while
        it is a reason), which is skipped as the pivot.
        """
        arena = self.arena
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        var_inc = self.var_inc
        current = len(self.trail_lim)
        seen = bytearray(self.num_vars + 1)
        learned: List[int] = [0]  # slot 0 for the asserting literal
        counter = 0
        cref = conflict
        idx = len(trail) - 1
        first = True
        while True:
            flags = arena[cref + 1]
            if flags & _FLAG_LEARNED:
                self._bump_clause(cref)
            base = cref + _HEADER
            end = base + arena[cref]
            k = base if first else base + 1  # skip the pivot at slot 0
            first = False
            while k < end:
                q = arena[k]
                k += 1
                v = q >> 1
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = 1
                act = activity[v] + var_inc
                activity[v] = act
                if act > 1e100:
                    self._rescale_var_activity()
                    var_inc = self.var_inc
                if level[v] == current:
                    counter += 1
                else:
                    learned.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            pivot = trail[idx]
            v = pivot >> 1
            idx -= 1
            seen[v] = 0
            counter -= 1
            if counter == 0:
                learned[0] = pivot ^ 1
                break
            cref = reason[v]
        if len(learned) > 2:
            self._minimize(learned, seen)
        if len(learned) == 1:
            return learned, 0, 1
        # Literal of the highest remaining level into the second watch slot.
        second = 1
        best = level[learned[1] >> 1]
        for k in range(2, len(learned)):
            lv = level[learned[k] >> 1]
            if lv > best:
                best = lv
                second = k
        learned[1], learned[second] = learned[second], learned[1]
        lbd = len({level[q >> 1] for q in learned})
        return learned, best, lbd

    def _minimize(self, learned: List[int], seen: bytearray) -> None:
        """Drop self-subsumed literals from the learned clause in place.

        A literal is redundant when every non-root literal of its reason
        clause is itself in the learned clause (MiniSat's non-recursive
        minimization): resolving it away with its reason yields a strict
        subset, so the shortened clause is still RUP against the database.
        ``seen`` still marks exactly the learned clause's non-asserting
        variables when this is called from :meth:`analyze`.
        """
        arena = self.arena
        reason = self.reason
        level = self.level
        kept = 1
        for idx in range(1, len(learned)):
            q = learned[idx]
            v = q >> 1
            cref = reason[v]
            redundant = False
            if cref >= 0:
                base = cref + _HEADER
                end = base + arena[cref]
                redundant = True
                for k in range(base, end):
                    rv = arena[k] >> 1
                    if rv != v and not seen[rv] and level[rv] > 0:
                        redundant = False
                        break
            if not redundant:
                learned[kept] = q
                kept += 1
        del learned[kept:]

    def analyze_final(self, falsified_enc: int) -> Tuple[int, ...]:
        """Minimized failing assumption core (MiniSat ``analyzeFinal``).

        ``falsified_enc`` is the encoded assumption literal found false at
        the current propagation fixpoint.  Its falsifying chain is traced
        back through the trail; every decision reached is an assumption
        (heuristic decisions live strictly above the assumption levels at
        this point) and propagated variables expand into their reason
        clauses.  Returns DIMACS literals sorted by variable.
        """
        if not self.trail_lim:
            return (decode(falsified_enc),)
        arena = self.arena
        reason = self.reason
        level = self.level
        seen = bytearray(self.num_vars + 1)
        seen[falsified_enc >> 1] = 1
        core = {decode(falsified_enc)}
        trail = self.trail
        for position in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            enc = trail[position]
            v = enc >> 1
            if not seen[v]:
                continue
            cref = reason[v]
            if cref < 0:
                # An assumption decision, recorded as it was assumed.
                core.add(decode(enc))
            else:
                base = cref + _HEADER
                for k in range(base, base + arena[cref]):
                    q = arena[k]
                    qv = q >> 1
                    if qv != v and level[qv] > 0:
                        seen[qv] = 1
            seen[v] = 0
        return tuple(sorted(core, key=abs))

    def learn(self, learned: List[int], stats, lbd: int = 0) -> None:
        """Attach the learned clause (already backjumped) and assert it.

        ``lbd`` is the literal block distance stamped by :meth:`analyze`
        (recomputed here when omitted, e.g. from tests).
        """
        stats.learned_clauses += 1
        if self.proof is not None:
            self.proof.add([decode(q) for q in learned])
        asserting = learned[0]
        if len(learned) == 1:
            if self.values[asserting] == 0:
                self._enqueue(asserting, -1)
            return
        if lbd <= 0:
            lbd = len({self.level[q >> 1] for q in learned[1:]}) + 1
        cref = self._alloc(learned, learned=True, lbd=lbd)
        self._enqueue(asserting, cref)

    # -- backtracking --------------------------------------------------------
    def backjump(self, target_level: int) -> None:
        """Undo every assignment above ``target_level``.

        Unassigned variables re-enter the branching heap with their current
        activity, and their last polarity is saved for phase saving.
        """
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            self.head = min(self.head, len(self.trail))
            return
        trail = self.trail
        values = self.values
        reason = self.reason
        phase = self.phase
        activity = self.activity
        heap = self.heap
        boundary = trail_lim[target_level]
        if heap is None:
            for k in range(len(trail) - 1, boundary - 1, -1):
                enc = trail[k]
                v = enc >> 1
                phase[v] = not (enc & 1)
                values[enc] = 0
                values[enc ^ 1] = 0
                reason[v] = -1
        else:
            for k in range(len(trail) - 1, boundary - 1, -1):
                enc = trail[k]
                v = enc >> 1
                phase[v] = not (enc & 1)
                values[enc] = 0
                values[enc ^ 1] = 0
                reason[v] = -1
                heappush(heap, (-activity[v], v))
        del trail[boundary:]
        del trail_lim[target_level:]
        if self.head > boundary:
            self.head = boundary

    # -- branching -----------------------------------------------------------
    def _rescale_var_activity(self) -> None:
        scale = 1e-100
        activity = self.activity
        for v in range(len(activity)):
            activity[v] *= scale
        self.var_inc *= scale
        values = self.values
        self.heap = [
            (-activity[v], v)
            for v in range(1, self.num_vars + 1)
            if values[v << 1] == 0
        ]
        heapify(self.heap)

    def _bump_clause(self, cref: int) -> None:
        act = self.clause_act.get(cref, 0.0) + self.cla_inc
        self.clause_act[cref] = act
        if act > 1e20:
            scale = 1e-20
            for ref in self.clause_act:
                self.clause_act[ref] *= scale
            self.cla_inc *= scale

    def decay_activities(self) -> None:
        """Per-conflict decay: future bumps weigh more (MiniSat scaling)."""
        self.var_inc /= self.decay
        self.cla_inc /= _CLAUSE_DECAY

    def pick_branch_variable(self) -> int:
        """Highest-activity unassigned variable (lazy heap with stale skips)."""
        heap = self.heap
        values = self.values
        if heap is None:
            activity = self.activity
            heap = self.heap = [
                (-activity[v], v)
                for v in range(1, self.num_vars + 1)
                if values[v << 1] == 0
            ]
            heapify(heap)
        while heap:
            _, v = heappop(heap)
            if values[v << 1] == 0:
                return v
        raise SolverError("no unassigned variable available for branching")

    # -- learned-clause DB reduction ----------------------------------------
    def locked_refs(self) -> set:
        """Clause refs currently serving as reasons on the trail."""
        reason = self.reason
        return {
            reason[enc >> 1] for enc in self.trail if reason[enc >> 1] >= 0
        }

    def reduce_db(self, stats) -> int:
        """Delete the worst half of the deletable learned clauses.

        Deletable = learned, not a reason of a trail literal, LBD above
        ``keep_lbd`` (glue clauses are kept forever).  Worst-first order is
        highest LBD, then lowest clause activity.  Deleted clauses emit
        DRAT ``d`` lines, and the arena is garbage-compacted (watch lists
        rebuilt) immediately.  Returns the number of deleted clauses.
        """
        arena = self.arena
        locked = self.locked_refs()
        keep_lbd = self.keep_lbd
        candidates = [
            cref
            for cref in self.learned_refs
            if cref not in locked and arena[cref + 2] > keep_lbd
        ]
        if len(candidates) < 2:
            return 0
        clause_act = self.clause_act
        candidates.sort(
            key=lambda cref: (-arena[cref + 2], clause_act.get(cref, 0.0))
        )
        doomed = candidates[: len(candidates) // 2]
        proof = self.proof
        for cref in doomed:
            if proof is not None:
                proof.delete(self.clause_literals(cref))
            arena[cref + 1] |= _FLAG_DELETED
            self.live_clauses -= 1
        self.compact()
        self.reductions += 1
        if _telemetry.active():
            _telemetry.emit("repro_cdcl_reductions_total")
            _telemetry.emit("repro_cdcl_clauses_deleted_total", len(doomed))
        return len(doomed)

    def compact(self) -> None:
        """Rebuild the arena without deleted spans; rebuild the watches.

        Clause refs change, so reasons on the trail, the learned-ref list
        and the clause-activity table are remapped.  Watch positions (span
        slots 0 and 1) are preserved, so the two-watcher invariant holds
        across compaction at any decision level.
        """
        old = self.arena
        new = array("i")
        remap: Dict[int, int] = {}
        i = 0
        n = len(old)
        while i < n:
            span = _HEADER + old[i]
            if not (old[i + 1] & _FLAG_DELETED):
                remap[i] = len(new)
                new.extend(old[i : i + span])
            i += span
        self.watches = [None] * len(self.watches)
        learned_refs: List[int] = []
        i = 0
        n = len(new)
        while i < n:
            base = i + _HEADER
            self._watch(new[base], i, new[base + 1])
            self._watch(new[base + 1], i, new[base])
            if new[i + 1] & _FLAG_LEARNED:
                learned_refs.append(i)
            i += _HEADER + new[i]
        reason = self.reason
        for enc in self.trail:
            v = enc >> 1
            if reason[v] >= 0:
                reason[v] = remap[reason[v]]
        self.clause_act = {
            remap[cref]: act
            for cref, act in self.clause_act.items()
            if cref in remap
        }
        self.learned_refs = learned_refs
        self.arena = new

    # -- the search loop -----------------------------------------------------
    def search(
        self,
        stats,
        assumptions: Sequence[int],
        check_timeout: Callable,
        solver_name: str = "cdcl",
    ):
        """Run CDCL to a verdict under (DIMACS) ``assumptions``.

        Returns ``(status, model, core)``: ``model`` is a ``{var: bool}``
        dict on SAT; ``core`` is the minimized failing-assumption tuple on
        UNSAT under assumptions, ``()`` on assumption-free UNSAT with
        assumptions present, ``None`` otherwise.  ``check_timeout(stats)``
        is polled once per propagation fixpoint and raises to abort.
        """
        assumed = [encode(lit) for lit in assumptions]
        restart_count = 0
        conflicts_until_restart = self.restart_base * luby(1)
        conflicts_since_restart = 0

        while True:
            check_timeout(stats)
            if _telemetry.tracing_active():
                before = stats.propagations
                with _telemetry.span("propagate") as prop_span:
                    conflict = self.propagate(stats)
                    prop_span.set(
                        assigned=stats.propagations - before,
                        conflict=conflict >= 0,
                    )
            else:
                conflict = self.propagate(stats)
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_since_restart += 1
                self._conflicts_since_reduce += 1
                if stats.conflicts > self.max_conflicts:
                    raise SolverError(
                        f"CDCL exceeded the conflict cap of {self.max_conflicts}"
                    )
                if not self.trail_lim:
                    self.root_conflict = True
                    self.emit_empty()
                    return "UNSAT", None, () if assumed else None
                learned, backjump_level, lbd = self.analyze(conflict)
                self.backjump(backjump_level)
                self.learn(learned, stats, lbd)
                self.decay_activities()
                if (
                    self.reduce_interval
                    and self._conflicts_since_reduce >= self.reduce_interval
                ):
                    self._conflicts_since_reduce = 0
                    self.reduce_db(stats)
                if conflicts_since_restart >= conflicts_until_restart:
                    stats.restarts += 1
                    restart_count += 1
                    if _telemetry.tracing_active():
                        _telemetry.event(
                            "restart",
                            number=stats.restarts,
                            conflicts=stats.conflicts,
                            interval=conflicts_until_restart,
                        )
                    if _telemetry.active():
                        _telemetry.emit(
                            "repro_learned_db_clauses",
                            self.live_clauses,
                            solver=solver_name,
                        )
                        average, longest = self.watch_stats()
                        _telemetry.emit(
                            "repro_cdcl_watch_list_length_avg", round(average, 3)
                        )
                        _telemetry.emit("repro_cdcl_watch_list_length_max", longest)
                    # Keep the already-established assumption levels across
                    # the restart — they must be re-taken verbatim anyway.
                    self.backjump(self._assumption_prefix(assumed))
                    conflicts_since_restart = 0
                    conflicts_until_restart = self.restart_base * luby(
                        restart_count + 1
                    )
                continue

            # Decide pending assumptions (in order) before heuristic
            # branching; a falsified assumption means UNSAT *under the
            # assumptions* and yields a minimized core.
            next_assumption = -1
            falsified_assumption = -1
            values = self.values
            for enc in assumed:
                value = values[enc]
                if value < 0:
                    falsified_assumption = enc
                    break
                if value == 0:
                    next_assumption = enc
                    break
            if falsified_assumption >= 0:
                core = self.analyze_final(falsified_assumption)
                return "UNSAT", None, core
            if next_assumption >= 0:
                self.trail_lim.append(len(self.trail))
                self._enqueue(next_assumption, -1)
                continue

            if len(self.trail) == self.num_vars:
                model = {
                    v: values[v << 1] > 0 for v in range(1, self.num_vars + 1)
                }
                return "SAT", model, None

            variable = self.pick_branch_variable()
            stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            # Phase saving: re-take the polarity the variable last held
            # (False for never-assigned variables — the classic
            # negative-first default).
            self._enqueue(
                (variable << 1) | (0 if self.phase[variable] else 1), -1
            )

    def _assumption_prefix(self, assumed: Sequence[int]) -> int:
        """Number of leading decision levels that are assumption decisions."""
        if not assumed:
            return 0
        assumed_set = set(assumed)
        trail = self.trail
        prefix = 0
        for boundary in self.trail_lim:
            if trail[boundary] in assumed_set:
                prefix += 1
            else:
                break
        return prefix

    # -- diagnostics ---------------------------------------------------------
    def watch_stats(self) -> Tuple[float, int]:
        """(average, maximum) watch-list length over all literals.

        Lengths count watched clauses (watch lists store ``[cref,
        blocker]`` pairs, so entries are halved).
        """
        lengths = [len(ws) >> 1 if ws else 0 for ws in self.watches[2:]]
        if not lengths:
            return 0.0, 0
        return sum(lengths) / len(lengths), max(lengths)

    def check_invariants(self, at_fixpoint: bool = False) -> List[str]:
        """Structural self-check; returns human-readable violations.

        Verified unconditionally: arena span integrity, every live clause
        watched exactly once from each of its first two literals, every
        watch-list entry pointing at a live clause that has the watching
        literal in a watch slot, value/trail agreement, level monotonicity
        along the trail and reason-clause sanity.  With ``at_fixpoint``
        (after :meth:`propagate` returned no conflict) additionally the
        two-watcher invariant in its blocker-scheme form: a falsified
        watched literal implies the other watch is true *or* some literal
        of the clause is true (a true blocker lets propagation skip the
        clause without repairing its watches).  A falsified watch with no
        true literal anywhere in the clause means propagation missed a
        unit or a conflict.
        """
        errors: List[str] = []
        arena = self.arena
        values = self.values
        # Arena traversal + expected watch sets.
        expected: Dict[int, List[int]] = {}
        i = 0
        n = len(arena)
        while i < n:
            size = arena[i]
            if size < 2:
                errors.append(f"cref {i}: stored clause of size {size}")
                break
            base = i + _HEADER
            if base + size > n:
                errors.append(f"cref {i}: span overruns the arena")
                break
            if not (arena[i + 1] & _FLAG_DELETED):
                for slot in (0, 1):
                    expected.setdefault(arena[base + slot], []).append(i)
                if at_fixpoint:
                    first, second = arena[base], arena[base + 1]
                    if (
                        (values[first] < 0 or values[second] < 0)
                        and values[first] <= 0
                        and values[second] <= 0
                        and not any(
                            values[arena[k]] > 0
                            for k in range(base, base + size)
                        )
                    ):
                        errors.append(
                            f"cref {i}: watch {decode(first)}/"
                            f"{decode(second)} falsified but no literal "
                            "satisfies the clause (missed unit/conflict)"
                        )
            i += _HEADER + size
        for enc, ws in enumerate(self.watches):
            ws = ws or []
            if len(ws) % 2:
                errors.append(
                    f"literal {decode(enc)}: odd watch-list length {len(ws)}"
                )
                continue
            want = sorted(expected.get(enc, []))
            got = sorted(ws[0::2])
            if want != got:
                errors.append(
                    f"literal {decode(enc)}: watch list {got} != expected {want}"
                )
            for pos in range(0, len(ws), 2):
                cref, blocker = ws[pos], ws[pos + 1]
                if cref + _HEADER > n:
                    continue  # already reported via the set mismatch
                base = cref + _HEADER
                span = arena[base : base + arena[cref]]
                if blocker not in span:
                    errors.append(
                        f"literal {decode(enc)}: blocker {decode(blocker)} "
                        f"not a literal of clause at cref {cref}"
                    )
        # Trail/value agreement and level bookkeeping.
        on_trail = set()
        for position, enc in enumerate(self.trail):
            v = enc >> 1
            if values[enc] != 1 or values[enc ^ 1] != -1:
                errors.append(f"trail literal {decode(enc)} not assigned true")
            if v in on_trail:
                errors.append(f"variable x{v} appears twice on the trail")
            on_trail.add(v)
            implied_level = 0
            for mark, boundary in enumerate(self.trail_lim):
                if position >= boundary:
                    implied_level = mark + 1
            if self.level[v] != implied_level:
                errors.append(
                    f"x{v}: level {self.level[v]} but trail says {implied_level}"
                )
            cref = self.reason[enc >> 1]
            if cref >= 0:
                if cref + _HEADER > n or arena[cref + 1] & _FLAG_DELETED:
                    errors.append(f"x{v}: reason cref {cref} is not live")
                elif arena[cref + _HEADER] != enc:
                    errors.append(
                        f"x{v}: reason clause does not assert it at slot 0"
                    )
        assigned = {
            v
            for v in range(1, self.num_vars + 1)
            if values[v << 1] != 0
        }
        if assigned != on_trail:
            errors.append(
                f"assigned variables {sorted(assigned)} != trail {sorted(on_trail)}"
            )
        if self.trail_lim != sorted(self.trail_lim):
            errors.append(f"trail_lim not monotone: {self.trail_lim}")
        if not 0 <= self.head <= len(self.trail):
            errors.append(f"propagation head {self.head} out of range")
        return errors
