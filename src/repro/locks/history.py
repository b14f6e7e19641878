"""Critical-section histories (``CSHist`` in Algorithm 1).

For every (thread, lock) pair, the history lists that thread's acquire
events on that lock, each with its TRF timestamp and the timestamp of
its matching release (if any).  Algorithm 1 consumes these FIFO queues
front-to-back during the closure fix-point.  Consumed prefixes stay
consumed across successive closure computations of one abstract-pattern
check (sound by the monotonicity of Proposition 4.4), so each queue is
traversed at most once per check — the key to the linear total time of
Lemma 4.3.

Only the *per-thread last* acquire inside the closure matters: earlier
acquires of the same thread on the same lock release the lock before
the later acquire (locks are non-reentrant), so their releases are
thread-order predecessors of an event already in the closure and enter
it for free.

Closure-membership tests use the O(1) epoch form (acquire and release
timestamps are canonical snapshots; see :mod:`repro.vc.timestamps`);
the full release clock is kept only for the join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.trace.events import OP_ACQUIRE
from repro.trace.trace import Trace, as_trace
from repro.vc.clock import VectorClock
from repro.vc.timestamps import TRFTimestamps


@dataclass
class CSEntry:
    """One critical section: acquire index, its timestamp epoch
    ``(slot, acq_val)``, and the matching release (``rel_val`` is the
    release timestamp's own-slot component; ``None`` if the lock is
    never released in the observed trace)."""

    acq_idx: int
    slot: int
    acq_val: int
    rel_val: Optional[int]
    rel_ts: Optional[VectorClock]


class CSHistories:
    """Per-(thread, lock) critical-section queues with persistent cursors.

    ``advance_lock(l, T)`` implements lines 4-9 of Algorithm 1 for one
    lock: it walks each thread's queue past every acquire whose
    timestamp is ``⊑ T``, remembering the last such acquire per thread
    (line 6-7: earlier entries are dropped, the last one is kept), and
    returns the join of the matching-release timestamps of all kept
    acquires except the single trace-latest one, whose critical section
    may remain open in the witness reordering.
    """

    def __init__(self, trace: Trace, timestamps: TRFTimestamps) -> None:
        self.trace = trace = as_trace(trace)
        self.timestamps = timestamps
        # Keys are interned (tid, lock id) pairs / lock ids: the queues
        # are built straight off the compiled columns, one pass, no
        # Event objects or string hashing.
        self._queues: Dict[Tuple[int, int], List[CSEntry]] = {}
        self._threads_with_lock: Dict[int, List[int]] = {}
        #: timestamp slot -> lock ids with critical sections by that
        #: thread — the dirty-lock fan-out of the closure worklist
        #: (a grown slot can only unlock progress on these locks).
        self.locks_of_slot: Dict[int, List[int]] = {}
        # Per-lock rows aligned with _threads_with_lock[lock]:
        # [cursor, last-entry, queue].  Rows carry the generation of
        # the check they belong to and are rebuilt lazily: reset()
        # only bumps the generation, so locks a check never touches
        # never pay for a rebuild.
        self._rows: Dict[int, Tuple[int, List[list]]] = {}
        self._gen = 0
        #: static per-lock map: timestamp slot -> row index (each
        #: (thread, lock) pair owns one row; built once, shared by
        #: every reset)
        self._slot_index: Dict[int, Dict[int, int]] = {}
        compiled = trace.compiled
        index = trace.index
        ops, tids, targs = compiled.columns()
        match = index.match
        slots = timestamps._slots
        vals = timestamps._vals
        for i in range(len(ops)):
            if ops[i] != OP_ACQUIRE:
                continue
            rel = match[i]
            entry = CSEntry(
                acq_idx=i,
                slot=slots[i],
                acq_val=vals[i],
                rel_val=vals[rel] if rel >= 0 else None,
                rel_ts=timestamps.of(rel) if rel >= 0 else None,
            )
            key = (tids[i], targs[i])
            if key not in self._queues:
                self._queues[key] = []
                twl = self._threads_with_lock.setdefault(targs[i], [])
                self._slot_index.setdefault(targs[i], {})[slots[i]] = len(twl)
                twl.append(tids[i])
                self.locks_of_slot.setdefault(slots[i], []).append(targs[i])
            self._queues[key].append(entry)
        self.reset()

    def reset(self) -> None:
        """Rewind all cursors (start a fresh abstract-pattern check).

        O(1): row lists are tagged with a generation and rebuilt
        lazily, on the first :meth:`advance_lock` touch of each lock in
        the new check.
        """
        self._gen += 1

    @property
    def locks(self) -> List[int]:
        """Interned lock ids with at least one acquire (opaque tokens
        for :meth:`advance_lock`), in first-acquire order."""
        return list(self._threads_with_lock)

    def advance_lock(self, lock: int, t_clock: VectorClock,
                     slots=None) -> Optional[VectorClock]:
        """One Algorithm 1 inner-loop pass for ``lock`` against ``t_clock``.

        Returns the join of release timestamps that must enter the
        closure, or ``None`` when nothing new is contributed.  Mirrors
        the streaming engine's cursor/worklist scheme: with ``slots``
        given (the clock slots that grew since this lock was last
        advanced), only those threads' rows are touched — a row whose
        own component did not grow cannot move its cursor — and if no
        cursor moves, every prior contribution was already joined into
        the (monotone) closure clock of the current check, so candidate
        rebuilding is skipped entirely.
        """
        entry = self._rows.get(lock)
        if entry is None or entry[0] != self._gen:
            threads = self._threads_with_lock.get(lock)
            if not threads:
                return None
            rows = [[0, None, self._queues[(t, lock)]] for t in threads]
            self._rows[lock] = (self._gen, rows)
        else:
            rows = entry[1]
        tv = t_clock._v
        ltv = len(tv)
        moved = False
        if slots is None or len(slots) >= len(rows):
            # Not selective (typical for a check's first fix-point
            # round): the plain row sweep is cheaper than filtering.
            touched = rows
        else:
            by_slot = self._slot_index[lock]
            touched = [rows[i] for i in
                       {by_slot[s] for s in slots if s in by_slot}]
        for row in touched:
            cursor = row[0]
            queue = row[2]
            n = len(queue)
            if cursor < n:
                slot = queue[0].slot
                bound = tv[slot] if slot < ltv else 0
                if queue[cursor].acq_val <= bound:
                    last = queue[cursor]
                    cursor += 1
                    while cursor < n and queue[cursor].acq_val <= bound:
                        last = queue[cursor]
                        cursor += 1
                    row[0] = cursor
                    row[1] = last
                    moved = True
        if not moved:
            return None
        candidates: Optional[List[CSEntry]] = None
        for row in rows:
            last = row[1]
            if last is not None:
                if candidates is None:
                    candidates = [last]
                else:
                    candidates.append(last)
        if candidates is None or len(candidates) <= 1:
            return None
        latest = candidates[0]
        for entry in candidates:
            if entry.acq_idx > latest.acq_idx:
                latest = entry
        join: Optional[VectorClock] = None
        for entry in candidates:
            if entry is latest or entry.rel_ts is None:
                continue
            bound = tv[entry.slot] if entry.slot < ltv else 0
            if entry.rel_val <= bound:
                continue  # already inside the closure
            if join is None:
                join = entry.rel_ts.copy()
            else:
                join.join_with(entry.rel_ts)
        return join


# -- telemetry ---------------------------------------------------------------
#
# advance_lock runs once per (lock, fix-point round) of every abstract
# pattern check — hot enough that even a guarded call is unwelcome on
# the disabled path.  Same patch-on-enable scheme as repro.vc.clock.

_OBS_COUNTS = {"cs.advance": 0, "cs.contributions": 0, "cs.resets": 0}


def _obs_install():
    c = _OBS_COUNTS
    orig_advance = CSHistories.advance_lock
    orig_reset = CSHistories.reset

    def advance_lock(self, lock, t_clock, slots=None):
        c["cs.advance"] += 1
        join = orig_advance(self, lock, t_clock, slots)
        if join is not None:
            c["cs.contributions"] += 1
        return join

    def reset(self):
        c["cs.resets"] += 1
        orig_reset(self)

    CSHistories.advance_lock = advance_lock
    CSHistories.reset = reset

    def undo():
        CSHistories.advance_lock = orig_advance
        CSHistories.reset = orig_reset

    return undo


def _obs_register() -> None:
    import repro.obs as obs

    obs.register_probe("cs_histories", lambda: dict(_OBS_COUNTS))
    obs.on_enable(_obs_install)


_obs_register()
