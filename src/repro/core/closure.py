"""Sync-preserving closure computation (Definition 3, Algorithm 1).

The closure of an event set S is the smallest superset closed under

  (a) thread order and reads-from predecessors (the ``<=TRF`` ideal), and
  (b) the lock rule: among any two acquires on the same lock inside the
      set, the earlier one's matching release is also in the set.

Representing the closure by its TRF *timestamp* ``T`` (the downward
closure of S under ``<=TRF`` is exactly ``{e | TS(e) ⊑ T}``), rule (a)
is free and rule (b) becomes Algorithm 1's fix-point over critical-
section histories (:mod:`repro.locks.history`).

:class:`SPClosure` is the one engine for that fix-point.  Both
detectors run it over the same history type: SPDOnline keeps one per
thread over the history it fills live, and SPDOffline checks each
abstract pattern with a fresh one over the history
:class:`SPClosureEngine` builds up front.  The offline check is thus an
online closure over a history known in advance, reset per pattern.
Both detectors keep these per-thread closures as prefix closures that
follow the thread's acquires in order.  The engine memoizes each
acquire's ``P[e] = SPClosure(pred(e))``, from which Algorithm 2
decides most instantiations with one epoch test
(:mod:`repro.core.spd_offline`); SPDOnline reads ``P[new]`` off its
thread's prefix closure at each check, and computes the rare joint
fix-point on a transient :meth:`SPClosure.clone` of it
(:mod:`repro.core.spd_online`); SPDOnlineK's checks of larger patterns
walk on such a clone too (:mod:`repro.core.spd_online_k`).

Only the *per-thread last* acquire inside the closure matters: earlier
acquires of the same thread on the same lock release the lock before
the later acquire (locks are non-reentrant), so their releases are
thread-order predecessors of an event already in the closure and enter
it for free.  And the trace-latest acquire among the kept ones may stay
open in the witness reordering, so its release is not forced in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Set, Tuple

import repro.obs as obs
from repro.locks.history import CSHistories
from repro.trace.trace import Trace, as_trace
from repro.vc.clock import VectorClock
from repro.vc.timestamps import TRFTimestamps


class SPClosure:
    """Algorithm 1 over one :class:`CSHistories`, with persistent cursors.

    The closure clock grows monotonically across calls (Proposition
    4.4), and so do the cursors into the histories, which is what makes
    a whole check linear (Lemma 4.3).  Work is driven by a dirty-lock
    worklist: seeds and joins report which slots they grew
    (``join_update``), once eviction summaries exist the history's
    append log reports history growth, and only the affected locks are
    re-advanced.  Closure membership of a record is the O(1)
    epoch test (acquire and release timestamps are canonical snapshots;
    see :mod:`repro.vc.timestamps`); a full release clock is touched
    only to join it.
    """

    __slots__ = ("_hist", "_by_lock", "clock", "_log_pos", "_pending")

    def __init__(self, histories: CSHistories) -> None:
        self._hist = histories
        # lid -> flat [cursor, last-record, cursor, last-record, ...]
        # row, one pair per history in histories.by_lock[lid] (extended
        # lazily when the lock gains a thread).
        self._by_lock: Dict[int, list] = {}
        self.clock = VectorClock(0)
        # Cursor into the history's append log, in *absolute* positions
        # (eviction compacts the log and advances its log_base):
        # histories that gained records past this point are dirty for
        # this closure.  -1 = never consulted; the first compute that
        # consults it dirties every lock with records directly
        # (O(locks), not O(log)).
        self._log_pos = -1
        self._pending: Set[int] = set()

    def clone(self) -> "SPClosure":
        """An independent closure over the same history, in this one's
        state: clock, cursor rows, log cursor and dirty locks are
        copied, so advancing either closure leaves the other untouched
        (the online detectors' joint fix-points start from a clone of a
        prefix closure)."""
        out = SPClosure.__new__(SPClosure)
        out._hist = self._hist
        out._by_lock = {lid: row[:] for lid, row in self._by_lock.items()}
        out.clock = self.clock.copy()
        out._log_pos = self._log_pos
        out._pending = set(self._pending)
        return out

    def canonical_clock(self) -> List[int]:
        """Checkpoint form (see SPDOnline.checkpoint).

        The closure state *is* its clock: cursors and candidates are
        derivable (a record is consumed iff its acquire value is ≤ the
        clock's thread component), and every consumed contribution is
        already folded into the fix-point clock.  A closure rebuilt
        from the clock alone self-heals bit-identically on its next
        compute — re-joining already-absorbed releases is a ⊑-skipped
        no-op at the fix-point.
        """
        return list(self.clock._v)

    def seed_values(self, values: List[int]) -> None:
        """Adopt restored clock components (rebuild-from-checkpoint).

        A seed join like any other: the restored clock need not be a
        fix-point (a context may checkpoint between a seed join and its
        next compute), so the locks of every restored slot are dirty.
        """
        if values:
            self.join_seed(VectorClock(values))

    def join_seed(self, seed: VectorClock) -> None:
        """Grow the closure clock; mark locks reachable from grown slots."""
        grown = self.clock.join_update(seed)
        if grown:
            lot = self._hist.locks_of_thread
            n = len(lot)
            pend = self._pending
            for s in grown:
                if s < n:
                    pend.update(lot[s])

    def compute(self, seed: VectorClock) -> VectorClock:
        """Fix-point closure starting from ``clock ⊔ seed``.

        Returns the closure's own clock: a caller that mutates it must
        pass a copy back (see :meth:`SPClosureEngine.compute`).
        """
        self.join_seed(seed)
        hist = self._hist
        t_clock = self.clock
        # Histories that gained records since this closure last looked:
        # consume the append log from this closure's cursor.  When the
        # backlog exceeds the lock count (first compute, or a long-idle
        # closure), dirtying every lock with records is the cheaper
        # superset — per compute this costs O(min(new records, locks)).
        # Only eviction summaries make that necessary: without them a
        # new record is unreachable until a seed or join grows its
        # thread's slot (its acquire value exceeds that thread's
        # component in every timestamp published before it), and
        # join_update reports every such growth.
        pend = self._pending
        log = hist.log
        base = hist.log_base
        pos = self._log_pos
        n = base + len(log)
        if pos < n and hist.evicted:
            if pos < base or n - pos > len(hist.by_lock):
                pend.update(hist.by_lock)
            else:
                for j in range(pos - base, len(log)):
                    pend.add(log[j])
            self._log_pos = n
        if not pend:
            return t_clock
        lot = hist.locks_of_thread
        nlot = len(lot)
        work = list(pend)
        while work:
            lid = work.pop()
            pend.discard(lid)
            joins = self._advance_lock(lid, t_clock)
            if joins:
                for rel_ts in joins:
                    for s in t_clock.join_update(rel_ts):
                        if s < nlot:
                            for l2 in lot[s]:
                                if l2 not in pend:
                                    pend.add(l2)
                                    work.append(l2)
        return t_clock

    def _advance_lock(
        self, lid: int, t_clock: VectorClock
    ) -> Optional[List[VectorClock]]:
        """Lines 4-9 of Algorithm 1 for one lock against ``t_clock``.

        Moves each history's cursor past every acquire inside the
        closure, keeping the last such record per thread, and returns
        the release timestamps of all kept records except the single
        trace-latest one (``None`` when nothing new is contributed).
        """
        hist = self._hist
        hists = hist.by_lock.get(lid)
        if not hists:
            return None
        row = self._by_lock.get(lid)
        # Rows created over an already-evicted history must fold the
        # evicted releases' summary clock into the closure (a sound
        # overapproximation — see CSHistories.evict); ``extra`` carries
        # those joins out even when no cursor moves.
        extra: Optional[List[VectorClock]] = None
        evicted = hist.evicted
        if row is None:
            row = self._by_lock[lid] = [0, None] * len(hists)
            if evicted:
                extra = _eviction_summaries(evicted, hists, lid)
        elif len(row) < 2 * len(hists):
            fresh = hists[len(row) // 2:]
            row.extend([0, None] * len(fresh))
            if evicted:
                extra = _eviction_summaries(evicted, fresh, lid)
        # Pass 1: advance cursors.  Acquire values strictly increase
        # within a history, so the last record inside the closure is
        # one bisect over the value column, and Corollary 4.5 keeps the
        # cursor monotone.  If none moves, every prior contribution was
        # already joined into t_clock (and, with mutex-exclusive
        # locking, a non-latest candidate's release timestamp was
        # already recorded when its successor acquire entered the
        # history) — nothing new, skip candidate building.
        tv = t_clock._v
        ltv = len(tv)
        moved = False
        i = 0
        for slot, records, col in hists:
            cursor = row[i]
            n = len(col)
            if cursor < n:
                bound = tv[slot] if slot < ltv else 0
                if col[cursor] <= bound:
                    cursor = bisect_right(col, bound, cursor + 1, n)
                    row[i] = cursor
                    row[i + 1] = records[cursor - 1]
                    moved = True
            i += 2
        if not moved:
            return extra
        candidates = [rec for rec in row[1::2] if rec is not None]
        if len(candidates) <= 1:
            return extra
        latest = candidates[0]
        for rec in candidates:
            if rec.acq_idx > latest.acq_idx:
                latest = rec
        joins: Optional[List[VectorClock]] = extra
        for rec in candidates:
            rel_val = rec.rel_val
            if rec is latest or rel_val is None:
                continue  # the open-section test: no release yet
            bound = tv[rec.slot] if rec.slot < ltv else 0
            if rel_val <= bound:
                continue  # release already inside the closure
            rel_ts = rec.rel_ts
            if rel_ts is None:
                rel_ts = hist.release_ts(rec)
            if joins is None:
                joins = [rel_ts]
            else:
                joins.append(rel_ts)
        return joins

    def rebase(self, trimmed: Dict[Tuple[int, int], int]) -> None:
        """Rebase row cursors after :meth:`CSHistories.evict` trimmed
        history prefixes.

        A cursor already past the trimmed prefix just shifts; a cursor
        that had *not* consumed every evicted record joins that
        history's summary clock instead — the closure can only grow,
        which keeps every subsequent report sound (reports fire when an
        acquire stays *outside* the closure, so overapproximating can
        only suppress them: eviction misses, never fabricates).
        """
        pending: Optional[VectorClock] = None
        hist = self._hist
        evicted = hist.evicted
        by_lock = hist.by_lock
        for lid, row in self._by_lock.items():
            for i, (slot, _, _) in zip(range(0, len(row), 2), by_lock[lid]):
                k = trimmed.get((slot, lid))
                if not k:
                    continue
                if row[i] >= k:
                    row[i] -= k
                else:
                    row[i] = 0
                    summary = evicted.get((slot, lid))
                    if summary is not None:
                        if pending is None:
                            pending = summary.copy()
                        else:
                            pending.join_with(summary)
        if pending is not None:
            self.join_seed(pending)


def _eviction_summaries(evicted, hists, lid) -> Optional[List[VectorClock]]:
    out: Optional[List[VectorClock]] = None
    for slot, _, _ in hists:
        summary = evicted.get((slot, lid))
        if summary is not None:
            if out is None:
                out = [summary]
            else:
                out.append(summary)
    return out


class SPClosureEngine:
    """Reusable Algorithm 1 runner bound to one trace.

    The engine owns the TRF timestamps and the critical-section
    histories, built once.  :meth:`compute` may be called repeatedly
    with growing timestamps — history cursors persist across calls,
    which is exactly the Proposition 4.4 reuse that makes Algorithm 2
    linear overall.  Call :meth:`reset` between independent
    abstract-pattern checks.

    It also owns the *prefix closures* ``P[e] = SPClosure(pred(e))`` of
    acquires (:meth:`prefix`), lazy and memoized per acquire.  For two
    acquires ``e < e'`` of one thread ``pred(e) ≤TO pred(e')``, so one
    :class:`SPClosure` per thread, seeded with its acquires'
    predecessors in thread order, reaches each ``P[e]`` in turn with
    cursors that never rewind: linear per thread (Lemma 4.3).  A caller
    that names its acquires up front (:meth:`name_acquires`) has each
    thread swept once; a request behind a thread's sweep restarts it,
    so a caller asking in any order still gets exact values.
    """

    def __init__(self, trace: Trace, timestamps: TRFTimestamps | None = None) -> None:
        self.trace = trace = as_trace(trace)
        self.timestamps = timestamps or TRFTimestamps(trace)
        self.histories = CSHistories.from_trace(trace, self.timestamps)
        self._closure = SPClosure(self.histories)
        #: acquire -> ``P[e]``, a snapshot of its thread sweep's clock
        self.prefixes: Dict[int, VectorClock] = {}
        #: thread slot -> acquires named up front, in thread order
        self._named: Dict[int, List[int]] = {}
        #: thread slot -> [its sweep's closure, last acquire it reached]
        self._sweeps: Dict[int, list] = {}
        #: Algorithm 2 tallies: instantiations decided by the prefix
        #: closures, and those that took an exact fix-point
        self.prefiltered = 0
        self.exact = 0

    def reset(self) -> None:
        """Start a fresh check: a new closure, O(1)."""
        self._closure = SPClosure(self.histories)

    def compute(self, t0: VectorClock) -> VectorClock:
        """Run Algorithm 1 starting from timestamp ``t0``.

        Returns the fix-point timestamp of ``SPClosure({e | TS(e) ⊑
        t0})`` joined with every earlier seed of the current check, as
        a copy-on-write snapshot: callers may join into it in place and
        pass it back as the next seed, and the closure still sees which
        slots grew.
        """
        obs.count("closure.compute")
        return self._closure.compute(t0).snapshot()

    def name_acquires(self, events: Iterable[int]) -> None:
        """Announce acquires whose :meth:`prefix` will be asked for, so
        that each thread's sweep reaches them all in one pass."""
        slots = self.timestamps._slots
        named: Dict[int, Set[int]] = {}
        for e in events:
            named.setdefault(slots[e], set()).add(e)
        for slot, acquires in named.items():
            acquires.update(self._named.get(slot, ()))
            self._named[slot] = sorted(acquires)

    def prefix(self, e: int) -> VectorClock:
        """``P[e]``: the closure timestamp of ``pred(e)``, memoized.

        On its way to ``e`` the thread's sweep also computes every
        named acquire it passes.  The returned clock is full width and
        shared: callers copy before joining into it.
        """
        p = self.prefixes.get(e)
        if p is not None:
            return p
        ts = self.timestamps
        slot = ts._slots[e]
        sweep = self._sweeps.get(slot)
        if sweep is None or sweep[1] > e:
            closure = SPClosure(self.histories)
            closure.join_seed(VectorClock.bottom(len(ts.universe)))
            sweep = self._sweeps[slot] = [closure, -1]
        closure = sweep[0]
        prefixes = self.prefixes
        pred_timestamp = ts.pred_timestamp
        named = self._named.get(slot, ())
        for w in named[bisect_right(named, sweep[1]):bisect_left(named, e)]:
            if w not in prefixes:
                prefixes[w] = closure.compute(pred_timestamp(w)).snapshot()
        sweep[1] = e
        p = prefixes[e] = closure.compute(pred_timestamp(e)).snapshot()
        return p

    def timestamp_of_events(self, events: Iterable[int]) -> VectorClock:
        """``TS(S) = ⨆ {TS(e)}`` for an event set."""
        out = VectorClock.bottom(len(self.timestamps.universe))
        out.join_many(self.timestamps.of(idx) for idx in events)
        return out

    def pred_timestamp_of_events(self, events: Iterable[int]) -> VectorClock:
        """``TS(pred(S))``: join of thread-local-predecessor timestamps."""
        out = VectorClock.bottom(len(self.timestamps.universe))
        out.join_many(self.timestamps.pred_timestamp(idx)
                      for idx in events)
        return out

    def members(self, t_clock: VectorClock) -> Set[int]:
        """The event set denoted by a closure timestamp.

        ``e`` is in the closure iff ``TS(e) ⊑ T``; equivalently, iff
        the event's per-thread position is within ``T``'s component for
        its thread (timestamps are inclusive per-thread counters).
        """
        out: Set[int] = set()
        for thread in self.trace.threads:
            slot = self.timestamps.universe.slot(thread)
            bound = t_clock.component(slot)
            for idx in self.trace.events_of_thread(thread)[:bound]:
                out.add(idx)
        return out


def sp_closure(trace: Trace, events: Iterable[int]) -> VectorClock:
    """One-shot closure timestamp of an event set (fresh engine)."""
    engine = SPClosureEngine(trace)
    return engine.compute(engine.timestamp_of_events(events))


def sp_closure_events(trace: Trace, events: Iterable[int]) -> Set[int]:
    """One-shot closure of an event set, as a set of event indices."""
    engine = SPClosureEngine(trace)
    t_clock = engine.compute(engine.timestamp_of_events(events))
    return engine.members(t_clock)


# -- telemetry ---------------------------------------------------------------
#
# _advance_lock runs once per dirty lock of every fix-point, offline and
# online — hot enough that even a guarded call is unwelcome on the
# disabled path.  Same patch-on-enable scheme as repro.vc.clock.

_OBS_COUNTS = {"cs.advance": 0, "cs.contributions": 0, "cs.resets": 0}


def _obs_install():
    c = _OBS_COUNTS
    orig_advance = SPClosure._advance_lock
    orig_reset = SPClosureEngine.reset

    def _advance_lock(self, lid, t_clock):
        c["cs.advance"] += 1
        joins = orig_advance(self, lid, t_clock)
        if joins:
            c["cs.contributions"] += 1
        return joins

    def reset(self):
        c["cs.resets"] += 1
        orig_reset(self)

    SPClosure._advance_lock = _advance_lock
    SPClosureEngine.reset = reset

    def undo():
        SPClosure._advance_lock = orig_advance
        SPClosureEngine.reset = orig_reset

    return undo


def _obs_register() -> None:
    obs.register_probe("closure", lambda: dict(_OBS_COUNTS))
    obs.on_enable(_obs_install)


_obs_register()
