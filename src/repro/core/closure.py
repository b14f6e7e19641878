"""Sync-preserving closure computation (Definition 3, Algorithm 1).

The closure of an event set S is the smallest superset closed under

  (a) thread order and reads-from predecessors (the ``<=TRF`` ideal), and
  (b) the lock rule: among any two acquires on the same lock inside the
      set, the earlier one's matching release is also in the set.

Representing the closure by its TRF *timestamp* ``T`` (the downward
closure of S under ``<=TRF`` is exactly ``{e | TS(e) ⊑ T}``), rule (a)
is free and rule (b) becomes Algorithm 1's fix-point over critical-
section histories.
"""

from __future__ import annotations

from typing import Iterable, Set

import repro.obs as obs
from repro.locks.history import CSHistories
from repro.trace.trace import Trace, as_trace
from repro.vc.clock import VectorClock
from repro.vc.timestamps import TRFTimestamps


class SPClosureEngine:
    """Reusable Algorithm 1 runner bound to one trace.

    The engine owns the TRF timestamps and the critical-section
    histories.  :meth:`compute` may be called repeatedly with growing
    timestamps — history cursors persist across calls, which is exactly
    the Proposition 4.4 reuse that makes Algorithm 2 linear overall.
    Call :meth:`reset` between independent abstract-pattern checks.

    The fix-point is worklist-driven, mirroring the streaming engine's
    dirty-lock scheme: after the first pass of a check, a lock is
    re-examined only when the closure clock grew in a slot of a thread
    holding critical sections on it (``CSHistories.locks_of_slot``),
    instead of re-scanning every lock each round.
    """

    def __init__(self, trace: Trace, timestamps: TRFTimestamps | None = None) -> None:
        self.trace = trace = as_trace(trace)
        self.timestamps = timestamps or TRFTimestamps(trace)
        self.histories = CSHistories(trace, self.timestamps)
        self._locks = self.histories.locks  # static once built
        # The monotone clock of the current check (aliased with what
        # compute() returned) and its value snapshot at the end of the
        # last compute — the diff tells which slots the caller grew.
        self._clock: VectorClock | None = None
        self._last_vals: tuple = ()

    def reset(self) -> None:
        self.histories.reset()
        self._clock = None
        self._last_vals = ()

    def compute(self, t0: VectorClock) -> VectorClock:
        """Run Algorithm 1 starting from timestamp ``t0``.

        Returns the (possibly aliased, mutated) fix-point timestamp of
        ``SPClosure({e | TS(e) ⊑ t0})``.  Across calls of one check the
        seeds must be monotone (they are: callers join into the
        returned clock), which lets the worklist start from only the
        slots that grew since the previous fix-point.
        """
        histories = self.histories
        advance = histories.advance_lock
        locks_of_slot = histories.locks_of_slot
        if self._clock is None:
            # First fix-point of a check: every lock is potentially
            # live, so the opening round is a plain full sweep (the
            # dirty bookkeeping would not filter anything).
            t_clock = self._clock = t0.copy()
            grown = []
            for lock in self._locks:
                join = advance(lock, t_clock, None)
                if join is not None:
                    grown.extend(t_clock.join_update(join))
        else:
            # Subsequent fix-points grow from a small delta: the slots
            # the caller (or the new seed) grew since the last one.
            t_clock = self._clock
            if t0 is not t_clock:
                t_clock.join_with(t0)
            last = self._last_vals
            nlast = len(last)
            v = t_clock._v
            grown = [s for s in range(len(v))
                     if v[s] > (last[s] if s < nlast else 0)]
        # Batched rounds: each round advances every dirty lock against
        # exactly the slots that grew last round, and the joins those
        # contribute seed the next round's dirty set.
        rounds = 0
        while grown:
            rounds += 1
            pend: dict = {}
            for s in grown:
                for l2 in locks_of_slot.get(s, ()):
                    dirty = pend.get(l2)
                    if dirty is None:
                        pend[l2] = [s]
                    else:
                        dirty.append(s)
            grown = []
            for lock, slots in pend.items():
                join = advance(lock, t_clock, slots)
                if join is not None:
                    grown.extend(t_clock.join_update(join))
        self._last_vals = tuple(t_clock._v)
        obs.count("closure.compute")
        if rounds:
            obs.count("closure.rounds", rounds)
        return t_clock

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
            bound = t_clock[slot]
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
