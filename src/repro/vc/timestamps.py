"""Thread-reads-from (TRF) timestamps (paper Section 4.3).

``<=TRF`` is the reflexive-transitive closure of thread order united
with reads-from edges (and, in our extension, fork/join edges, which
the paper's artifact also tracks).  The timestamp of an event ``e`` is
``TS(e)(t) = |{ f in thread t | f <=TRF e }|`` so that

    e <=TRF f   iff   TS(e) ⊑ TS(f).

Computed for all events with a single O(N·T) vector-clock pass.

Storage is sparse: every event keeps its *epoch* ``(slot, val)`` — its
thread's slot and own component — and the id of an *anchor* row: its
thread's full clock (trailing zeros dropped) at the thread's first
event or at the last event where an incoming edge grew it.  Between
anchors only the own component moves, so ``TS(e)`` is exactly the
anchor row with its own slot set to ``val(e)``.

Every timestamp is a *canonical snapshot* (taken right after the owning
thread's tick), so membership of an event in a closure timestamp is the
O(1) epoch test :meth:`TRFTimestamps.leq_clock`.  The pass applies the
same test to its own edges: one whose source epoch the target clock
already knows is skipped, a reads-from edge whose source anchor it
knows raises one slot, and only the rest pay a join.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

import repro.obs as obs
from repro.trace.events import OP_FORK, OP_JOIN, OP_READ
from repro.trace.trace import Trace, as_trace
from repro.vc.clock import ThreadUniverse, VectorClock


class TRFTimestamps:
    """All-event TRF timestamps for one trace.

    Access with :meth:`of`.  Timestamps are *inclusive*: ``of(e)``
    counts ``e`` itself in its own thread's component.  The O(N·T)
    derivation pass runs once per construction.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace = as_trace(trace)
        self.universe = ThreadUniverse(trace.threads)
        # Per-event epoch of the timestamp: its thread slot and its own
        # component value (== per-thread position + 1), plus the id of
        # the anchor row holding its other components.
        self._slots = array("i")
        self._vals = array("i")
        self._anchor = array("i")
        #: anchor id -> the owning thread's clock at that point, trimmed
        self._rows: List[List[int]] = []
        with obs.span("vc.trf", cat="vc"):
            self._compute()

    def _compute(self) -> None:
        """One pass over the compiled int columns — no Event objects."""
        trace = self.trace
        compiled = trace.compiled
        index = trace.index
        ops, tids, targs = compiled.columns()
        rf = index.rf
        n_threads = len(self.universe)
        slot_of = self.universe.slot
        # tid -> slot / live clock; only acting threads have clocks (a
        # fork or join naming a thread that never runs is a no-op).
        # Live clocks tick in place; ``width`` is each clock's length
        # without trailing zeros and ``cur`` its current anchor, -1
        # when the thread's next event must store a new one.
        n_tids = len(compiled.threads_tab)
        tid_slot = [-1] * n_tids
        clocks: List[Optional[List[int]]] = [None] * n_tids
        width = [0] * n_tids
        cur = [-1] * n_tids
        thread_names = compiled.threads_tab.names
        for tid in index.thread_order:
            tid_slot[tid] = slot_of(thread_names[tid])
            clocks[tid] = [0] * n_threads
        rows, slots, vals, anchor = self._rows, self._slots, self._vals, self._anchor
        slots_append = slots.append
        vals_append = vals.append
        anchor_append = anchor.append
        joins = skips = 0

        for i in range(len(ops)):
            op = ops[i]
            tid = tids[i]
            c = clocks[tid]
            a = cur[tid]
            if op == OP_READ:
                w = rf[i]
                if w >= 0:
                    ws = slots[w]
                    if c[ws] >= vals[w]:
                        skips += 1
                    else:
                        row = rows[anchor[w]]
                        if c[ws] < row[ws]:     # unknown anchor: join its width
                            _join_live(c, row, len(row))
                            if len(row) > width[tid]:
                                width[tid] = len(row)
                        c[ws] = vals[w]
                        joins += 1
                        a = -1
            elif op == OP_JOIN:
                child = targs[i]
                cc = clocks[child]
                if cc is not None:
                    cs = tid_slot[child]
                    # The epoch test needs a canonical child clock: one
                    # not grown (by a late fork) since its last event.
                    if cur[child] >= 0 and c[cs] >= cc[cs]:
                        skips += 1
                    elif _join_live(c, cc, width[child]):
                        joins += 1
                        if width[child] > width[tid]:
                            width[tid] = width[child]
                        a = -1
            slot = tid_slot[tid]
            # Tick after incorporating predecessors so the timestamp is
            # inclusive of the event itself.
            v = c[slot] + 1
            c[slot] = v
            if a < 0:
                if slot >= width[tid]:
                    width[tid] = slot + 1
                a = cur[tid] = len(rows)
                rows.append(c[:width[tid]])
            slots_append(slot)
            vals_append(v)
            anchor_append(a)
            if op == OP_FORK:
                child = targs[i]
                cc = clocks[child]
                if cc is not None:
                    if cc[slot] >= v:
                        skips += 1
                    elif _join_live(cc, c, width[tid]):
                        joins += 1
                        if width[tid] > width[child]:
                            width[child] = width[tid]
                        cur[child] = -1
        obs.count("vc.trf.anchors", len(rows))
        obs.count("vc.trf.joins", joins)
        obs.count("vc.trf.join_skips", skips)

    def of(self, event_idx: int) -> VectorClock:
        """The (inclusive) TRF timestamp of the event at ``event_idx``.

        Built on demand from the event's anchor row: a fresh clock the
        caller may mutate, with trailing zero components omitted (read
        components with :meth:`VectorClock.component`).
        """
        out = VectorClock(self._rows[self._anchor[event_idx]])
        out._v[self._slots[event_idx]] = self._vals[event_idx]
        return out

    def epoch(self, event_idx: int):
        """``(slot, value)`` epoch of the event's timestamp."""
        return self._slots[event_idx], self._vals[event_idx]

    def leq_clock(self, event_idx: int, t_clock: VectorClock) -> bool:
        """``TS(e) ⊑ T`` as an O(1) epoch test.

        Exact for closure clocks built by joining stored timestamps:
        ``T`` knows thread ``t`` up to time ``v`` iff it absorbed
        ``t``'s canonical snapshot at ``v``.
        """
        return self._vals[event_idx] <= t_clock.component(self._slots[event_idx])

    def pred_timestamp(self, event_idx: int) -> VectorClock:
        """Timestamp of the thread-local predecessor of ``event_idx``.

        The bottom clock when the event is first in its thread.  This is
        the ``C_pred`` value used by the online algorithm (Algorithm 4)
        and by ``pred(S)`` in Lemma 4.2.
        """
        pred = self.trace.index.thread_pred[event_idx]
        if pred < 0:
            return VectorClock.bottom(len(self.universe))
        return self.of(pred)

    def leq(self, a: int, b: int) -> bool:
        """``a <=TRF b``: one component of ``TS(b)`` against ``a``'s epoch."""
        slot = self._slots[a]
        if slot == self._slots[b]:
            return self._vals[a] <= self._vals[b]
        row = self._rows[self._anchor[b]]
        return slot < len(row) and self._vals[a] <= row[slot]


def _join_live(dst: List[int], src: List[int], n: int) -> bool:
    """``dst ⊔= src[:n]`` on clock lists; True if ``dst`` grew."""
    grew = False
    for k in range(n):
        if src[k] > dst[k]:
            dst[k] = src[k]
            grew = True
    return grew


def compute_trf_timestamps(trace: Trace) -> TRFTimestamps:
    """Convenience constructor for :class:`TRFTimestamps`."""
    return TRFTimestamps(trace)


def trf_reachable_set(trace: Trace, sources: List[int]) -> set:
    """The ``<=TRF`` downward closure of ``sources`` (explicit BFS).

    O(N + edges) reference implementation used by tests to validate the
    timestamp characterization and by the false-negative analysis of
    Section 6.1 (the "downward-closure of pred(D)" criterion).
    """
    fork_of: Dict[str, int] = {}
    for ev in trace:
        if ev.is_fork and ev.target not in fork_of:
            fork_of[ev.target] = ev.idx

    work = list(sources)
    seen = set(sources)

    def push(p: Optional[int]) -> None:
        if p is not None and p not in seen:
            seen.add(p)
            work.append(p)

    while work:
        idx = work.pop()
        ev = trace[idx]
        pred = trace.thread_predecessor(idx)
        push(pred)
        if pred is None:
            push(fork_of.get(ev.thread))  # first event depends on its fork
        if ev.is_read:
            push(trace.rf(idx))
        if ev.is_join:
            child_events = trace.events_of_thread(ev.target)
            if child_events:
                push(child_events[-1])
    return seen
