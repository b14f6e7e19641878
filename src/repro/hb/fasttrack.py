"""FastTrack: epoch-optimized Happens-Before race detection
[Flanagan & Freund, PLDI 2009] — the substrate the paper's related
work contrasts with.

The full-vector-clock detector (:mod:`repro.hb.races`) spends O(T) per
access; FastTrack's observation is that most variables are accessed in
a totally ordered way, so the last access can be summarized by an
*epoch* ``c@t`` (clock value c of thread t) and compared in O(1).  The
read state adaptively inflates from an epoch to a full vector clock
only while reads are concurrent, and deflates back on a write.

Faithful to the published state machine:

- write-write: compare the write epoch against the writer's clock;
- write-read / read-write: epoch-vs-clock, with read-share inflation
  (SHARED state) and deflation on exclusive writes;
- locks, fork/join: standard HB clock maintenance.

Threads, locks, and variables are dense ints in the detector's own
names (:class:`~repro.trace.compiled.DetectorFeed`, the event path it
shares with SPDOnline): ``step()`` interns a string event, and a
session's or a :class:`~repro.trace.compiled.CompiledTrace`'s columns
stream through with their ids translated only where the source named
things in another order; races number events by arrival, as SPDOnline's
reports do.  Lock-release clocks carry their epoch so
ordered re-acquires skip the O(T) join, and the :class:`Epoch` type
itself lives in :mod:`repro.vc.clock`, shared with the deadlock
engines.

Equivalence with the full-VC detector on the *first race per variable*
is tested property-style in ``tests/test_fasttrack.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as obs
from repro.trace.compiled import CompiledTrace, DetectorFeed, compile_trace
from repro.trace.events import (
    OP_ACQUIRE,
    OP_FORK,
    OP_JOIN,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
)
from repro.vc.clock import Epoch, VectorClock

__all__ = [
    "Epoch",
    "FastTrack",
    "FastTrackRace",
    "FastTrackResult",
    "fasttrack_races",
]

_BOTTOM = Epoch(0, 0)


class _VarState:
    """FastTrack per-variable state: write epoch + read epoch-or-VC."""

    __slots__ = ("write", "write_event", "read", "read_event",
                 "shared_reads", "shared_events")

    def __init__(self) -> None:
        self.write = _BOTTOM
        self.write_event: Optional[int] = None
        self.read = _BOTTOM
        self.read_event: Optional[int] = None
        self.shared_reads: Optional[VectorClock] = None      # SHARED state
        self.shared_events: Dict[int, int] = {}              # slot -> event


@dataclass(frozen=True)
class FastTrackRace:
    first_event: int
    second_event: int
    variable: str
    kind: str  # "ww", "wr", "rw"


@dataclass
class FastTrackResult:
    races: List[FastTrackRace] = field(default_factory=list)
    #: O(1) epoch comparisons vs O(T) vector comparisons performed
    epoch_ops: int = 0
    vector_ops: int = 0
    elapsed: float = 0.0

    @property
    def num_races(self) -> int:
        return len(self.races)

    def racy_variables(self) -> Set[str]:
        return {r.variable for r in self.races}


class FastTrack(DetectorFeed):
    """Streaming epoch-based HB race detector."""

    def __init__(self) -> None:
        super().__init__()
        # Dense per-id state, sized to the names by _grow().
        self._clocks: List[VectorClock] = []
        # Threads that have performed an event or been fork targets.
        # A join of a thread never materialized this way is a no-op
        # (its epoch-1 initial clock represents no events; joining it
        # would fabricate an HB edge and mask races).
        self._materialized: List[bool] = []
        # Per-lock (release-epoch value, slot, clock) of the last release.
        self._last_release: List[Optional[Tuple[int, int, VectorClock]]] = []
        self._vars: List[_VarState] = []
        self.result = FastTrackResult()
        self._reported: Set[Tuple[str, str]] = set()
        self._events_seen = 0

    def _grow(self) -> None:
        names = self.names
        for slot in range(len(self._clocks), len(names.threads_tab)):
            c = VectorClock(slot + 1)
            c[slot] = 1  # epochs start at 1 so c@t ⋢ ⊥ holds
            self._clocks.append(c)
            self._materialized.append(False)
        self._last_release.extend(
            [None] * (len(names.locks_tab) - len(self._last_release)))
        for _ in range(len(self._vars), len(names.vars_tab)):
            self._vars.append(_VarState())

    def _report(self, first: Optional[int], second: int, vid: int,
                kind: str) -> None:
        if first is None:
            return
        var = self.names.vars_tab.names[vid]
        key = (var, kind)
        if key in self._reported:
            return
        self._reported.add(key)
        self.result.races.append(FastTrackRace(first, second, var, kind))

    # -- handlers (the PLDI'09 state machine) -------------------------------

    def step(self, event) -> None:
        self._step_coded(*self._intern(event))

    def _step_coded(self, op: int, tid: int, target_id: int) -> None:
        idx = self._events_seen
        self._events_seen = idx + 1
        c = self._clocks[tid]
        self._materialized[tid] = True
        if op == OP_WRITE:
            self._write(idx, target_id, c, tid)
        elif op == OP_READ:
            self._read(idx, target_id, c, tid)
        elif op == OP_ACQUIRE:
            rel = self._last_release[target_id]
            if rel is not None:
                # Epoch fast path: an ordered re-acquire needs no join.
                # Exact because release exports are canonical (each
                # release copies then immediately ticks, so one export
                # per component value); a thread that keeps syncing
                # after being join()ed could break canonicality, which
                # is why joins of unmaterialized threads are no-ops.
                self.result.epoch_ops += 1
                if rel[0] > c.component(rel[1]):
                    c.join_with(rel[2])
                    self.result.vector_ops += 1
        elif op == OP_RELEASE:
            self._last_release[target_id] = (c.component(tid), tid, c.snapshot())
            c.tick(tid)
        elif op == OP_FORK:
            child = self._clocks[target_id]
            self._materialized[target_id] = True
            child.join_with(c)
            self.result.vector_ops += 1
            c.tick(tid)
        elif op == OP_JOIN:
            if self._materialized[target_id]:
                child = self._clocks[target_id]
                c.join_with(child)
                self.result.vector_ops += 1
                # Tick the child past the absorbed observation so a
                # later export of it cannot reuse this component value
                # with more knowledge (acquire joins don't tick) —
                # keeps every export canonical, which the acquire
                # epoch fast-path's exactness depends on.
                child.tick(target_id)

    def _write(self, idx: int, vid: int, c: VectorClock, slot: int) -> None:
        vs = self._vars[vid]
        # WW check: epoch vs clock, O(1).
        self.result.epoch_ops += 1
        write = vs.write
        if write.slot != slot and not write.leq(c):
            self._report(vs.write_event, idx, vid, "ww")
        # RW check.
        if vs.shared_reads is not None:
            self.result.vector_ops += 1
            if not vs.shared_reads.leq(c):
                racer = self._shared_racer(vs, c)
                self._report(racer, idx, vid, "rw")
            # Deflate: exclusive write clears the shared read set.
            vs.shared_reads = None
            vs.shared_events.clear()
            vs.read = _BOTTOM
            vs.read_event = None
        else:
            self.result.epoch_ops += 1
            read = vs.read
            if read.slot != slot and not read.leq(c):
                self._report(vs.read_event, idx, vid, "rw")
        vs.write = Epoch(c[slot], slot)
        vs.write_event = idx
        c.tick(slot)

    def _read(self, idx: int, vid: int, c: VectorClock, slot: int) -> None:
        vs = self._vars[vid]
        # WR check, O(1).
        self.result.epoch_ops += 1
        write = vs.write
        if write.slot != slot and not write.leq(c):
            self._report(vs.write_event, idx, vid, "wr")
        if vs.shared_reads is not None:
            # Already SHARED: O(1) slot update.
            vs.shared_reads._ensure(slot + 1)
            vs.shared_reads[slot] = c[slot]
            vs.shared_events[slot] = idx
        else:
            self.result.epoch_ops += 1
            if vs.read.leq(c):
                # Same-epoch or ordered read: stay exclusive.
                vs.read = Epoch(c[slot], slot)
                vs.read_event = idx
            else:
                # Concurrent reads: inflate to SHARED.
                vc = VectorClock(max(slot, vs.read.slot) + 1)
                vc[vs.read.slot] = vs.read.clock
                vc[slot] = c[slot]
                vs.shared_reads = vc
                vs.shared_events = {}
                if vs.read_event is not None:
                    vs.shared_events[vs.read.slot] = vs.read_event
                vs.shared_events[slot] = idx
        c.tick(slot)

    def _shared_racer(self, vs: _VarState, c: VectorClock) -> Optional[int]:
        """Pick one concrete read event racing with the current write."""
        assert vs.shared_reads is not None
        for s, ev_idx in vs.shared_events.items():
            val = vs.shared_reads[s] if s < len(vs.shared_reads) else 0
            if val > (c[s] if s < len(c) else 0):
                return ev_idx
        return next(iter(vs.shared_events.values()), None)

    # -- batch / session drivers --------------------------------------------

    def feed_batch(self, compiled: CompiledTrace, lo: int, hi: int,
                   base: int = 0) -> None:
        """Session feed (see :mod:`repro.stream`): FastTrack's coded
        step takes no location, and numbers events by arrival, so a
        session's races name the same events a batch run over the full
        trace would."""
        ops, tids, targets = self._columns(compiled)
        step_coded = self._step_coded
        for i in range(lo, hi):
            # request events fall through _step_coded as no-ops,
            # matching step() exactly
            step_coded(ops[i], tids[i], targets[i])

    def run(self, trace) -> FastTrackResult:
        """Stream a whole trace (``Trace``, ``CompiledTrace`` or an event
        iterable) through the same feed path a live session drives; a
        ``Trace`` is fed its columns and builds no ``Event``."""
        start = time.perf_counter()
        compiled = compile_trace(trace)
        self.feed_batch(compiled, 0, len(compiled))
        self.result.elapsed = time.perf_counter() - start
        return self.result


def fasttrack_races(trace) -> FastTrackResult:
    """Run FastTrack over a complete trace."""
    return FastTrack().run(trace)


# -- telemetry ---------------------------------------------------------------
#
# A ``fasttrack.feed`` span per feed_batch, named after perfbench's
# per-layer key; patch-on-enable, as in repro.core.spd_online.


def _obs_install():
    orig_feed = FastTrack.feed_batch

    def feed_batch(self, compiled, lo, hi, base=0):
        with obs.span("fasttrack.feed", cat="fasttrack"):
            orig_feed(self, compiled, lo, hi, base)

    FastTrack.feed_batch = feed_batch
    return lambda: setattr(FastTrack, "feed_batch", orig_feed)


obs.on_enable(_obs_install)
