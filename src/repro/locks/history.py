"""Critical-section histories (``CSHist`` in Algorithms 1 and 4).

For every (thread, lock) pair, the history lists that thread's acquire
events on that lock in trace order, each with the epoch of its acquire
timestamp and the timestamp of its matching release (if any).  One type
serves both detectors, filled in one of two ways:

- up front, by :meth:`CSHistories.from_trace`: one pass over a trace's
  compiled columns, releases taken from ``index.match`` (SPDOffline and
  every other offline closure user, through
  :class:`repro.core.closure.SPClosureEngine`).  A record gets its
  release's epoch value at once, and its full release clock from the
  TRF store only at the first closure join that needs it
  (:meth:`CSHistories.release_ts`), so a release no closure joins
  never builds its clock;
- live, by SPDOnline: :meth:`CSHistories.append` at an acquire, the
  record's release fields set at its release, and closed prefixes
  trimmed into summary clocks by :meth:`CSHistories.evict` under
  bounded-memory monitoring.

The closure engine (:class:`repro.core.closure.SPClosure`) reads these
lists through per-closure cursors; nothing here is per closure.

Representation:

- one slotted :class:`CSRecord` per acquire;
- per (thread slot, lock) the record list and an int column of its
  acquire values.  Values strictly increase within a history (the
  thread ticks at every event), and closure cursors only move forward
  (Corollary 4.5), so a cursor advance is one ``bisect_right`` over the
  column;
- per lock its ``(slot, records, column)`` triples (:attr:`by_lock`),
  and per thread slot the locks it holds histories on
  (:attr:`locks_of_thread`): the dirty-lock fan-out of the closure
  worklist, since a grown slot can only unlock progress on those locks;
- an append log of lock ids, one entry per record, through which a
  closure learns which histories grew since it last computed.  Only
  eviction summaries make that matter (see
  :meth:`repro.core.closure.SPClosure.compute`), so closures consult
  it once :attr:`evicted` is non-empty; :attr:`log_base` counts
  entries compacted away, so absolute log positions stay meaningful;
- per trimmed history the join of its evicted release clocks
  (:attr:`evicted`), the sound overapproximation closures consult
  instead of the trimmed records.

Only the records, the log and the summaries are canonical: pickling
keeps those and rebuilds the columns and indexes, so a checkpoint never
depends on how they are laid out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.trace.events import OP_ACQUIRE
from repro.trace.trace import Trace, as_trace
from repro.vc.clock import VectorClock
from repro.vc.timestamps import TRFTimestamps


class CSRecord:
    """One critical section.

    ``acq_idx`` is the acquire's trace position (the latest-candidate
    tiebreaker) and ``(slot, acq_val)`` its timestamp epoch: closure
    membership of the acquire is exactly ``acq_val <= T[slot]``.
    ``rel_val``/``rel_ts`` are the matching release's own component
    and full timestamp, ``None`` while the section is open (a history
    built up front leaves ``rel_ts`` to :meth:`CSHistories.release_ts`).
    ``pred_ts``/``loc`` are set by SPDOnline on a guarded acquire's
    record, which it queues for deadlock checks: the thread's
    predecessor clock that seeds the checks' closures, and the event's
    location (``None`` when it carried none), for reports.
    """

    __slots__ = ("acq_idx", "slot", "acq_val", "rel_val", "rel_ts",
                 "pred_ts", "loc")

    def __init__(self, acq_idx: int, slot: int, acq_val: int) -> None:
        self.acq_idx = acq_idx
        self.slot = slot
        self.acq_val = acq_val
        self.rel_val: Optional[int] = None
        self.rel_ts: Optional[VectorClock] = None
        self.pred_ts: Optional[VectorClock] = None
        self.loc: Optional[str] = None


class CSHistories:
    """Per-(thread, lock) critical-section histories, shared by every
    closure over one trace or stream."""

    #: TRF store and release column of a history built up front, the
    #: source of :meth:`release_ts` (live histories set ``rel_ts``)
    _timestamps: Optional[TRFTimestamps] = None
    _match = None

    def __init__(self) -> None:
        #: (slot, lock) -> its records in acquire order
        self.records: Dict[Tuple[int, int], List[CSRecord]] = {}
        #: lock id per appended record (see the module docstring)
        self.log: List[int] = []
        self.log_base = 0
        #: (slot, lock) -> join of the release timestamps evicted from it
        self.evicted: Dict[Tuple[int, int], VectorClock] = {}
        self._index()

    @classmethod
    def from_trace(cls, trace: Trace,
                   timestamps: TRFTimestamps) -> "CSHistories":
        """Every critical section of a complete trace, in one pass.

        Keys are timestamp slots and interned lock ids, straight off
        the compiled columns: no Event objects or string hashing.  The
        log stays empty: nothing is ever evicted from such a history.
        """
        out = cls()
        trace = as_trace(trace)
        ops, _, targs = trace.compiled.columns()
        out._timestamps = timestamps
        out._match = match = trace.index.match
        slots = timestamps._slots
        vals = timestamps._vals
        records = out.records
        cols = out.cols
        for i in range(len(ops)):
            if ops[i] != OP_ACQUIRE:
                continue
            slot = slots[i]
            key = (slot, targs[i])
            if key not in records:
                out._new_history(slot, targs[i])
            rec = CSRecord(i, slot, vals[i])
            rel = match[i]
            if rel >= 0:
                rec.rel_val = vals[rel]
            records[key].append(rec)
            cols[key].append(rec.acq_val)
        return out

    def release_ts(self, rec: CSRecord) -> VectorClock:
        """``rec``'s release clock, filled from the TRF store on first use."""
        rec.rel_ts = out = self._timestamps.of(self._match[rec.acq_idx])
        return out

    def _index(self) -> None:
        """(Re)build the value columns and the per-lock and per-thread
        indexes from the canonical records."""
        #: (slot, lock) -> acquire values of its records
        self.cols: Dict[Tuple[int, int], List[int]] = {}
        #: lock -> (slot, records, column) per history on it
        self.by_lock: Dict[int, List[Tuple[int, List[CSRecord],
                                           List[int]]]] = {}
        #: slot -> locks with a history by that thread
        self.locks_of_thread: List[List[int]] = []
        for (slot, lock), records in self.records.items():
            self._add_index(slot, lock, records,
                            [rec.acq_val for rec in records])

    def _add_index(self, slot: int, lock: int, records: List[CSRecord],
                   col: List[int]) -> None:
        self.cols[(slot, lock)] = col
        self.by_lock.setdefault(lock, []).append((slot, records, col))
        lot = self.locks_of_thread
        if slot >= len(lot):
            lot.extend([] for _ in range(slot + 1 - len(lot)))
        lot[slot].append(lock)

    def _new_history(self, slot: int, lock: int) -> List[CSRecord]:
        records: List[CSRecord] = []
        self.records[(slot, lock)] = records
        self._add_index(slot, lock, records, [])
        return records

    @property
    def locks(self) -> List[int]:
        """Lock ids with at least one history, in first-acquire order."""
        return list(self.by_lock)

    def append(self, slot: int, lock: int, acq_idx: int,
               acq_val: int) -> CSRecord:
        """Record a new (open) critical section; log its lock."""
        key = (slot, lock)
        records = self.records.get(key)
        if records is None:
            records = self._new_history(slot, lock)
        rec = CSRecord(acq_idx, slot, acq_val)
        records.append(rec)
        self.cols[key].append(acq_val)
        self.log.append(lock)
        return rec

    def evict(self, horizon: int) -> Dict[Tuple[int, int], int]:
        """Trim closed records acquired before ``horizon``.

        Each history loses its longest prefix of closed records older
        than the horizon, and their release clocks fold into that
        history's summary, which closures join *unconditionally*
        wherever the exact algorithm might have joined a subset (a
        one-clock overapproximation of everything a closure could still
        reach through the trimmed records).  The log keeps only its
        last (locks + 1) entries: a closure lagging further behind
        dirties every lock anyway.  Returns the number of records
        trimmed per history, for the closures to rebase their cursors
        (:meth:`repro.core.closure.SPClosure.rebase`).
        """
        trimmed: Dict[Tuple[int, int], int] = {}
        for key, records in self.records.items():
            k = 0
            n = len(records)
            while (k < n and records[k].rel_ts is not None
                   and records[k].acq_idx < horizon):
                k += 1
            if not k:
                continue
            summary = self.evicted.get(key)
            if summary is None:
                summary = self.evicted[key] = VectorClock(0)
            for rec in records[:k]:
                summary.join_with(rec.rel_ts)
            del records[:k]
            del self.cols[key][:k]
            trimmed[key] = k
        excess = len(self.log) - (len(self.by_lock) + 1)
        if excess > 0:
            del self.log[:excess]
            self.log_base += excess
        return trimmed

    def __getstate__(self) -> dict:
        return {"records": self.records, "log": self.log,
                "log_base": self.log_base, "evicted": self.evicted}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index()
