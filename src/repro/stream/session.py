"""Streaming sessions: one incremental engine layer for live traces.

A :class:`StreamSession` accepts events in chunked columnar batches —
from a live :mod:`repro.runtime` program, an incrementally-parsed
``.std`` / ``.std.gz`` file, or a replayed
:class:`~repro.trace.compiled.CompiledTrace` — and maintains the
canonical analysis substrate *incrementally*: an append-only
``CompiledTrace`` plus a :class:`~repro.trace.index.TraceIndex` whose
derived relations (rf / match / thread positions / held sets) grow per
batch instead of being recomputed in one O(N) offline pass.  ``Trace``
views over a growing session are therefore first-class:
:meth:`StreamSession.as_trace` is O(1) and shares the live columns.

Consumers attach through one feed protocol (duck-typed):

- ``feed_batch(compiled, lo, hi, base)`` — required; receives every
  appended batch as column ranges (``base`` is the global index of
  ``compiled``'s first retained event — non-zero only in bounded
  mode).  All streaming detectors (``SPDOnline``, ``SPDOnlineK``,
  ``FastTrack``) and the windowed SPDOffline client implement it.  The
  detectors own their names and read the session's ids through maps
  into them (:class:`~repro.trace.compiled.DetectorFeed`), which cost
  one O(1) check per batch while the two agree, so a detector attached
  here may also be ``step()``ped or fed other traces.
- ``retain_from()`` — optional; the smallest *global* event index the
  consumer may still read from the session columns, or ``None`` for
  "nothing" (pure streaming detectors keep their own state).
- ``finish()`` — optional; called by :meth:`StreamSession.close` after
  the final flush (e.g. the windowed client drains its last window).

**Bounded mode** (``max_memory_events=N``): the session stops keeping
the full history.  It maintains only the raw columns plus an
incremental acquire/release ``match`` column for the *retained tail*
— everything every attached consumer may still read, evicting consumed
prefixes as retention advances — so peak session memory is
O(max consumer window + batch), not O(trace).  ``as_trace`` is
unavailable once history is gone; detectors are unaffected (they only
ever see each batch once, before eviction).  Event indices exposed to
consumers stay *global* (``base + local``), so reports from bounded
and unbounded sessions are identical.
"""

from __future__ import annotations

import time
from array import array
from typing import Iterable, List, Optional

import repro.obs as obs
from repro.trace.compiled import (
    CompiledTrace,
    SourceMaps,
    TraceReadError,
    _iter_std_lines,
    parse_std_into,
)
from repro.trace.events import OP_ACQUIRE, OP_RELEASE, Event
from repro.trace.index import TraceError, TraceIndex
from repro.trace.trace import Trace

__all__ = ["StreamSession"]

#: default events per flushed batch
_BATCH = 4096


class StreamSession:
    """An incrementally-indexed trace being built from an event stream.

    Args:
        name: label carried into views and reports.
        batch_size: events buffered between automatic flushes (every
            ``feed_*`` helper flushes at this granularity; ``append``
            auto-flushes when the buffer fills).
        max_memory_events: enable *bounded mode* — the session evicts
            column prefixes no attached consumer can still reach and
            keeps no full-history index.  The value is the intended
            retention scale (a windowed client's window, a detector's
            eviction horizon); the session's own buffer is bounded by
            the slowest consumer's ``retain_from`` plus one batch.
    """

    def __init__(self, name: str = "session", batch_size: int = _BATCH,
                 max_memory_events: Optional[int] = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_memory_events is not None and max_memory_events < 1:
            raise ValueError("max_memory_events must be >= 1")
        self.name = name
        self.batch_size = batch_size
        self.max_memory_events = max_memory_events
        self.bounded = max_memory_events is not None
        self.compiled = CompiledTrace(name)
        #: global index of ``compiled``'s first retained event (bounded
        #: mode evicts prefixes; 0 forever in full mode)
        self.base = 0
        self._index: Optional[TraceIndex] = None
        if self.bounded:
            self._match = array("i")
            self._open_acq: dict = {}
        self._consumers: List[object] = []
        self._fed = 0          # global count delivered to consumers
        self._closed = False

    # -- session geometry ---------------------------------------------------

    def __len__(self) -> int:
        """Global event count (including any evicted prefix)."""
        return self.base + len(self.compiled)

    @property
    def events_fed(self) -> int:
        """Global count of events already delivered to consumers."""
        return self._fed

    @property
    def index(self) -> Optional[TraceIndex]:
        """The incrementally-maintained :class:`TraceIndex` (full mode).

        Built lazily on first access — a session whose consumers are
        pure streaming detectors never pays for derived relations —
        and kept in sync by every subsequent flush.  ``None`` in
        bounded mode (no full history to index).
        """
        if self.bounded:
            return None
        if self._index is None:
            self._index = TraceIndex(self.compiled)
        return self._index

    def match_view(self) -> array:
        """The acquire/release ``match`` column aligned with the
        session's retained columns (values are *global* indices)."""
        if self.bounded:
            return self._match
        return self.index.match

    # -- consumers ----------------------------------------------------------

    def attach(self, consumer) -> None:
        """Attach a feed consumer; already-fed history is replayed.

        In bounded mode consumers must attach before eviction starts —
        a late consumer cannot be given history that is gone.
        """
        if self.base:
            raise ValueError(
                "cannot attach a consumer after eviction started: "
                "the session no longer holds the full history"
            )
        if self._fed:
            consumer.feed_batch(self.compiled, 0, self._fed, 0)
        self._consumers.append(consumer)

    # -- appending ----------------------------------------------------------

    def append(self, thread: str, op: str, target: str,
               loc: Optional[str] = None) -> int:
        """Append one string event; returns its global index.

        Auto-flushes whenever a full batch has accumulated.
        """
        idx = self.base + self.compiled.append(thread, op, target, loc)
        if len(self) - self._fed >= self.batch_size:
            self.flush()
        return idx

    def append_event(self, event: Event) -> int:
        """Append one :class:`Event` (the runtime-monitor sink shape)."""
        return self.append(event.thread, event.op, event.target, event.loc)

    def feed_events(self, events: Iterable[Event]) -> None:
        """Append an event iterable, flushing per batch."""
        for ev in events:
            self.append(ev.thread, ev.op, ev.target, ev.loc)
        self.flush()

    def feed_compiled(self, source: CompiledTrace,
                      batch_size: Optional[int] = None) -> None:
        """Replay a compiled trace through the session in batches.

        Source ids are remapped through the session's intern tables
        (:class:`~repro.trace.compiled.SourceMaps`; identity when the
        session is fresh), so mixing replayed traces with live events is
        well-defined.
        """
        bs = batch_size or self.batch_size
        out = self.compiled
        maps = SourceMaps(out, source)
        maps.update()
        thread_map, by_op = maps.threads, maps.by_op
        ops, tids, targs = source.columns()
        locs = source.locs
        append_coded = out.append_coded
        for i in range(len(ops)):
            op = ops[i]
            append_coded(op, thread_map[tids[i]], by_op[op][targs[i]],
                         locs.get(i))
            if len(self) - self._fed >= bs:
                self.flush()
        self.flush()

    def feed_file(self, path: str, batch_size: Optional[int] = None) -> None:
        """Incrementally parse a ``.std`` / ``.std.gz`` file.

        Lines are read in bounded chunks and parsed straight into the
        session columns — the file is never resident as a whole, and in
        bounded mode neither is the trace.
        """
        import zlib

        bs = batch_size or self.batch_size
        lineno = 1
        batch: List[str] = []
        state = {"offset": 0}
        try:
            for line in _iter_std_lines(path, state=state):
                batch.append(line)
                if len(batch) >= bs:
                    lineno = parse_std_into(self.compiled, batch, lineno)
                    batch.clear()
                    self.flush()
        except FileNotFoundError:
            raise
        except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
            raise TraceReadError(
                path, str(exc), byte_offset=state["offset"],
                events_parsed=self.base + len(self.compiled)) from exc
        if batch:
            parse_std_into(self.compiled, batch, lineno)
        self.flush()

    # -- flushing / lifecycle ------------------------------------------------

    def flush(self) -> int:
        """Index and deliver all appended-but-unfed events; returns the
        number of events delivered."""
        glen = self.base + len(self.compiled)
        if self._fed >= glen:
            return 0
        _t0 = time.monotonic_ns() if obs.enabled() else 0
        lo = self._fed - self.base
        hi = glen - self.base
        if self.bounded:
            self._extend_match(lo, hi)
        elif self._index is not None:
            self._index.extend()
        for consumer in self._consumers:
            consumer.feed_batch(self.compiled, lo, hi, self.base)
        self._fed = glen
        if self.bounded:
            self._maybe_evict()
        if _t0:
            obs.record_span("stream.flush", _t0, time.monotonic_ns(),
                            cat="stream", session=self.name, events=hi - lo)
            obs.observe("stream.batch_events", hi - lo)
            obs.gauge("stream.retained_events", len(self.compiled))
        return hi - lo

    def close(self) -> None:
        """Final flush, then notify consumers the stream ended."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        for consumer in self._consumers:
            finish = getattr(consumer, "finish", None)
            if finish is not None:
                finish()

    # -- views ---------------------------------------------------------------

    def as_trace(self) -> Trace:
        """An O(1) :class:`Trace` view sharing the live columns + index.

        The view answers every derived-relation query from the
        incrementally-maintained index; take a fresh view after feeding
        if you rely on the cached entity lists (``threads`` etc.), which
        snapshot on first access.
        """
        if self.bounded:
            raise ValueError(
                "bounded sessions keep no full-history index; "
                "use an unbounded session for Trace views"
            )
        index = self.index
        index.extend()
        view = Trace(self.compiled, name=self.name)
        view._index = index
        return view

    # -- bounded mode internals ----------------------------------------------

    def _extend_match(self, lo: int, hi: int) -> None:
        """Incremental acquire/release matching for the retained tail."""
        ops, tids, targs = self.compiled.columns()
        match = self._match
        match_append = match.append
        open_acq = self._open_acq
        base = self.base
        for i in range(lo, hi):
            match_append(-1)
            op = ops[i]
            if op == OP_ACQUIRE:
                open_acq.setdefault((tids[i], targs[i]), []).append(base + i)
            elif op == OP_RELEASE:
                stack = open_acq.get((tids[i], targs[i]))
                if not stack:
                    raise TraceError(
                        f"release without matching acquire: "
                        f"{self.compiled.event(i)}"
                    )
                acq = stack.pop()
                match[i] = acq
                if acq >= base:
                    match[acq - base] = base + i

    def _maybe_evict(self) -> None:
        """Drop retained columns no consumer can still reach.

        Eviction is amortized: a prefix is dropped only once it makes
        up at least half the buffer (and at least one batch), so each
        event is copied O(1) times over the session's lifetime.
        """
        cut = self._fed
        for consumer in self._consumers:
            retain = getattr(consumer, "retain_from", None)
            if retain is None:
                continue
            bound = retain()
            if bound is not None and bound < cut:
                cut = bound
        k = cut - self.base
        buf = len(self.compiled)
        if k <= 0 or k < self.batch_size or k < buf - k:
            return
        obs.count("stream.eviction_sweeps")
        obs.count("stream.evicted_events", k)
        c = self.compiled
        c.ops = c.ops[k:]
        c.thread_ids = c.thread_ids[k:]
        c.target_ids = c.target_ids[k:]
        c.locs = {j - k: v for j, v in c.locs.items() if j >= k}
        self._match = self._match[k:]
        self.base += k
