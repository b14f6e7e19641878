"""SPDOnline: streaming sync-preserving deadlock prediction of size-2
deadlocks (Algorithm 4 of the paper).

The algorithm processes one event at a time and never looks back at the
raw trace.  Its state:

- ``C_t`` — the TRF timestamp of the last event of each thread;
- ``LW_x`` — the timestamp of the last write to each variable;
- critical-section history: one shared
  :class:`~repro.locks.history.CSHistories` of (acquire-ts,
  release-ts) records per (thread, lock), with *per-context* cursors —
  the literal algorithm keeps one queue copy per context
  ``⟨t1, l1, t2, l2⟩`` and consumes it destructively; a shared list
  with per-context cursors is observationally identical and lighter;
- ``AcqHist⟨u⟩_{t,l,l'}`` — FIFO queues of (pred-ts, ts) for acquires of
  ``l`` by ``t`` holding ``l'``, one copy per opposing thread ``u``,
  consumed by ``checkDeadlock``;
- ``I⟨u,l',t,l⟩`` — the persistent, monotonically growing closure
  timestamp per ordered context (Proposition 4.4 reuse).

On an acquire of ``l`` by ``t`` holding ``l'``, the handler pairs the
new event against the queued acquires of every other thread ``u`` on
``l'`` holding ``l`` — the two abstract acquires form a size-2 abstract
deadlock pattern — and runs the closure check.  Queue entries that fail
to produce a deadlock are discarded forever (Corollary 4.5).

Representation (the performance model):

- threads, locks, and variables are dense ints in the detector's own
  names (:class:`~repro.trace.compiled.DetectorFeed`): ``step()``
  interns a string event into them, and a session's or a
  :class:`~repro.trace.compiled.CompiledTrace`'s columns stream
  straight through without touching strings, their ids translated
  only where the source named things in another order; every
  per-thread/per-variable map is a list indexed by id;
- acquire/release/last-write timestamps are *canonical snapshots*, so
  every ``⊑`` test in the hot path is an O(1) epoch comparison
  (see :mod:`repro.vc.clock`); snapshots are copy-on-write, so a thread
  pays at most one clock copy per event;
- an acquire of ``l`` holding ``l'`` consults only the threads indexed
  under ``(l', l)`` — the threads that actually queued opposing
  acquires — instead of scanning every known thread;
- each context's closure is a :class:`~repro.core.closure.SPClosure`,
  the same Algorithm 1 engine SPDOffline checks patterns with: a
  dirty-lock worklist (a lock is re-examined only when the closure
  clock grew in a slot of a thread holding critical sections on it,
  or, once eviction has trimmed histories, when its history gained
  records, as the history's append log tells) whose cursors advance by
  one ``bisect_right`` over each history's int column of acquire
  values.  The records and columns live once, in the detector's
  history; a closure keeps only an int cursor and the last-consumed
  record per (lock, thread);
- a new context does not start from an empty clock.  Each thread ``t``
  keeps one more closure, its *prefix closure* ``P_t``, advanced
  lazily: when an acquire of ``t`` opens a context, one incremental
  compute brings ``P_t`` to the acquire's predecessor clock ``c_pred``,
  and the context starts from a clone of ``P_t`` (its cursor rows
  copied, not shared).  This is the online form of SPDOffline's
  per-acquire prefix closures ``P[e]`` (:mod:`repro.core.closure`).

Why prefix seeding is exact.  A thread's clock only grows, so the
``c_pred`` values of its acquires are ⊑-monotone, and after
``P_t.compute(c_pred)`` the clock of ``P_t`` is ``SPClosure(c_pred)``
over the history recorded so far (Proposition 4.4).  History appended
later is reached only through slot growth that ``join_update``
reports, exactly as for any persistent context closure.  A fresh
context closure's first check computes
``SPClosure(c_pred ⊔ old.pred_ts)``; the clone computes
``SPClosure(SPClosure(c_pred) ⊔ old.pred_ts)``, which is the same clock
because the closure is extensive, monotone and idempotent.  From then
on a context's state is determined by its clock (see
:meth:`~repro.core.closure.SPClosure.canonical_clock`), so every epoch
test, and so every report, is the one a fresh closure makes
(``tests/test_prefix_seed.py`` keeps the fresh closure as its oracle).

Under bounded-memory eviction every closure, prefix closures included,
is rebased onto the trimmed history and can only grow, so every clone
still contains the exact closure and every report stays a true
deadlock.  Bounded reports may differ from those of fresh closures,
though: a fresh closure folds the eviction summary of every history of
each lock it touches, while a clone folds only the summaries its
cursors had not passed, so its clock can stay smaller and let a report
through that a fresh closure would have suppressed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as obs
from repro.core.closure import SPClosure
from repro.core.patterns import DeadlockPattern, DeadlockReport
from repro.locks.history import CSHistories, CSRecord
from repro.trace.compiled import CompiledTrace, DetectorFeed, compile_trace
from repro.trace.events import (
    OP_ACQUIRE,
    OP_FORK,
    OP_JOIN,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
    Event,
)
from repro.trace.trace import Trace
from repro.vc.clock import VectorClock


class _AcqEntry:
    """Queued acquire awaiting deadlock checks.

    ``(tid, ts_val)`` is the epoch of the acquire's (post-tick)
    timestamp; ``pred_ts`` the full thread-predecessor clock used to
    seed closures; ``loc`` the location carried into reports.
    """

    __slots__ = ("idx", "tid", "ts_val", "pred_ts", "loc")

    def __init__(self, idx: int, tid: int, ts_val: int,
                 pred_ts: VectorClock, loc: str) -> None:
        self.idx = idx
        self.tid = tid
        self.ts_val = ts_val
        self.pred_ts = pred_ts
        self.loc = loc


# Context key: the ordered abstract pattern ⟨u, l', {l}⟩ vs ⟨t, l, {l'}⟩,
# as interned ids.
_Ctx = Tuple[int, int, int, int]


@dataclass
class OnlineReport:
    """A deadlock declared by the streaming analysis."""

    first_event: int
    second_event: int
    context: Tuple[str, str, str, str]
    locations: Tuple[str, str]

    @property
    def bug_id(self) -> Tuple[str, ...]:
        return tuple(sorted(self.locations))


class SPDOnline(DetectorFeed):
    """Streaming detector; feed events with :meth:`step`.

    Example::

        det = SPDOnline()
        for ev in trace:
            det.step(ev)
        print(det.reports)

    Feeding a :class:`~repro.trace.compiled.CompiledTrace` through
    :meth:`run` (or attaching to a :class:`repro.stream.StreamSession`,
    which delivers batches through :meth:`feed_batch`) skips string
    interning entirely.

    ``max_memory_events`` enables *bounded-memory eviction* for
    unbounded monitoring sessions: closed critical-section records and
    queued guarded acquires older than that horizon are periodically
    discarded, so tracked state stays O(horizon + entities) instead of
    O(trace).  Eviction is *sound but lossy*: evicted releases are
    folded into per-history summary clocks that only ever **grow** the
    closures consulting them, so every report the detector still makes
    is a true sync-preserving deadlock — eviction can miss reports the
    exact detector would have made, never fabricate new ones (pinned by
    ``tests/test_stream.py``).
    """

    def __init__(self, max_memory_events: Optional[int] = None) -> None:
        if max_memory_events is not None and max_memory_events < 1:
            raise ValueError("max_memory_events must be >= 1")
        super().__init__()
        # Dense per-id state, sized to the names by _grow().
        self._clocks: List[VectorClock] = []
        self._held: List[List[int]] = []
        self._last_write: List[Optional[Tuple[int, int, VectorClock]]] = []
        #: the shared critical-section history every closure reads
        #: (append log, eviction summaries and indexes included), plus
        #: the open-acquire stacks used to fill release timestamps
        self.histories = CSHistories()
        self._open_cs: Dict[Tuple[int, int], List[CSRecord]] = {}
        # AcqHist: shared per-(thread, lock, held-lock) acquire lists with
        # per-context cursors (equivalent to the per-opposing-thread queue
        # copies of Algorithm 4, but robust to threads appearing later),
        # plus the (lock, held-lock) -> threads index that narrows the
        # checkDeadlock fan-out to threads with opposing entries.
        self._acq_seq: Dict[Tuple[int, int, int], List[_AcqEntry]] = {}
        self._pair_threads: Dict[Tuple[int, int], List[int]] = {}
        self._ctx_cursor: Dict[_Ctx, int] = {}
        self._closures: Dict[_Ctx, SPClosure] = {}
        #: thread id -> its prefix closure (see _prefix_closure)
        self._prefixes: Dict[int, SPClosure] = {}
        self.reports: List[OnlineReport] = []
        self._events_seen = 0
        # Bounded-memory eviction (None = keep everything, the exact
        # algorithm).
        self.max_memory_events = max_memory_events
        if max_memory_events is not None:
            self._evict_period = max(1, max_memory_events // 2)
            self._next_evict: Optional[int] = (
                max_memory_events + self._evict_period
            )
        else:
            self._evict_period = 0
            self._next_evict = None
        # Instrumentation (cheap counters; see stats()).
        self._deadlock_checks = 0
        self._evictions = 0

    def _prefix_closure(self, tid: int, c_pred: VectorClock) -> SPClosure:
        """Thread ``tid``'s prefix closure, brought to
        ``SPClosure(c_pred)`` by one incremental compute.

        ``c_pred`` is the predecessor clock of the thread's current
        acquire; the thread's predecessor clocks only grow, so the
        closure never has to rewind (see the module docstring).
        """
        prefix = self._prefixes.get(tid)
        if prefix is None:
            prefix = self._prefixes[tid] = SPClosure(self.histories)
        prefix.compute(c_pred)
        return prefix

    def _context_closure(self, prefix: SPClosure) -> SPClosure:
        """The closure a new context starts from: a clone of its
        thread's prefix closure, already at the fix-point a fresh
        closure would compute from the acquire's predecessor clock."""
        return prefix.clone()

    def _closure_from(self, values: List[int]) -> SPClosure:
        """A closure rebuilt from a canonical clock (see
        :meth:`SPClosure.canonical_clock`)."""
        closure = SPClosure(self.histories)
        closure.seed_values(values)
        return closure

    # -- bookkeeping -------------------------------------------------------

    def _grow(self) -> None:
        names = self.names
        for _ in range(len(self._clocks), len(names.threads_tab)):
            self._clocks.append(VectorClock(0))
            self._held.append([])
        self._last_write.extend(
            [None] * (len(names.vars_tab) - len(self._last_write)))

    # -- event handlers (Algorithm 4) ---------------------------------------

    def step(self, event: Event) -> List[OnlineReport]:
        """Process one event; return the reports it triggered."""
        before = len(self.reports)
        op, tid, target_id = self._intern(event)
        self._step_coded(op, tid, target_id, event.loc)
        return self.reports[before:]

    def _step_coded(self, op: int, tid: int, target_id: int,
                    loc: Optional[str]) -> None:
        """Process one already-interned event."""
        clock = self._clocks[tid]
        if op == OP_WRITE:
            self._last_write[target_id] = (tid, clock.component(tid),
                                           clock.snapshot())
            clock.tick(tid)
        elif op == OP_READ:
            lw = self._last_write[target_id]
            # Epoch fast path: the last-write snapshot is already ⊑ the
            # reader's clock iff the reader knows the writer's epoch.
            if lw is not None and lw[1] > clock.component(lw[0]):
                clock.join_with(lw[2])
            clock.tick(tid)
        elif op == OP_ACQUIRE:
            self._handle_acquire(tid, target_id, loc, clock)
        elif op == OP_RELEASE:
            clock.tick(tid)
            key = (tid, target_id)
            stack = self._open_cs.get(key)
            if stack:
                rec = stack.pop()
                rec.rel_val = clock[tid]
                rec.rel_ts = clock.snapshot()
            held = self._held[tid]
            for j in range(len(held) - 1, -1, -1):
                if held[j] == target_id:
                    del held[j]
                    break
        elif op == OP_FORK:
            child_clock = self._clocks[target_id]
            clock.tick(tid)
            child_clock.join_with(clock)
        elif op == OP_JOIN:
            clock.join_with(self._clocks[target_id])
            clock.tick(tid)
        else:  # request events carry no analysis semantics
            clock.tick(tid)
        self._events_seen += 1
        if self._next_evict is not None and self._events_seen >= self._next_evict:
            self._evict_stale()

    def _handle_acquire(self, tid: int, lid: int, loc: Optional[str],
                        clock: VectorClock) -> None:
        idx = self._events_seen
        c_pred = clock.snapshot()
        clock.tick(tid)
        val = clock[tid]
        # Record the critical section in the shared history.
        rec = self.histories.append(tid, lid, idx, val)
        key = (tid, lid)
        open_stack = self._open_cs.get(key)
        if open_stack is None:
            open_stack = self._open_cs[key] = []
        open_stack.append(rec)

        held = self._held[tid]
        if not held:
            held.append(lid)
            return
        held_before = held[:]
        held.append(lid)

        # Queue this acquire for future checks by opposing threads.
        entry = _AcqEntry(idx=idx, tid=tid, ts_val=val, pred_ts=c_pred,
                          loc=loc if loc is not None else f"@{idx}")
        acq_seq = self._acq_seq
        pair_threads = self._pair_threads
        for l2 in held_before:
            skey = (tid, lid, l2)
            queue = acq_seq.get(skey)
            if queue is None:
                acq_seq[skey] = [entry]
                # Index this thread under (lock, held-lock) so opposing
                # acquires find it without scanning all threads.
                pair = pair_threads.get((lid, l2))
                if pair is None:
                    pair_threads[(lid, l2)] = [tid]
                else:
                    pair.append(tid)
            else:
                queue.append(entry)

        # Check against queued opposing acquires: u acquired l2 holding
        # lid.  New contexts start from this thread's prefix closure,
        # brought to c_pred once per acquire.
        closures = self._closures
        prefix = None
        for l2 in held_before:
            for u in pair_threads.get((l2, lid), ()):
                if u == tid:
                    continue
                queue = acq_seq.get((u, l2, lid))
                if not queue:
                    continue
                opp_ctx: _Ctx = (u, l2, tid, lid)
                closure = closures.get(opp_ctx)
                if closure is None:
                    if prefix is None:
                        prefix = self._prefix_closure(tid, c_pred)
                    closure = self._context_closure(prefix)
                    closures[opp_ctx] = closure
                self._check_deadlock(queue, closure, opp_ctx, c_pred, entry)

    def _check_deadlock(
        self,
        queue: List[_AcqEntry],
        closure: SPClosure,
        ctx: _Ctx,
        c_pred: VectorClock,
        new_entry: _AcqEntry,
    ) -> None:
        """The ``checkDeadlock`` helper of Algorithm 4.

        Walks the opposing acquire list from this context's cursor.
        Entries swallowed by the closure are skipped forever
        (Corollary 4.5); the first entry that survives the closure is a
        sync-preserving deadlock with ``new_entry``.
        """
        closure.join_seed(c_pred)
        cursor = self._ctx_cursor.get(ctx, 0)
        n = len(queue)
        while cursor < n:
            old = queue[cursor]
            self._deadlock_checks += 1
            t_clock = closure.compute(old.pred_ts)
            # Epoch test: old's acquire timestamp ⊑ closure clock?
            if old.ts_val > t_clock.component(old.tid):
                u, l2, t, lock = ctx
                names = self.names.threads_tab.names
                lock_names = self.names.locks_tab.names
                self.reports.append(
                    OnlineReport(
                        first_event=old.idx,
                        second_event=new_entry.idx,
                        context=(names[u], lock_names[l2],
                                 names[t], lock_names[lock]),
                        locations=(old.loc, new_entry.loc),
                    )
                )
                break
            cursor += 1
        self._ctx_cursor[ctx] = cursor

    # -- bounded-memory eviction (Corollary 4.5 + summary clocks) -----------

    def _evict_stale(self) -> None:
        """Discard tracked state older than the eviction horizon.

        Two sweeps, each sound under the report rule (a report fires
        only when an acquire stays *outside* the computed closure, so
        any change that can only grow closures or drop candidate
        patterns yields misses, never fabrications):

        1. **Critical-section histories and their log** —
           :meth:`CSHistories.evict` trims closed records older than
           the horizon into per-history summary clocks and compacts the
           append log; every closure, the per-thread prefix closures
           included, then rebases its cursors (:meth:`SPClosure.rebase`).
        2. **Guarded-acquire queues** (AcqHist) — entries older than
           the horizon can never be re-examined usefully at bounded
           memory; dropping them forfeits only the patterns they
           anchor.  Context cursors shift with the trimmed prefix
           (entries a cursor had not reached are simply missed).
        """
        self._next_evict = self._events_seen + self._evict_period
        horizon = self._events_seen - self.max_memory_events
        if horizon <= 0:
            return
        trimmed = self.histories.evict(horizon)
        if trimmed:
            for closures in (self._closures, self._prefixes):
                for closure in closures.values():
                    closure.rebase(trimmed)
        acq_trim: Dict[Tuple[int, int, int], int] = {}
        for skey, queue in self._acq_seq.items():
            k = 0
            n = len(queue)
            while k < n and queue[k].idx < horizon:
                k += 1
            if k:
                del queue[:k]
                acq_trim[skey] = k
        if acq_trim:
            cursors = self._ctx_cursor
            for ctx, cur in cursors.items():
                k = acq_trim.get((ctx[0], ctx[1], ctx[3]))
                if k:
                    cursors[ctx] = cur - k if cur > k else 0
        self._evictions += 1

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> bytes:
        """Serialize the complete detector state.

        The blob captures names, clocks, histories, queues, closures,
        and reports — restoring and feeding the remainder of a stream
        yields exactly the reports of an uninterrupted run.  Only the
        id maps of the last source fed are dropped: a restored detector
        rebuilds them from its names on its next feed.
        """
        import pickle

        state = dict(self.__dict__)
        del state["_maps"]
        # Closures, the context and the prefix ones, serialize as their
        # canonical clock (a plain int list), and the history pickles
        # its canonical records only (its columns and indexes are
        # rebuilt on restore).
        for key in ("_closures", "_prefixes"):
            state[key] = {
                k: closure.canonical_clock()
                for k, closure in getattr(self, key).items()
            }
        self._checkpoint_extra(state)
        return pickle.dumps((type(self).__name__, state),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def _checkpoint_extra(self, state: Dict) -> None:
        """Subclass hook: rewrite derived state before pickling."""

    @classmethod
    def restore(cls, blob: bytes) -> "SPDOnline":
        """Rebuild a detector from :meth:`checkpoint` output."""
        import pickle

        try:
            kind, state = pickle.loads(blob)
        except AttributeError as exc:   # a class the blob names is gone
            raise ValueError(
                f"stale {cls.__name__} checkpoint: {exc}; re-feed the "
                "stream instead"
            ) from exc
        if kind != cls.__name__:
            raise ValueError(
                f"checkpoint was taken from {kind}, not {cls.__name__}"
            )
        if not isinstance(state.get("histories"), CSHistories):
            raise ValueError(
                f"stale {kind} checkpoint: it keeps its critical-section "
                "history in flat fields, not a CSHistories; re-feed the "
                "stream instead"
            )
        if not isinstance(state.get("names"), CompiledTrace):
            raise ValueError(
                f"stale {kind} checkpoint: it keeps its names in per-kind "
                "dicts, not a CompiledTrace; re-feed the stream instead"
            )
        out = cls.__new__(cls)
        out.__dict__.update(state)
        out._maps = None
        # Closures checkpoint as canonical clocks; rebuild them.
        closures = {}
        for ctx, values in out._closures.items():
            if not isinstance(values, list):
                raise ValueError(
                    f"stale {kind} checkpoint: its closures are pickled "
                    "objects, not canonical clocks; re-feed the stream "
                    "instead"
                )
            closures[ctx] = out._closure_from(values)
        out._closures = closures
        out._prefixes = {tid: out._closure_from(values)
                         for tid, values in out._prefixes.items()}
        out._restore_extra()
        return out

    def _restore_extra(self) -> None:
        """Subclass hook: rebuild derived state after unpickling."""

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cheap counters for overhead analysis.

        - ``events``: events processed so far.
        - ``deadlock_checks``: queue entries examined by checkDeadlock.
        - ``contexts``: distinct ⟨t1, l1, t2, l2⟩ closures materialized.
        - ``acquire_entries``: total queued guarded acquires.
        - ``cs_records``: critical sections recorded.
        - ``tracked_entries``: live per-event state (records + queued
          acquires + log entries) — the quantity bounded-memory
          eviction keeps O(horizon); asserted by the memory benchmark.
        - ``evictions``: eviction sweeps performed.
        """
        histories = self.histories
        cs_records = sum(len(v) for v in histories.records.values())
        acquire_entries = sum(len(v) for v in self._acq_seq.values())
        return {
            "events": self._events_seen,
            "deadlock_checks": self._deadlock_checks,
            "contexts": len(self._closures),
            "acquire_entries": acquire_entries,
            "cs_records": cs_records,
            "tracked_entries": (cs_records + acquire_entries
                                + len(histories.log)),
            "evictions": self._evictions,
        }

    # -- batch driver ---------------------------------------------------------

    def run(self, trace) -> "SPDOnlineResult":
        """Stream a whole trace (:class:`Trace`, ``CompiledTrace`` or an
        event iterable) through :meth:`feed_batch`, the code path a live
        :class:`repro.stream.StreamSession` drives; a ``Trace`` is fed
        its columns and builds no ``Event``."""
        start = time.perf_counter()
        compiled = compile_trace(trace)
        self.feed_batch(compiled, 0, len(compiled))
        elapsed = time.perf_counter() - start
        return SPDOnlineResult(
            reports=list(self.reports), elapsed=elapsed, stats=self.stats()
        )


@dataclass
class SPDOnlineResult:
    """Output of a full streaming run."""

    reports: List[OnlineReport] = field(default_factory=list)
    elapsed: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def num_reports(self) -> int:
        return len(self.reports)

    def unique_bugs(self) -> Set[Tuple[str, ...]]:
        return {r.bug_id for r in self.reports}

    def deadlock_pairs(self) -> Set[Tuple[int, int]]:
        """Distinct (event, event) pairs reported (order-normalized)."""
        return {
            tuple(sorted((r.first_event, r.second_event)))  # type: ignore[misc]
            for r in self.reports
        }

    def to_reports(self, trace: Trace) -> List[DeadlockReport]:
        """Convert to the offline report type (for comparisons)."""
        out = []
        for r in self.reports:
            pat = DeadlockPattern(tuple(sorted((r.first_event, r.second_event))))
            out.append(DeadlockReport.from_pattern(trace, pat))
        return out


def spd_online(trace) -> SPDOnlineResult:
    """Run :class:`SPDOnline` over a complete trace."""
    return SPDOnline().run(trace)


# -- telemetry ---------------------------------------------------------------
#
# Same patch-on-enable scheme as repro.core.closure: the disabled path
# carries no telemetry code.  ``online.feed`` spans each feed_batch;
# ``online.prefix`` counts prefix-closure computes (one per acquire that
# opens contexts) and ``online.contexts`` the contexts started from a
# clone.


def _obs_install():
    orig_prefix = SPDOnline._prefix_closure
    orig_context = SPDOnline._context_closure
    orig_feed = SPDOnline.feed_batch   # DetectorFeed's: SPDOnline has none

    def _prefix_closure(self, tid, c_pred):
        obs.count("online.prefix")
        return orig_prefix(self, tid, c_pred)

    def _context_closure(self, prefix):
        obs.count("online.contexts")
        return orig_context(self, prefix)

    def feed_batch(self, compiled, lo, hi, base=0):
        with obs.span("online.feed", cat="online"):
            orig_feed(self, compiled, lo, hi, base)

    SPDOnline._prefix_closure = _prefix_closure
    SPDOnline._context_closure = _context_closure
    SPDOnline.feed_batch = feed_batch

    def undo():
        SPDOnline._prefix_closure = orig_prefix
        SPDOnline._context_closure = orig_context
        del SPDOnline.feed_batch

    return undo


obs.on_enable(_obs_install)
