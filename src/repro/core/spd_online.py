"""SPDOnline: streaming sync-preserving deadlock prediction of size-2
deadlocks (Algorithm 4 of the paper).

The algorithm processes one event at a time and never looks back at the
raw trace.  Its state:

- ``C_t`` — the TRF timestamp of the last event of each thread;
- ``LW_x`` — the timestamp of the last write to each variable;
- critical-section history: one shared
  :class:`~repro.locks.history.CSHistories` of (acquire-ts,
  release-ts) records per (thread, lock);
- ``AcqHist⟨u⟩_{t,l,l'}`` — FIFO queues of the acquires of ``l`` by
  ``t`` holding ``l'``, consumed by ``checkDeadlock``: one shared list
  of history records with a cursor per ordered context
  ``⟨u, l', t, l⟩``, observationally identical to the literal
  per-context copies consumed destructively;
- ``P_t`` — one *prefix closure* per thread, in place of the paper's
  persistent closure ``I⟨u,l',t,l⟩`` per context (see below).

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
- every closure is a :class:`~repro.core.closure.SPClosure`, the
  Algorithm 1 engine SPDOffline checks patterns with, whose cursors
  into the shared history advance by one ``bisect_right`` each;
- closure state lives per thread.  A queued entry ``old ⊑ P[new]`` is
  swallowed for good by one epoch test, ``P[new]`` being the online
  form of SPDOffline's per-acquire prefix closures: ``t``'s prefix
  closure ``P_t``, brought to the predecessor clock ``c_pred`` of the
  guarded acquire ``new`` by one incremental compute.  Most entries lie
  inside ``c_pred ⊑ P[new]`` already, so that compute runs only at the
  first entry that does not, at most once per acquire.  The rest are
  tested against one joint fix-point per (acquire, context), a
  transient clone of ``P_t`` computed with their predecessor clocks.
  A guarded acquire is one history record, queued under each lock it
  holds.

Why the check is exact.  Algorithm 4 seeds a context's persistent
closure, at the check of entry ``old`` against acquire ``new``, with
``c_pred(new)`` and ``old``'s predecessor clock ``pred(old)``.  Every
earlier seed of that context is ⊑ one of the two: ``t``'s predecessor
clocks only grow along its acquires, and ``u``'s along the queue.  The
closure is extensive, monotone and idempotent, and it reaches history
appended since its last compute through the slot growth that
``join_update`` reports (Proposition 4.4), so at each check the
persistent closure is exactly ``SPClosure(c_pred(new) ⊔ pred(old))``.
``P[new] = SPClosure(c_pred(new))`` lies inside it, and ``c_pred(new)``
inside ``P[new]``, so whatever they swallow the persistent closure
swallows too; and the joint fix-point, computed with ``pred(old)``
after the smaller predecessor clocks of the walk's earlier entries, is
that very clock.  So every report is the one per-context closures make
(``tests/test_prefix_seed.py`` keeps them as its oracle).

Under bounded-memory eviction the prefix closures are rebased onto the
trimmed history and only grow, so ``P[new]`` and every joint fix-point
contain the exact closures and every report stays a true deadlock.
Bounded reports may differ from per-context closures' reports, since a
closure folds only the eviction summaries its own cursors had not
passed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as obs
from repro.core.closure import SPClosure
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
from repro.vc.clock import VectorClock


def _location(rec: CSRecord) -> str:
    """A queued acquire's location in reports, ``@idx`` if it has none."""
    return rec.loc if rec.loc is not None else f"@{rec.acq_idx}"


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
        # AcqHist: per-(thread, lock, held-lock) lists of acquire records
        # with a cursor per context (Algorithm 4's per-opposing-thread
        # queue copies, robust to threads appearing later), and the
        # (lock, held-lock) -> threads index that narrows the fan-out.
        self._acq_seq: Dict[Tuple[int, int, int], List[CSRecord]] = {}
        self._pair_threads: Dict[Tuple[int, int], List[int]] = {}
        self._ctx_cursor: Dict[_Ctx, int] = {}
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
        ``SPClosure(c_pred)`` by one incremental compute: ``P[new]``.

        ``c_pred`` is the predecessor clock of the thread's current
        acquire; the thread's predecessor clocks only grow, so the
        closure never has to rewind (see the module docstring).
        """
        prefix = self._prefixes.get(tid)
        if prefix is None:
            prefix = self._prefixes[tid] = SPClosure(self.histories)
        prefix.compute(c_pred)
        return prefix

    def _joint_closure(self, prefix: SPClosure) -> SPClosure:
        """The transient joint closure of a check: a clone of the
        prefix closure, dropped when the check's walk ends."""
        return prefix.clone()

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

    def _handle_acquire(
        self, tid: int, lid: int, loc: Optional[str], clock: VectorClock
    ) -> Optional[Tuple[CSRecord, Optional[SPClosure]]]:
        """Run an acquire's size-2 checks; a guarded one returns its
        queued record and ``P[new]`` if a check computed it (for
        SPDOnlineK's checks), an unguarded one ``None``."""
        idx = self._events_seen
        c_pred = clock.snapshot()
        clock.tick(tid)
        # Record the critical section in the shared history.
        rec = self.histories.append(tid, lid, idx, clock[tid])
        key = (tid, lid)
        open_stack = self._open_cs.get(key)
        if open_stack is None:
            open_stack = self._open_cs[key] = []
        open_stack.append(rec)

        held = self._held[tid]
        if not held:
            held.append(lid)
            return None
        held_before = held[:]
        held.append(lid)

        # Queue this acquire's record for checks by opposing threads.
        rec.pred_ts = c_pred
        rec.loc = loc
        acq_seq = self._acq_seq
        pair_threads = self._pair_threads
        for l2 in held_before:
            skey = (tid, lid, l2)
            queue = acq_seq.get(skey)
            if queue is None:
                acq_seq[skey] = [rec]
                # Index this thread under (lock, held-lock) so opposing
                # acquires find it without scanning all threads.
                pair = pair_threads.get((lid, l2))
                if pair is None:
                    pair_threads[(lid, l2)] = [tid]
                else:
                    pair.append(tid)
            else:
                queue.append(rec)

        # Check against queued opposing acquires: u acquired l2 holding
        # lid.  The first check that needs P[new] computes it.
        cursors = self._ctx_cursor
        prefix = None
        for l2 in held_before:
            for u in pair_threads.get((l2, lid), ()):
                if u == tid:
                    continue
                queue = acq_seq[(u, l2, lid)]
                opp_ctx: _Ctx = (u, l2, tid, lid)
                cursor = cursors.get(opp_ctx, 0)
                if cursor < len(queue):
                    prefix = self._check_deadlock(queue, cursor, prefix,
                                                  opp_ctx, rec)
        return rec, prefix

    def _check_deadlock(self, queue: List[CSRecord], cursor: int,
                        prefix: Optional[SPClosure], ctx: _Ctx,
                        new: CSRecord) -> Optional[SPClosure]:
        """The ``checkDeadlock`` helper of Algorithm 4.

        Walks the opposing acquire list from this context's cursor.  An
        entry inside ``c_pred`` or else ``P[new]`` (``prefix``, computed
        at most once per acquire) is swallowed for good (Corollary 4.5);
        the first entry that then survives the joint fix-point (see the
        module docstring) is a deadlock with ``new``.  Returns ``prefix``.
        """
        c_pred = new.pred_ts
        joint = None
        n = len(queue)
        while cursor < n:
            old = queue[cursor]
            self._deadlock_checks += 1
            # Epoch tests: old ⊑ c_pred (so ⊑ P[new]), else old ⊑ P[new],
            # else old ⊑ the joint closure?
            if old.acq_val > c_pred.component(old.slot):
                if prefix is None:
                    prefix = self._prefix_closure(new.slot, c_pred)
                if old.acq_val > prefix.clock.component(old.slot):
                    if joint is None:
                        joint = self._joint_closure(prefix)
                    t_clock = joint.compute(old.pred_ts)
                    if old.acq_val > t_clock.component(old.slot):
                        self._report(old, new, ctx)
                        break
            cursor += 1
        self._ctx_cursor[ctx] = cursor
        return prefix

    def _report(self, old: CSRecord, new: CSRecord, ctx: _Ctx) -> None:
        u, l2, t, lock = ctx
        names = self.names.threads_tab.names
        lock_names = self.names.locks_tab.names
        self.reports.append(OnlineReport(
            first_event=old.acq_idx, second_event=new.acq_idx,
            context=(names[u], lock_names[l2], names[t], lock_names[lock]),
            locations=(_location(old), _location(new))))

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
           append log; every per-thread prefix closure then rebases its
           cursors (:meth:`SPClosure.rebase`).
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
            for closure in self._prefixes.values():
                closure.rebase(trimmed)
        acq_trim: Dict[Tuple[int, int, int], int] = {}
        for skey, queue in self._acq_seq.items():
            k = 0
            n = len(queue)
            while k < n and queue[k].acq_idx < horizon:
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

        The blob captures names, clocks, histories, queues, context
        cursors, prefix closures, and reports — restoring and feeding
        the remainder of a stream yields exactly the reports of an
        uninterrupted run.  Only the id maps of the last source fed are
        dropped: a restored detector rebuilds them from its names on its
        next feed.
        """
        import pickle

        state = dict(self.__dict__)
        del state["_maps"]
        # Prefix closures serialize as their canonical clock (a plain
        # int list), and the history pickles its canonical records only
        # (its columns and indexes are rebuilt on restore); queued
        # acquires are those same records.
        state["_prefixes"] = {tid: closure.canonical_clock()
                              for tid, closure in self._prefixes.items()}
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
        # Older layouts: refused, not rebound.
        for stale, layout in (
            (not isinstance(state.get("histories"), CSHistories),
             "its critical-section history in flat fields, not a CSHistories"),
            (not isinstance(state.get("names"), CompiledTrace),
             "its names in per-kind dicts, not a CompiledTrace"),
            ("_closures" in state, "one closure per context, not per thread"),
        ):
            if stale:
                raise ValueError(f"stale {kind} checkpoint: it keeps "
                                 f"{layout}; re-feed the stream instead")
        out = cls.__new__(cls)
        out.__dict__.update(state)
        out._maps = None
        # Prefix closures checkpoint as canonical clocks; rebuild them.
        prefixes = {}
        for tid, values in out._prefixes.items():
            closure = prefixes[tid] = SPClosure(out.histories)
            closure.seed_values(values)
        out._prefixes = prefixes
        out._restore_extra()
        return out

    def _restore_extra(self) -> None:
        """Subclass hook: rebuild derived state after unpickling."""

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cheap counters for overhead analysis.

        - ``events``: events processed so far.
        - ``deadlock_checks``: queue entries examined by checkDeadlock.
        - ``contexts``: distinct ⟨t1, l1, t2, l2⟩ contexts checked (one
          queue cursor each).
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
            "contexts": len(self._ctx_cursor),
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


def spd_online(trace) -> SPDOnlineResult:
    """Run :class:`SPDOnline` over a complete trace."""
    return SPDOnline().run(trace)


# -- telemetry ---------------------------------------------------------------
#
# Same patch-on-enable scheme as repro.core.closure: the disabled path
# carries no telemetry code.  ``online.feed`` spans each feed_batch;
# ``online.prefix`` counts prefix-closure computes (at most one per
# acquire, only for an entry outside ``c_pred`` or for SPDOnlineK's
# first K-context compute) and ``online.joint`` the joint fix-points
# started (one per checked size-2 context whose walk ``P[new]`` does
# not decide, and one per SPDOnlineK K-context check that computes).


def _obs_install():
    orig_prefix = SPDOnline._prefix_closure
    orig_joint = SPDOnline._joint_closure
    orig_feed = SPDOnline.feed_batch   # DetectorFeed's: SPDOnline has none

    def _prefix_closure(self, tid, c_pred):
        obs.count("online.prefix")
        return orig_prefix(self, tid, c_pred)

    def _joint_closure(self, prefix):
        obs.count("online.joint")
        return orig_joint(self, prefix)

    def feed_batch(self, compiled, lo, hi, base=0):
        with obs.span("online.feed", cat="online"):
            orig_feed(self, compiled, lo, hi, base)

    SPDOnline._prefix_closure = _prefix_closure
    SPDOnline._joint_closure = _joint_closure
    SPDOnline.feed_batch = feed_batch

    def undo():
        SPDOnline._prefix_closure = orig_prefix
        SPDOnline._joint_closure = orig_joint
        del SPDOnline.feed_batch

    return undo


obs.on_enable(_obs_install)
