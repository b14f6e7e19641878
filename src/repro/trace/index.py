"""Columnar derived relations: the canonical analysis substrate.

A :class:`TraceIndex` computes every derived relation of paper
Section 2 — reads-from, matching acquire/release, per-thread position,
and held-lock sets — in one O(N) pass **directly over the int columns**
of a :class:`~repro.trace.compiled.CompiledTrace`.  No ``Event``
objects are materialized and no string is hashed: relations come out as
flat integer arrays keyed by event index and interned thread/lock/
variable ids.

The pass is *incremental*: the index keeps its carry state (open
critical sections, per-thread held stacks, last writes) between calls,
so :meth:`TraceIndex.extend` can absorb new events appended to a
growing ``CompiledTrace`` batch by batch — the streaming sessions of
:mod:`repro.stream` are built on this.  A one-shot construction is just
``extend()`` over the whole trace, so batch and streaming indexes are
bit-identical by construction.

Held-lock sets are stored as offsets into one shared pool rather than
per-event tuples: each distinct held *stack* (a short tuple of interned
lock ids) is appended to :attr:`TraceIndex.held_pool` exactly once, and
every event stores just the id of its stack.  Traces hold few distinct
lock combinations, so the pool stays tiny even for huge traces — the
same flat-columns-over-pointer-structures move PaC-trees use to make
collection analyses cache-friendly.

Layering (see README "Architecture"):

- :class:`CompiledTrace` — the raw interned event columns (parse-time);
- :class:`TraceIndex` — derived relations as int arrays (this module);
- :class:`~repro.trace.trace.Trace` — a thin string-keyed *view* over a
  ``CompiledTrace + TraceIndex`` pair, preserving the classic API.

Detectors consume the index columns directly; user-facing code and
tests keep the friendly string API of ``Trace``.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, FrozenSet, List, Tuple

import repro.obs as obs
from repro.trace.compiled import CompiledTrace
from repro.trace.events import (
    OP_ACQUIRE,
    OP_FORK,
    OP_READ,
    OP_RELEASE,
    OP_REQUEST,
    OP_WRITE,
)


class TraceError(Exception):
    """Raised when a trace violates shared-memory semantics."""


class TraceIndex:
    """All derived relations of one compiled trace, as int columns.

    Event-indexed columns (length N, ``-1`` = absent):

    - :attr:`rf` — for reads, the index of the write observed
      (``-1`` = initial value); meaningless for non-reads.
    - :attr:`match` — matching release of an acquire and vice versa.
    - :attr:`thread_pos` — per-thread position of the event.
    - :attr:`thread_pred` — previous event of the same thread.
    - :attr:`held_id` — id of the event's held-lock stack; resolve
      through :attr:`held_offsets` / :attr:`held_lengths` into
      :attr:`held_pool` (or use :meth:`held_ids` /
      :meth:`held_frozen`).

    Entity tables (interned ids, order of first appearance — matching
    the classic ``Trace.threads`` / ``locks`` / ``variables`` order):

    - :attr:`thread_order` — thread ids in order of first *acting*
      appearance (fork/join targets that never act are excluded);
    - :attr:`lock_order` / :attr:`var_order` — likewise for locks
      (first lock op) and variables (first access);
    - :attr:`events_by_thread` / :attr:`acquires_by_lock` — per-id
      event lists, indexed by interned id;
    - :attr:`fork_of` — thread id -> index of the first fork event
      targeting it (the causality seed for a thread's first event).

    A ``TraceIndex`` over a still-growing compiled trace stays valid:
    call :meth:`extend` after appending events and every column grows
    in place.  Consumers holding the index see the new rows without
    re-deriving anything.
    """

    __slots__ = (
        "compiled", "rf", "match", "thread_pos", "thread_pred",
        "held_id", "held_offsets", "held_lengths", "held_pool",
        "thread_order", "lock_order", "var_order",
        "events_by_thread", "acquires_by_lock", "fork_of",
        "num_acquires", "num_requests", "lock_nesting_depth",
        "_held_frozen", "_pos", "_pool_ids", "_last_write", "_open_acq",
        "_held_stack", "_cur_held", "_seen_thread", "_seen_lock",
        "_seen_var",
    )

    def __init__(self, compiled: CompiledTrace) -> None:
        self.compiled = compiled
        self.rf = array("i")
        self.match = array("i")
        self.thread_pos = array("i")
        self.thread_pred = array("i")
        self.held_id = array("i")
        self.held_pool = array("i")
        self.held_offsets = array("i", [0])
        self.held_lengths = array("i", [0])
        self.thread_order: List[int] = []
        self.lock_order: List[int] = []
        self.var_order: List[int] = []
        self.events_by_thread: List[List[int]] = []
        self.acquires_by_lock: List[List[int]] = []
        self.fork_of: Dict[int, int] = {}
        self.num_acquires = 0
        self.num_requests = 0
        self.lock_nesting_depth = 0
        self._held_frozen: Dict[int, FrozenSet[int]] = {}
        # Carry state of the incremental pass.
        self._pos = 0
        self._pool_ids: Dict[Tuple[int, ...], int] = {(): 0}
        self._last_write: List[int] = []                 # vid -> write idx
        self._open_acq: Dict[Tuple[int, int], List[int]] = {}
        self._held_stack: List[List[int]] = []           # tid -> lock stack
        self._cur_held: List[int] = []                   # tid -> held-set id
        self._seen_thread = bytearray()
        self._seen_lock = bytearray()
        self._seen_var = bytearray()
        self.extend()

    def extend(self) -> int:
        """Absorb events appended to :attr:`compiled` since the last call.

        Processes ``[len(self), len(compiled))`` and grows every column
        in place; returns the number of events absorbed.  The combined
        result of any extend() partition is bit-identical to a one-shot
        pass over the full trace.
        """
        compiled = self.compiled
        ops, tids, targs = compiled.columns()
        lo, hi = self._pos, len(ops)
        if lo >= hi:
            return 0
        # Telemetry is per-batch, never per-event: one timestamp pair
        # and three metric calls per extend(), zero cost when disabled.
        _t0 = time.monotonic_ns() if obs.enabled() else 0

        rf_append = self.rf.append
        match = self.match
        match_append = match.append
        pos_append = self.thread_pos.append
        pred_append = self.thread_pred.append
        held_append = self.held_id.append
        pool_ids = self._pool_ids
        held_pool = self.held_pool
        held_offsets = self.held_offsets
        held_lengths = self.held_lengths
        events_by_thread = self.events_by_thread
        acquires_by_lock = self.acquires_by_lock
        thread_order = self.thread_order
        lock_order = self.lock_order
        var_order = self.var_order
        seen_thread = self._seen_thread
        seen_lock = self._seen_lock
        seen_var = self._seen_var
        last_write = self._last_write
        open_acq = self._open_acq
        held_stack = self._held_stack
        cur_held = self._cur_held
        fork_of = self.fork_of
        nesting = self.lock_nesting_depth

        # Entity tables may have grown since the last batch.
        n_threads = len(compiled.threads_tab)
        if len(events_by_thread) < n_threads:
            grow = n_threads - len(events_by_thread)
            events_by_thread.extend([] for _ in range(grow))
            held_stack.extend([] for _ in range(grow))
            cur_held.extend([0] * grow)
            seen_thread.extend(b"\0" * grow)
        n_locks = len(compiled.locks_tab)
        if len(acquires_by_lock) < n_locks:
            grow = n_locks - len(acquires_by_lock)
            acquires_by_lock.extend([] for _ in range(grow))
            seen_lock.extend(b"\0" * grow)
        n_vars = len(compiled.vars_tab)
        if len(last_write) < n_vars:
            grow = n_vars - len(last_write)
            last_write.extend([-1] * grow)
            seen_var.extend(b"\0" * grow)

        for i in range(lo, hi):
            op = ops[i]
            t = tids[i]
            if not seen_thread[t]:
                seen_thread[t] = 1
                thread_order.append(t)
            row = events_by_thread[t]
            pos_append(len(row))
            pred_append(row[-1] if row else -1)
            row.append(i)
            held_append(cur_held[t])
            rf_append(-1)
            match_append(-1)

            if op == OP_READ:
                v = targs[i]
                if not seen_var[v]:
                    seen_var[v] = 1
                    var_order.append(v)
                self.rf[i] = last_write[v]
            elif op == OP_WRITE:
                v = targs[i]
                if not seen_var[v]:
                    seen_var[v] = 1
                    var_order.append(v)
                last_write[v] = i
            elif op == OP_ACQUIRE:
                lk = targs[i]
                if not seen_lock[lk]:
                    seen_lock[lk] = 1
                    lock_order.append(lk)
                self.num_acquires += 1
                open_acq.setdefault((t, lk), []).append(i)
                acquires_by_lock[lk].append(i)
                hs = held_stack[t]
                if len(hs) >= nesting:
                    nesting = len(hs) + 1
                hs.append(lk)
                cur_held[t] = self._pool_id(
                    hs, pool_ids, held_pool, held_offsets, held_lengths
                )
            elif op == OP_RELEASE:
                lk = targs[i]
                if not seen_lock[lk]:
                    seen_lock[lk] = 1
                    lock_order.append(lk)
                stack = open_acq.get((t, lk))
                if not stack:
                    raise TraceError(
                        f"release without matching acquire: {compiled.event(i)}"
                    )
                acq_idx = stack.pop()
                match[acq_idx] = i
                match[i] = acq_idx
                # Locks need not be released in LIFO order (hsqldb has
                # non-well-nested critical sections), so remove the last
                # occurrence rather than popping the top of the stack.
                hs = held_stack[t]
                for j in range(len(hs) - 1, -1, -1):
                    if hs[j] == lk:
                        del hs[j]
                        break
                else:
                    raise TraceError(
                        f"release of unheld lock: {compiled.event(i)}"
                    )
                cur_held[t] = self._pool_id(
                    hs, pool_ids, held_pool, held_offsets, held_lengths
                )
            elif op == OP_REQUEST:
                lk = targs[i]
                if not seen_lock[lk]:
                    seen_lock[lk] = 1
                    lock_order.append(lk)
                self.num_requests += 1
            elif op == OP_FORK:
                if targs[i] not in fork_of:
                    fork_of[targs[i]] = i

        self.lock_nesting_depth = nesting
        self._pos = hi
        if _t0:
            obs.record_span("index.extend", _t0, time.monotonic_ns(),
                            cat="trace", events=hi - lo)
            obs.count("index.events", hi - lo)
            obs.gauge("index.held_pool_stacks", len(held_offsets) - 1)
        return hi - lo

    @staticmethod
    def _pool_id(stack: List[int], pool_ids: Dict[Tuple[int, ...], int],
                 pool: array, offsets: array, lengths: array) -> int:
        key = tuple(stack)
        hid = pool_ids.get(key)
        if hid is None:
            hid = len(offsets)
            pool_ids[key] = hid
            offsets.append(len(pool))
            lengths.append(len(key))
            pool.extend(key)
        return hid

    # -- held-set accessors -------------------------------------------------

    def held_ids(self, idx: int) -> Tuple[int, ...]:
        """Lock ids held right before the event at ``idx``, stack order."""
        hid = self.held_id[idx]
        off = self.held_offsets[hid]
        return tuple(self.held_pool[off:off + self.held_lengths[hid]])

    def held_frozen(self, idx: int) -> FrozenSet[int]:
        """Held-lock set of the event at ``idx`` (cached per pool id)."""
        return self.held_set(self.held_id[idx])

    def held_set(self, hid: int) -> FrozenSet[int]:
        """The lock-id set of pool entry ``hid`` (cached)."""
        fs = self._held_frozen.get(hid)
        if fs is None:
            off = self.held_offsets[hid]
            fs = frozenset(self.held_pool[off:off + self.held_lengths[hid]])
            self._held_frozen[hid] = fs
        return fs

    def __len__(self) -> int:
        return len(self.rf)
