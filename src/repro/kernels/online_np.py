"""SPDOnline's per-context Algorithm 1 closure over flat row arrays.

The python closure (:class:`repro.core.closure.SPClosure`) keeps
per-lock row lists and a dirty-lock worklist fed by seed-join deltas
and the history's append log.  The numpy port replaces all of that
with one flat fixed-stride layout indexed by a global *queue id* (one
queue per (thread, lock) pair with critical sections):

- :class:`NpOnlineState` — write-through mirrors of the detector's
  :class:`~repro.locks.history.CSHistories`, built from its canonical
  records at promotion (and after a checkpoint restore).  Queue ``q``
  owns slots ``[q*cap, (q+1)*cap)`` of the flat ``acq_val``/``acq_idx``/``rel_val``/
  ``rel_row`` columns (uniform capacity, relayout-doubled when any
  queue fills), plus one 2-D release-clock pool.  The encoded column
  ``enc[s] = acq_val[s] + q*stride`` is globally sorted (pad slots
  hold ``stride-1``), so *one* ``np.searchsorted`` advances every
  movable cursor of a closure round at once.  Maintained
  incrementally by the detector's event handlers from then on.
- :class:`NpOnlineClosure` — a drop-in for ``SPClosure`` (same
  ``join_seed``/``compute`` surface; ``compute`` returns an object
  answering ``component``).  The movable test is one vectorized
  comparison ``next_val <= clock[tid]`` across *all* queues, and the
  pad sentinel doubles as the exhausted-queue infinity, so cursor
  state needs no staleness repair: an append writes the next value
  straight into the slot the scan reads.

The hot path is dominated by computes that change nothing, so those
never touch numpy at all: the closure clock is mirrored as a python
list, seed joins are an 8-int python loop, and a compute whose seeds
grew nothing returns immediately.  That early exit is sound because a
*new* acquire can never be movable for a stale clock — its value is
the acquiring thread's freshly ticked component, strictly greater
than that thread's component in every timestamp published before it,
so new movability always arrives through a clock-growing seed (and a
bare release never changes the fix-point: a non-latest candidate was
already released when its successor's acquire entered the history).

The fix-point is unique (monotone rules), so sweeping queues in
lockstep rounds rather than the python worklist order yields
bit-identical closure clocks, and hence bit-identical reports; proven
by ``tests/test_kernels.py``.  Only the *exact* detector uses this
path, and only after it promotes: a detector starts on the python
closure and moves here when its stream records its
``PROMOTE_HISTORIES``-th (thread, lock) history
(:meth:`repro.core.spd_online.SPDOnline._promote`).  Bounded-memory
eviction trims queue prefixes, which would invalidate the stateless
cursor reconstruction, so eviction mode stays python.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: per-queue value namespace; acq values are event counters << 2^41
_STRIDE = 1 << 41
#: pad sentinel: sorts after every real value, compares as infinity
_PAD = _STRIDE - 1

#: initial per-queue capacity / queue slots / pool rows (doubling)
_CAP0 = 8
_NQ0 = 16
_POOL0 = 64


class NpOnlineState:
    """Numpy mirrors of one detector's critical-section history."""

    def __init__(self, np) -> None:
        self.np = np
        self.qid_of: Dict[Tuple[int, int], int] = {}
        self.nq = 0
        self.cap = _CAP0
        self.maxq = _NQ0
        self.q_tid = np.zeros(_NQ0, dtype=np.int64)
        self.q_lid = np.zeros(_NQ0, dtype=np.int64)
        self.qoff = np.arange(_NQ0, dtype=np.int64) * self.cap
        self.q_len: List[int] = []
        size = _NQ0 * self.cap
        self.f_val = np.full(size, _PAD, dtype=np.int64)
        self.f_enc = np.zeros(size, dtype=np.int64)
        # Candidate columns, stacked so one fancy index gathers all
        # three: row 0 = acq_idx (pad -1), 1 = rel_val (pad 0),
        # 2 = pool row of the release clock (pad -1).
        self.f_cand = np.zeros((3, size), dtype=np.int64)
        self.f_cand[0] = -1
        self.f_cand[2] = -1
        # lid -> qids, plus the padded [n_lids, W] table the closure
        # rounds gather candidate sets through (pad -1).
        self._lock_queues: Dict[int, List[int]] = {}
        self.lq_table = np.full((1, 1), -1, dtype=np.int64)
        self._lq_stale = True
        # Release-clock pool: row r = zero-padded release timestamp.
        self.pool = np.zeros((_POOL0, 4), dtype=np.int64)
        self.pool_n = 0
        #: threads any queue indexes — the width closures must cover
        self.t_need = 1
        #: bumped on queue creation (closures grow their per-queue rows)
        self.generation = 0
        #: bumped on capacity relayout (closures rebase cached offsets)
        self.layout_gen = 0

    # -- write-through maintenance (called from the event handlers) ----------

    def on_acquire(self, tid: int, lid: int, val: int, acq_idx: int) -> None:
        np = self.np
        qid = self.qid_of.get((tid, lid))
        if qid is None:
            qid = self.nq
            self.qid_of[(tid, lid)] = qid
            if qid == self.maxq:
                self._grow_queues()
            self.q_tid[qid] = tid
            self.q_lid[qid] = lid
            base = qid * self.cap
            self.f_enc[base:base + self.cap] = qid * _STRIDE + _PAD
            self.q_len.append(0)
            self._lock_queues.setdefault(lid, []).append(qid)
            self._lq_stale = True
            self.nq += 1
            if tid >= self.t_need:
                self.t_need = tid + 1
            self.generation += 1
        n = self.q_len[qid]
        # Keep one pad slot per queue: the scan reads slot ``len`` as
        # the next value, so a full block would alias the neighbour.
        if n + 1 == self.cap:
            self._relayout(2 * self.cap)
        slot = qid * self.cap + n
        self.f_val[slot] = val
        # acq_idx mirrors CSRecord.acq_idx (the latest-candidate
        # tiebreaker): the event counter at the acquire.
        self.f_cand[0, slot] = acq_idx
        self.f_enc[slot] = val + qid * _STRIDE
        self.q_len[qid] = n + 1

    def on_release(self, tid: int, lid: int, acq_val: int,
                   rel_val: int, rel_clock: List[int]) -> None:
        np = self.np
        qid = self.qid_of[(tid, lid)]
        base = qid * self.cap
        n = self.q_len[qid]
        # acq_val strictly increases within a queue (the thread ticks at
        # every event), so the released record's position is a bisect.
        pos = int(np.searchsorted(self.f_val[base:base + n], acq_val))
        slot = base + pos
        self.f_cand[1, slot] = rel_val
        self.f_cand[2, slot] = self._pool_append(rel_clock)

    def _grow_queues(self) -> None:
        np = self.np
        old = self.maxq
        self.maxq = 2 * old
        for name in ("q_tid", "q_lid"):
            arr = np.zeros(self.maxq, dtype=np.int64)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        self.qoff = np.arange(self.maxq, dtype=np.int64) * self.cap
        size = self.maxq * self.cap
        for name, fill in (("f_val", _PAD), ("f_enc", 0)):
            arr = np.full(size, fill, dtype=np.int64)
            arr[:old * self.cap] = getattr(self, name)
            setattr(self, name, arr)
        cand = np.zeros((3, size), dtype=np.int64)
        cand[0] = -1
        cand[2] = -1
        cand[:, :old * self.cap] = self.f_cand
        self.f_cand = cand

    def _relayout(self, cap: int) -> None:
        """Double the uniform per-queue capacity (rare: O(log N) times)."""
        np = self.np
        old = self.cap
        size = self.maxq * cap
        new_val = np.full(size, _PAD, dtype=np.int64)
        new_enc = np.zeros(size, dtype=np.int64)
        new_cand = np.zeros((3, size), dtype=np.int64)
        new_cand[0] = -1
        new_cand[2] = -1
        for q in range(self.nq):
            n = self.q_len[q]
            new_val[q * cap:q * cap + n] = self.f_val[q * old:q * old + n]
            new_enc[q * cap:q * cap + n] = self.f_enc[q * old:q * old + n]
            new_enc[q * cap + n:(q + 1) * cap] = q * _STRIDE + _PAD
            new_cand[:, q * cap:q * cap + n] = \
                self.f_cand[:, q * old:q * old + n]
        self.f_val, self.f_enc, self.f_cand = new_val, new_enc, new_cand
        self.cap = cap
        self.qoff = np.arange(self.maxq, dtype=np.int64) * cap
        self.layout_gen += 1

    def _pool_append(self, values) -> int:
        np = self.np
        n = self.pool_n
        w = len(values)
        rows, width = self.pool.shape
        if n == rows or w > width:
            new = np.zeros((max(2 * rows, n + 1), max(width, w)),
                           dtype=np.int64)
            new[:n, :width] = self.pool[:n]
            self.pool = new
        self.pool[n, :w] = values
        self.pool_n = n + 1
        return n

    def lock_table(self):
        if self._lq_stale:
            np = self.np
            lids = self._lock_queues
            n_lid = max(lids) + 1 if lids else 1
            width = max((len(v) for v in lids.values()), default=1)
            table = np.full((n_lid, width), -1, dtype=np.int64)
            for lid, qs in lids.items():
                table[lid, :len(qs)] = qs
            self.lq_table = table
            self._lq_stale = False
        return self.lq_table

    # -- promotion path ------------------------------------------------------

    @classmethod
    def from_history(cls, np, histories) -> "NpOnlineState":
        """Full resync from a :class:`~repro.locks.history.CSHistories`
        at promotion, live or on restore (queue ids follow insertion
        order, which is deterministic but need not match the original
        run — queue order never affects the fix-point)."""
        out = cls(np)
        for (tid, lid), records in histories.records.items():
            for rec in records:
                out.on_acquire(tid, lid, rec.acq_val, rec.acq_idx)
                if rec.rel_ts is not None:
                    out.on_release(tid, lid, rec.acq_val, rec.rel_val,
                                   rec.rel_ts._v)
        return out


class NpOnlineClosure:
    """Drop-in ``SPClosure`` backed by :class:`NpOnlineState`."""

    __slots__ = ("_st", "_cl", "_clock", "_dirty", "_cursor", "_pos",
                 "_nq", "_lgen")

    def __init__(self, st: NpOnlineState) -> None:
        self._st = st
        #: python mirror of the closure clock — the hot path (seed
        #: joins, component reads, the no-growth early exit) never
        #: touches numpy.
        self._cl: List[int] = []
        self._clock = None
        self._dirty = False
        self._cursor = None
        self._pos = None
        self._nq = 0
        self._lgen = st.layout_gen

    # -- the SPClosure surface ----------------------------------------------

    def component(self, tid: int) -> int:
        cl = self._cl
        return cl[tid] if tid < len(cl) else 0

    def canonical_clock(self) -> List[int]:
        """Backend-agnostic checkpoint form (see SPDOnline.checkpoint)."""
        return list(self._cl)

    def seed_values(self, values) -> None:
        """Adopt restored clock components (rebuild-from-checkpoint)."""
        self._join(values)

    def _join(self, values) -> bool:
        cl = self._cl
        n = len(cl)
        if len(values) > n:
            cl.extend(0 for _ in range(len(values) - n))
        grew = False
        clock = self._clock
        nc = len(clock) if clock is not None else 0
        for i, v in enumerate(values):
            if v > cl[i]:
                cl[i] = v
                # Keep the ndarray clock in sync scalar-wise so dirty
                # computes skip the list->array copy (components past
                # its end are re-seeded when the array regrows).
                if i < nc:
                    clock[i] = v
                grew = True
        if grew:
            self._dirty = True
        return grew

    def join_seed(self, seed) -> None:
        self._join(seed._v)

    def compute(self, seed):
        self._join(seed._v)
        if not self._dirty:
            # At the fix-point and no seed grew the clock: nothing can
            # have become movable (see module docstring), so the
            # fix-point is unchanged.
            return self
        st = self._st
        np = st.np
        nq = st.nq
        self._sync(np, st, nq)
        clock = self._clock
        cursor = self._cursor
        pos = self._pos
        q_tid = st.q_tid[:nq]
        q_lid = st.q_lid
        enc = st.f_enc[:nq * st.cap]
        while True:
            # One vectorized movable scan over every queue: slot
            # ``pos[q]`` holds the next unconsumed acquire value (or
            # the pad infinity — appends write it in place).
            moved = np.flatnonzero(st.f_val.take(pos) <= clock.take(q_tid))
            if not moved.size:
                break
            bound = clock.take(q_tid.take(moved))
            # One global searchsorted advances all moved cursors: the
            # encoded column is sorted, and queue q's entries own the
            # value range [q*stride, (q+1)*stride).
            nc = np.searchsorted(enc, bound + moved * _STRIDE, side="right")
            cursor[moved] = nc - st.qoff.take(moved)
            pos[moved] = nc
            # Candidate step for every lock a cursor moved on, batched
            # through the padded lock table: a consumed record
            # contributes its release clock when it is not the
            # lock-latest candidate (mutex => already released), has
            # its release recorded, and its release value is not yet
            # inside the closure.
            lids = q_lid.take(moved).tolist()
            lids = lids if len(lids) == 1 else sorted(set(lids))
            qs = st.lock_table()[lids]
            qsc = np.maximum(qs, 0)
            # Each queue's last consumed record sits at slot
            # ``cursor-1``; gather its candidate row *fresh* from the
            # shared columns — a record can be consumed while its
            # critical section is still open, and the release lands in
            # ``f_cand`` only afterwards, so any copy taken at
            # consumption time would miss it forever.
            cur = cursor.take(qsc)
            lv = st.f_cand[:, st.qoff.take(qsc) + np.maximum(cur - 1, 0)]
            ai = np.where((qs >= 0) & (cur > 0), lv[0], -1)
            valid = ai >= 0
            contrib = valid & (valid.sum(axis=1) >= 2)[:, None]
            contrib[np.arange(len(lids)), ai.argmax(axis=1)] = False
            rr = lv[2]
            contrib &= rr >= 0
            contrib &= lv[1] > clock.take(q_tid.take(qsc))
            rows = rr[contrib]
            if rows.size:
                join = st.pool[rows].max(axis=0)
                w = join.size
                if w > len(clock):
                    clock = self._grow_clock(np, st, w)
                np.maximum(clock[:w], join, out=clock[:w])
        # Publish the grown clock back to the python mirror (full
        # width: joins can populate components past the mirror's end).
        self._cl[:] = clock.tolist()
        self._dirty = False
        return self

    # -- sizing --------------------------------------------------------------

    def _sync(self, np, st, nq: int) -> None:
        """Re-size per-queue rows and the clock; rebase cached slot
        offsets after a capacity relayout.  The ndarray clock tracks
        the python mirror scalar-wise (see ``_join``), so it only
        needs a bulk re-seed when (re)allocated."""
        width = max(st.t_need, len(self._cl), 1)
        clock = self._clock
        if clock is None or width > len(clock):
            clock = np.zeros(width, dtype=np.int64)
            n = len(self._cl)
            clock[:n] = self._cl
            self._clock = clock
        if nq > self._nq:
            cursor = np.zeros(nq, dtype=np.int64)
            if self._cursor is not None:
                cursor[:self._nq] = self._cursor[:self._nq]
            self._cursor = cursor
            self._nq = nq
            self._pos = st.qoff[:nq] + cursor
            self._lgen = st.layout_gen
        elif self._lgen != st.layout_gen:
            self._pos = st.qoff[:nq] + self._cursor
            self._lgen = st.layout_gen

    def _grow_clock(self, np, st, width: int):
        clock = np.zeros(width, dtype=np.int64)
        clock[:len(self._clock)] = self._clock
        self._clock = clock
        cl = self._cl
        if width > len(cl):
            cl.extend(0 for _ in range(width - len(cl)))
        return clock
