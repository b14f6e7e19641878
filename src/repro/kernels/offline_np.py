"""Algorithm 2 (``CheckAbsDdlck``) batched across abstract patterns.

The python path (:func:`repro.core.spd_offline.check_pattern_sequences`)
checks one abstract pattern at a time: walk the acquire sequences with
one pointer each, grow a closure clock to the Algorithm 1 fix-point
(one fresh :class:`repro.core.closure.SPClosure` per pattern, the
engine SPDOnline runs too, over the critical-section history built
once per trace), report when no current event landed inside, else skip
swallowed acquires (Corollary 4.5).  Checks of distinct patterns are
completely independent — each owns its pointers, its closure clock,
and its critical-section cursors — which makes the whole phase 2 a
textbook lockstep batch: this kernel advances *all* patterns through
the same pointer-walk rounds simultaneously over

- ``TS``   — ``[n_rows, n_threads]``: the timestamps phase 2 joins
  (acquire predecessors and releases), from the sparse TRF store,
- flat per-(thread, lock) critical-section queues with per-pattern
  cursor/candidate state arrays of shape ``[n_patterns, n_queues]``,
- padded ``[n_patterns, k, max_seq]`` sequence tables.

Cursor advances use one global ``np.searchsorted`` over queue-encoded
acquire values (valid because per-queue values strictly increase and
closure clocks grow monotonically within a check — the same
Proposition 4.4 monotonicity the python cursors rely on), and release
joins scatter through ``np.maximum.at``.  The fix-point of Algorithm 1
is unique (its rules are monotone), so reaching it in lockstep rounds
rather than the python engine's dirty-lock worklist order yields
bit-identical clocks, and hence bit-identical witnesses.

The kernel returns ``None`` to decline (no numpy, no acquires); the
caller then runs the canonical python path.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import repro.kernels as kernels
import repro.obs as obs
from repro.trace.events import OP_ACQUIRE

#: pattern-state cells (patterns x queues) and sequence-table cells
#: (patterns x k x max_seq) per chunk — bounds peak memory to tens of MB
_MAX_STATE_CELLS = 4_000_000
_MAX_SEQ_CELLS = 8_000_000

_PREP_ATTR = "_np_offline_prep"


def _sorted_unique(np, a):
    """``np.unique(a)`` for a 1-D integer array: sort, then keep each
    run's first element.  numpy >= 2.3's plain ``np.unique`` consults
    ``np.ma`` first, and that lazy ``numpy.ma`` import (about 25 ms and
    1.3 MB) would otherwise land on every process running this kernel.
    """
    out = np.sort(a)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


class _Prep:
    """Per-trace immutable arrays shared by every batch (cached on the
    TRFTimestamps instance)."""

    def __init__(self, np, trace, timestamps) -> None:
        self.np = np
        compiled = trace.compiled
        index = trace.index
        ops, tids, targs = compiled.columns()
        ops = np.frombuffer(ops, dtype=np.int8)
        targs = np.frombuffer(targs, dtype=np.intc)
        self.slots = np.frombuffer(timestamps._slots, dtype=np.intc).astype(np.int64)
        self.vals = np.frombuffer(timestamps._vals, dtype=np.intc).astype(np.int64)
        pred = np.frombuffer(index.thread_pred, dtype=np.intc).astype(np.int64)
        match = np.frombuffer(index.match, dtype=np.intc).astype(np.int64)
        self.width = len(timestamps.universe)
        self.n_locks = n_locks = max(len(compiled.locks_tab), 1)

        acq = np.flatnonzero(ops == OP_ACQUIRE)
        self.n_entries = acq.size
        if not acq.size:
            return
        # Group acquires into per-(thread slot, lock) queues; the stable
        # sort keeps trace order (and with it strictly increasing
        # acq_val) inside each queue.
        qkey = self.slots[acq] * n_locks + targs[acq]
        order = np.argsort(qkey, kind="stable")
        entries = acq[order].astype(np.int64)
        qk = qkey[order]
        bounds = np.flatnonzero(np.diff(qk)) + 1
        self.q_start = np.concatenate(
            ([0], bounds, [entries.size])).astype(np.int64)
        nq = self.q_start.size - 1
        self.n_queues = nq
        first_keys = qk[self.q_start[:-1]]
        self.q_slot = first_keys // n_locks
        self.q_lock = first_keys % n_locks
        q_len = np.diff(self.q_start)

        # Flat per-entry columns (queue-major).
        self.f_idx = entries
        self.f_val = self.vals[entries]
        rel = match[entries]
        self.f_relval = np.where(rel >= 0, self.vals[np.maximum(rel, 0)], 0)
        # Encoded values: one sorted array answering "how many entries
        # of queue q have acq_val <= bound" with a single searchsorted.
        self.stride = int(self.f_val.max()) + 2
        qid_of_entry = np.repeat(np.arange(nq), q_len)
        self.enc = self.f_val + qid_of_entry * self.stride
        # Next-value lookup padded with one +inf sentinel per queue end,
        # so "value after cursor" is always a plain gather.
        self.inf = np.iinfo(np.int64).max // 2
        self.q_startp = self.q_start[:-1] + np.arange(nq)
        f_valp = np.full(entries.size + nq, self.inf, dtype=np.int64)
        f_valp[np.arange(entries.size) + qid_of_entry] = self.f_val
        self.f_valp = f_valp
        self.nv0 = self.f_val[self.q_start[:-1]]

        # The only timestamps phase 2 joins: acquire predecessors and
        # releases, referenced by their row of ``ts``.  ``row_of`` ends
        # in a -1 so that "no event" (-1) maps to "no row" (-1).
        need = np.concatenate((pred[entries], rel))
        need = _sorted_unique(np, need[need >= 0])
        row_of = np.full(ops.size + 1, -1, dtype=np.int64)
        row_of[need] = np.arange(need.size)
        self.ts = self._gather(np, timestamps, need)
        self.pred_row = row_of[pred]
        self.f_relrow = row_of[rel]

        # lock -> its queue ids / slot -> its queue ids, padded with -1.
        self.lock_queues = self._grouped(np, self.q_lock, n_locks, nq)
        self.slot_queues = self._grouped(np, self.q_slot, self.width, nq)

    def _gather(self, np, timestamps, events):
        """``[len(events), width]`` int64 timestamps of ``events``: their
        anchor rows, zero-padded, with each own slot set to its value."""
        anchors = np.frombuffer(timestamps._anchor, dtype=np.intc)[events]
        uniq, inv = np.unique(anchors, return_inverse=True)
        rows = [timestamps._rows[a] for a in uniq.tolist()]
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        total = int(lens.sum())
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                           count=total)
        packed = np.zeros((len(rows), self.width), dtype=np.int64)
        packed[np.repeat(np.arange(len(rows)), lens),
               np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)] = flat
        out = packed[inv]
        out[np.arange(events.size), self.slots[events]] = self.vals[events]
        return out

    @staticmethod
    def _grouped(np, keys, n_keys, nq):
        counts = np.bincount(keys, minlength=n_keys)
        width = int(counts.max()) if nq else 0
        out = np.full((n_keys, max(width, 1)), -1, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        col = np.arange(nq) - starts[keys[order]]
        out[keys[order], col] = order
        return out


def _prep(np, trace, timestamps) -> _Prep:
    prep = getattr(timestamps, _PREP_ATTR, None)
    if prep is None:
        prep = _Prep(np, trace, timestamps)
        setattr(timestamps, _PREP_ATTR, prep)
    return prep


def check_patterns_batch(
    trace,
    patterns: Sequence[Tuple[Tuple[int, ...], ...]],
    timestamps,
) -> Optional[List[Optional[Tuple[int, ...]]]]:
    """Check every pattern; one witness tuple (or None) per pattern.

    Returns ``None`` when the kernel declines and the caller should run
    the python path instead.
    """
    np = kernels.numpy_or_none()
    if np is None or not patterns:
        return None
    prep = _prep(np, trace, timestamps)
    if not prep.n_entries:
        return None
    kernels.record_dispatch("offline_check", "numpy", len(patterns))
    # The same telemetry stream the python engine feeds: one closure
    # computation per pattern (a lower bound — the lockstep sweep
    # fuses the per-iteration recomputes the python loop would count).
    obs.count("closure.compute", len(patterns))

    results: List[Optional[Tuple[int, ...]]] = [None] * len(patterns)
    by_k = {}
    for i, seqs in enumerate(patterns):
        by_k.setdefault(len(seqs), []).append(i)
    for k, ids in by_k.items():
        longest = max(max((len(s) for s in patterns[i]), default=0)
                      for i in ids)
        chunk = max(1, min(
            _MAX_STATE_CELLS // max(prep.n_queues, 1),
            _MAX_SEQ_CELLS // max(k * max(longest, 1), 1),
        ))
        for lo in range(0, len(ids), chunk):
            part = ids[lo:lo + chunk]
            for pid, witness in zip(
                part, _check_chunk(np, prep, [patterns[i] for i in part], k)
            ):
                results[pid] = witness
    return results


def _gather_current(np, table, ptr):
    """``table[p, j, ptr[p, j]]`` for a ``[P, k, S]`` table."""
    return np.take_along_axis(table, ptr[:, :, None], axis=2)[:, :, 0]


def _check_chunk(np, prep, patterns, k):
    n = len(patterns)
    s_max = max(1, max(len(s) for p in patterns for s in p))
    rows = n * k
    seq_idx = np.full((rows, s_max), -1, dtype=np.int64)
    flat_rows = [s for p in patterns for s in p]
    lens = np.fromiter((len(s) for s in flat_rows), dtype=np.int64, count=rows)
    total = int(lens.sum())
    if total:
        flat = np.fromiter(
            (e for s in flat_rows for e in s), dtype=np.int64, count=total)
        starts = np.cumsum(lens) - lens
        seq_idx[np.repeat(np.arange(rows), lens),
                np.arange(total) - np.repeat(starts, lens)] = flat
    seq_idx = seq_idx.reshape(n, k, s_max)
    seq_len = lens.reshape(n, k)
    safe = np.maximum(seq_idx, 0)
    pad = seq_idx < 0
    seq_val = np.where(pad, prep.inf, prep.vals[safe])
    seq_slot = np.where(pad, 0, prep.slots[safe])
    seq_pred = np.where(pad, -1, prep.pred_row[safe])

    nq = prep.n_queues
    width = prep.width
    clock = np.zeros((n, width), dtype=np.int64)
    ptr = np.zeros((n, k), dtype=np.int64)
    nv = np.broadcast_to(prep.nv0, (n, nq)).copy()
    last_ai = np.full((n, nq), -1, dtype=np.int64)
    last_rr = np.full((n, nq), -1, dtype=np.int64)
    last_rv = np.zeros((n, nq), dtype=np.int64)
    witness = np.full((n, k), -1, dtype=np.int64)
    alive = (seq_len > 0).all(axis=1)

    active = np.flatnonzero(alive)
    while active.size:
        ptr_a = ptr[active]
        cur_idx = _gather_current(np, seq_idx[active], ptr_a)
        # Join thread-local predecessor timestamps of the current
        # instantiation into the (monotone) closure clocks.
        before = clock[active].copy()
        for j in range(k):
            pr = seq_pred[active, j, ptr_a[:, j]]
            valid = pr >= 0
            if valid.any():
                rows_v = active[valid]
                clock[rows_v] = np.maximum(clock[rows_v], prep.ts[pr[valid]])
        g_pat, g_slot = np.nonzero(clock[active] > before)
        _closure(np, prep, active[g_pat], g_slot,
                 clock, nv, last_ai, last_rr, last_rv)
        # Membership (the O(1) epoch test, batched): report when every
        # current event stayed outside the closure.
        cur_val = _gather_current(np, seq_val[active], ptr_a)
        cur_slot = _gather_current(np, seq_slot[active], ptr_a)
        inside = cur_val <= clock[active[:, None], cur_slot]
        hit = ~inside.any(axis=1)
        if hit.any():
            witness[active[hit]] = cur_idx[hit]
            alive[active[hit]] = False
        rest = active[~hit]
        if rest.size:
            # Corollary 4.5: advance each pointer to its first acquire
            # outside the closure (the +inf pads count as outside, so
            # an exhausted sequence parks its pointer at len(seq)).
            bound = clock[rest[:, None, None], seq_slot[rest]]
            outside = seq_val[rest] > bound
            cand = outside & (np.arange(s_max)[None, None, :]
                              >= ptr[rest][:, :, None])
            has = cand.any(axis=2)
            first = np.where(has, cand.argmax(axis=2), s_max)
            ptr[rest] = first
            dead = (first >= seq_len[rest]).any(axis=1)
            alive[rest[dead]] = False
        active = np.flatnonzero(alive)

    return [
        tuple(int(e) for e in witness[i]) if witness[i, 0] >= 0 else None
        for i in range(n)
    ]


def _closure(np, prep, pat, slot, clock, nv, last_ai, last_rr, last_rv):
    """Drive every pattern's Algorithm 1 fix-point, lockstep.

    ``(pat, slot)`` are the (pattern row, clock slot) pairs that grew;
    each round advances the cursors those slots can move, joins the
    resulting release contributions, and seeds the next round with the
    slots the joins grew.  Terminates because clocks and cursors grow
    monotonically toward finite maxima.
    """
    n_locks = prep.n_locks
    while pat.size:
        qcand = prep.slot_queues[slot]
        valid = qcand >= 0
        p2 = np.broadcast_to(pat[:, None], qcand.shape)[valid]
        q2 = qcand[valid]
        movable = nv[p2, q2] <= clock[p2, prep.q_slot[q2]]
        pm = p2[movable]
        qm = q2[movable]
        if not pm.size:
            return
        # Bulk cursor advance: cursor = #{acq_val <= bound} per queue,
        # answered by one searchsorted over the queue-encoded values.
        bound = clock[pm, prep.q_slot[qm]]
        nc = np.searchsorted(
            prep.enc, bound + qm * prep.stride, side="right") - prep.q_start[qm]
        fi = prep.q_start[qm] + nc - 1
        last_ai[pm, qm] = prep.f_idx[fi]
        last_rr[pm, qm] = prep.f_relrow[fi]
        last_rv[pm, qm] = prep.f_relval[fi]
        nv[pm, qm] = prep.f_valp[prep.q_startp[qm] + nc]
        # Contributions, per affected (pattern, lock): of the per-thread
        # last candidates, all but the trace-latest contribute their
        # release clocks — skipping releases already inside the closure.
        ukey = _sorted_unique(np, pm * n_locks + prep.q_lock[qm])
        up = ukey // n_locks
        qs = prep.lock_queues[ukey % n_locks]
        qvalid = qs >= 0
        qsafe = np.where(qvalid, qs, 0)
        ai = np.where(qvalid, last_ai[up[:, None], qsafe], -1)
        act = (ai >= 0).sum(axis=1) >= 2
        if not act.any():
            return
        up, qs, qvalid, qsafe, ai = (
            up[act], qs[act], qvalid[act], qsafe[act], ai[act])
        contrib = ai >= 0
        contrib[np.arange(up.size), ai.argmax(axis=1)] = False
        rr = np.where(qvalid, last_rr[up[:, None], qsafe], -1)
        rv = np.where(qvalid, last_rv[up[:, None], qsafe], 0)
        contrib &= rr >= 0
        contrib &= rv > clock[up[:, None], prep.q_slot[qsafe]]
        cu, cw = np.nonzero(contrib)
        if not cu.size:
            return
        affected = _sorted_unique(np, up[cu])
        before = clock[affected].copy()
        np.maximum.at(clock, up[cu], prep.ts[rr[cu, cw]])
        g_pat, g_slot = np.nonzero(clock[affected] > before)
        pat = affected[g_pat]
        slot = g_slot
