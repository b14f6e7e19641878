"""Vectorized :class:`~repro.trace.index.TraceIndex` derivation.

One ``extend()`` batch is absorbed with O(active-entities) numpy calls
instead of an O(N) python event loop:

- per-thread position/predecessor columns come from one contiguous
  grouping of the batch by thread id (rank within group + carry
  bases) — counting buckets for the usual dense small id ranges, a
  stable argsort otherwise;
- reads-from is a per-variable forward fill of write indices over the
  variable-sorted read/write subset (``np.maximum.accumulate`` with
  group-start carries from the incremental ``last_write`` state);
- held-lock ids are the same forward fill over the thread-sorted
  batch, seeded by each thread's carried held-set id, with the values
  *at* lock operations produced by a python scan over just the lock
  events — the only part of the pass that is inherently sequential
  (LIFO matching, non-well-nested stack edits, pool interning).

The scan runs on *copies* of the carry state and the batch is
committed only when it is anomaly-free; on any
:class:`~repro.trace.index.TraceError` condition the kernel declines
without side effects and the canonical python loop re-runs the same
events, raising the identical error with the identical partial-state
semantics.  Small batches are declined too — vectorization overhead
beats the python loop only past a few hundred events.  Either way the
resulting columns are bit-identical to the python pass (proven by
``tests/test_kernels.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.kernels as kernels
from repro.trace.events import (
    OP_ACQUIRE,
    OP_FORK,
    OP_READ,
    OP_RELEASE,
    OP_REQUEST,
    OP_WRITE,
)

#: below this batch size the python loop wins
MIN_BATCH = 256


def _group(np, values):
    """Contiguous grouping of ``values`` by id.

    Returns ``(order, starts, counts, group_ids)``: ``order`` indexes
    ``values`` so equal ids are contiguous and ascending-position
    within each group; ``starts``/``counts`` delimit the groups;
    ``group_ids`` names them.  Ids here (threads, locks, variables)
    are dense and small, so one ``flatnonzero`` bucket per id beats an
    O(N log N) stable argsort; sparse/large ranges fall back to the
    sort.  Group *order* differs between the two strategies (id order
    vs first appearance) — callers must not rely on it, and first-seen
    derivation sorts on ``order[starts]`` instead.
    """
    n = len(values)
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e, []
    m = int(values.max()) + 1
    if m > 64 and m * 4 > n:
        order = np.argsort(values, kind="stable")
        vs = values[order]
        start_mask = np.empty(n, dtype=bool)
        start_mask[0] = True
        start_mask[1:] = vs[1:] != vs[:-1]
        starts = np.flatnonzero(start_mask)
        counts = np.diff(np.append(starts, n))
        return order, starts, counts, vs[starts].tolist()
    parts = []
    group_ids = []
    for i in range(m):
        b = np.flatnonzero(values == i)
        if b.size:
            parts.append(b)
            group_ids.append(i)
    order = parts[0] if len(parts) == 1 else np.concatenate(parts)
    counts = np.fromiter((p.size for p in parts), dtype=np.int64,
                         count=len(parts))
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return order, starts, counts, group_ids


def _ffill_before(np, after, starts, carries, order_n, unset=-1):
    """Per-group shifted forward fill.

    ``after[k]`` is the value established *at* position ``k`` (or the
    ``unset`` sentinel), groups are contiguous with start positions
    ``starts`` carrying ``carries``; returns ``before[k]`` = last
    value established strictly before ``k`` within its group (group
    carry if none).  Real values and carries are > ``unset``, so every
    group start is set and accumulation never crosses a boundary.
    """
    shifted = np.empty(order_n, dtype=np.int64)
    shifted[1:] = after[:-1]
    shifted[starts] = carries
    set_at = np.where(shifted > unset, np.arange(order_n), 0)
    np.maximum.accumulate(set_at, out=set_at)
    return shifted[set_at]


def extend_batch(index) -> bool:
    """Absorb ``[index._pos, len(compiled))`` vectorized.

    Returns False (no side effects) to decline: batch too small, numpy
    not importable, or a trace anomaly that must surface through the
    python loop's exact error path.
    """
    compiled = index.compiled
    ops_a, tids_a, targs_a = compiled.columns()
    lo, hi = index._pos, len(ops_a)
    n = hi - lo
    if n < MIN_BATCH:
        return False
    np = kernels.numpy_or_none()
    if np is None:
        return False

    ops = np.frombuffer(ops_a, dtype=np.int8)[lo:hi]
    tids = np.frombuffer(tids_a, dtype=np.intc)[lo:hi]
    targs = np.frombuffer(targs_a, dtype=np.intc)[lo:hi]

    is_acq = ops == OP_ACQUIRE
    is_rel = ops == OP_RELEASE
    is_req = ops == OP_REQUEST
    lockop = np.flatnonzero(is_acq | is_rel | is_req)

    # -- python scan over just the lock ops, on copied carry state ----------
    # The held-set pool makes stack transitions memoizable: from a
    # given pool id, acquiring (or releasing) a given lock always
    # yields the same successor stack, so ``trans`` caches
    # ``(pool_id, ±lock)`` -> ``pool_id`` and the common case is one
    # dict hit instead of tuple construction + interning.  Misses
    # intern through ``_pool_ids`` in event order, so pool growth is
    # bit-identical to the python loop's.
    open_acq = {k: list(v) for k, v in index._open_acq.items()}
    held_stack = [list(s) for s in index._held_stack]
    cur = list(index._cur_held)
    trans = index._np_trans
    pool_ids = index._pool_ids
    held_pool = index.held_pool
    held_offsets = index.held_offsets
    held_lengths = index.held_lengths
    pool_len0 = len(held_offsets)       # rollback point on decline
    matches: List[Tuple[int, int]] = []
    after_ids: List[Tuple[int, int]] = []        # (rel pos, pool id)
    acq_by_lock: Dict[int, List[int]] = {}
    num_acquires = 0
    num_requests = 0
    nesting = index.lock_nesting_depth
    ops_l = ops[lockop].tolist()
    tids_l = tids[lockop].tolist()
    targs_l = targs[lockop].tolist()

    def _intern(stack: List[int]) -> int:
        key = tuple(stack)
        hid = pool_ids.get(key)
        if hid is None:
            hid = len(held_offsets)
            pool_ids[key] = hid
            held_offsets.append(len(held_pool))
            held_lengths.append(len(key))
            held_pool.extend(key)
        return hid

    def _rollback() -> bool:
        if len(held_offsets) > pool_len0:
            for key, hid in [(k, h) for k, h in pool_ids.items()
                             if h >= pool_len0]:
                del pool_ids[key]
            del held_pool[held_offsets[pool_len0]:]
            del held_offsets[pool_len0:]
            del held_lengths[pool_len0:]
            # Also drop transitions *from* rolled-back ids: a later
            # batch may reuse the numeric id for a different stack.
            stale = [k for k, v in trans.items()
                     if v >= pool_len0 or k[0] >= pool_len0]
            for k in stale:
                del trans[k]
        return False

    for p, op, t, lk in zip(lockop.tolist(), ops_l, tids_l, targs_l):
        if op == OP_ACQUIRE:
            num_acquires += 1
            open_acq.setdefault((t, lk), []).append(lo + p)
            acq_by_lock.setdefault(lk, []).append(lo + p)
            hs = held_stack[t]
            if len(hs) >= nesting:
                nesting = len(hs) + 1
            hs.append(lk)
            tkey = (cur[t], lk)
            hid = trans.get(tkey)
            if hid is None:
                hid = trans[tkey] = _intern(hs)
            cur[t] = hid
            after_ids.append((p, hid))
        elif op == OP_RELEASE:
            stack = open_acq.get((t, lk))
            if not stack:
                return _rollback()      # anomaly: python path raises
            matches.append((stack.pop(), lo + p))
            hs = held_stack[t]
            for j in range(len(hs) - 1, -1, -1):
                if hs[j] == lk:
                    del hs[j]
                    break
            else:
                return _rollback()      # anomaly: python path raises
            tkey = (cur[t], -1 - lk)
            hid = trans.get(tkey)
            if hid is None:
                hid = trans[tkey] = _intern(hs)
            cur[t] = hid
            after_ids.append((p, hid))
        else:
            num_requests += 1

    # -- anomaly-free: commit ------------------------------------------------

    # Thread grouping serves position, predecessor, per-thread event
    # lists, the held-id forward fill, and the first-appearance order.
    # Ids are dense and small, so counting buckets (one flatnonzero
    # per id) beat an O(N log N) argsort.
    order, starts, counts, group_tids = _group(np, tids)
    seen_thread = index._seen_thread
    for _, t in sorted((int(order[s]), t)
                       for s, t in zip(starts.tolist(), group_tids)
                       if not seen_thread[t]):
        seen_thread[t] = 1
        index.thread_order.append(t)
    lk_sub = targs[lockop]
    lorder, lstarts, _, lgroup = _group(np, lk_sub)
    seen_lock = index._seen_lock
    for _, lk in sorted((int(lorder[s]), lk)
                        for s, lk in zip(lstarts.tolist(), lgroup)
                        if not seen_lock[lk]):
        seen_lock[lk] = 1
        index.lock_order.append(lk)
    rw = np.flatnonzero((ops == OP_READ) | (ops == OP_WRITE))
    for p in np.flatnonzero(ops == OP_FORK).tolist():
        tgt = int(targs[p])
        if tgt not in index.fork_of:
            index.fork_of[tgt] = lo + p

    events_by_thread = index.events_by_thread
    abs_sorted = order.astype(np.int64) + lo

    bases = np.fromiter((len(events_by_thread[t]) for t in group_tids),
                        dtype=np.int64, count=len(group_tids))
    pos_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, counts) \
        + np.repeat(bases, counts)
    pred_sorted = np.empty(n, dtype=np.int64)
    pred_sorted[1:] = abs_sorted[:-1]
    prev_last = np.fromiter(
        ((events_by_thread[t][-1] if events_by_thread[t] else -1)
         for t in group_tids),
        dtype=np.int64, count=len(group_tids))
    pred_sorted[starts] = prev_last

    # Held ids: forward-fill the pool ids the scan established at each
    # lock op (events before a thread's first lock op carry its
    # pre-batch held id).
    after = np.full(n, -1, dtype=np.int64)
    for p, hid in after_ids:
        after[p] = hid
    cur_held = index._cur_held
    carries = np.fromiter((cur_held[t] for t in group_tids),
                          dtype=np.int64, count=len(group_tids))
    held_sorted = _ffill_before(np, after[order], starts, carries, n)

    # Reads-from: per-variable forward fill of write indices over the
    # read/write subset, carried in from last_write.
    rf_b = np.full(n, -1, dtype=np.int64)
    last_write = index._last_write
    if rw.size:
        vsub = targs[rw]
        vorder, vstarts, _, vgroup = _group(np, vsub)
        seen_var = index._seen_var
        for _, v in sorted((int(vorder[s]), v)
                           for s, v in zip(vstarts.tolist(), vgroup)
                           if not seen_var[v]):
            seen_var[v] = 1
            index.var_order.append(v)
        rw_sorted = rw[vorder]
        # Carries may legitimately be -1 (read of the initial value),
        # so the "no value here" sentinel is -2.
        w_after = np.where(ops[rw_sorted] == OP_WRITE,
                           rw_sorted.astype(np.int64) + lo, -2)
        vcarries = np.fromiter((last_write[v] for v in vgroup),
                               dtype=np.int64, count=len(vgroup))
        before_w = _ffill_before(np, w_after, vstarts, vcarries,
                                 len(rw), unset=-2)
        rf_b[rw_sorted] = np.where(ops[rw_sorted] == OP_READ, before_w, -1)
        # New last-write carry: last write index in each group (indices
        # ascend, so a running max is the latest), else the old carry.
        gmax = np.maximum.reduceat(w_after, vstarts)
        final = np.where(gmax >= 0, gmax, vcarries)
        for v, f in zip(vgroup, final.tolist()):
            last_write[v] = f

    # -- single bulk append per column ---------------------------------------
    pos_b = np.empty(n, dtype=np.int64)
    pos_b[order] = pos_sorted
    pred_b = np.empty(n, dtype=np.int64)
    pred_b[order] = pred_sorted
    held_b = np.empty(n, dtype=np.int64)
    held_b[order] = held_sorted
    match_b = np.full(n, -1, dtype=np.int64)
    for acq, rel in matches:
        if acq >= lo:
            match_b[acq - lo] = rel
        match_b[rel - lo] = acq

    index.thread_pos.frombytes(pos_b.astype(np.intc).tobytes())
    index.thread_pred.frombytes(pred_b.astype(np.intc).tobytes())
    index.held_id.frombytes(held_b.astype(np.intc).tobytes())
    index.rf.frombytes(rf_b.astype(np.intc).tobytes())
    index.match.frombytes(match_b.astype(np.intc).tobytes())
    match_col = index.match
    for acq, rel in matches:
        if acq < lo:                    # release matched a prior batch
            match_col[acq] = rel

    for s, e, t in zip(starts.tolist(), np.append(starts[1:], n).tolist(),
                       group_tids):
        events_by_thread[t].extend(abs_sorted[s:e].tolist())
    index._held_stack = held_stack
    index._cur_held = cur
    acquires_by_lock = index.acquires_by_lock
    for lk, evs in acq_by_lock.items():
        acquires_by_lock[lk].extend(evs)

    index._open_acq = open_acq
    index.num_acquires += num_acquires
    index.num_requests += num_requests
    index.lock_nesting_depth = nesting
    index._pos = hi
    kernels.record_dispatch("index_extend", "numpy", events=n)
    return True
