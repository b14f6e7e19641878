"""Abstract-lock-graph edge construction as array passes.

The python builder (:func:`repro.core.alg._build_alg_edges`) loops over
every abstract acquire and, per candidate bucket, tests the edge
predicate ``t1 != t2 and l1 in held2 and held1 isdisjoint held2`` one
pair at a time.  This kernel evaluates the same relation as a join:

- candidate pairs ``(i, j)`` with ``lock_i in held_j`` come from one
  ``np.searchsorted`` of the node locks against the flattened
  ``(held lock, owner)`` pool sorted by ``(lock, owner)``;
- the thread filter is a vector compare;
- held-set disjointness is a bitwise AND over per-node multi-word
  uint64 lock masks, chunked to bound peak memory.

Candidate order is (i ascending, j ascending within i) — exactly the
order the python loop emits edges — and the bucket construction yields
each ``(i, j)`` at most once, so inserting the surviving pairs in order
reproduces the python-built :class:`DiGraph` bit-for-bit (node order is
pre-interned ``0..n-1`` by both paths).  Returns ``None`` to decline
(no numpy, or a graph too small to be worth the array setup); the
caller then runs the canonical python loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

import repro.kernels as kernels
from repro.graph.digraph import DiGraph

#: below this node count the python loop wins on constant factors
MIN_NODES = 48

#: candidate pairs per disjointness chunk (bounds mask-gather memory)
_PAIR_CHUNK = 1 << 19


def build_alg_edges_np(acquires: Sequence) -> Optional[DiGraph]:
    """``ALG`` over node indices, or ``None`` to decline."""
    n = len(acquires)
    if n < MIN_NODES:
        return None
    np = kernels.numpy_or_none()
    if np is None:
        return None
    threads = np.fromiter((a.thread for a in acquires), np.int64, count=n)
    locks = np.fromiter((a.lock for a in acquires), np.int64, count=n)
    held_lens = np.fromiter(
        (len(a.held) for a in acquires), np.int64, count=n)
    total = int(held_lens.sum())
    graph: DiGraph = DiGraph()
    for i in range(n):
        graph.add_node(i)
    if not total:
        kernels.record_dispatch("alg_edges", "numpy", events=n)
        return graph
    pool_owner = np.repeat(np.arange(n), held_lens)
    pool_lock = np.fromiter(
        (lk for a in acquires for lk in a.held), np.int64, count=total)

    # Per-node held-set bitmasks (multi-word: lock ids are dense).
    n_words = (int(max(int(pool_lock.max()), int(locks.max()))) >> 6) + 1
    masks = np.zeros((n, n_words), dtype=np.uint64)
    bits = np.uint64(1) << (pool_lock & 63).astype(np.uint64)
    np.bitwise_or.at(masks, (pool_owner, pool_lock >> 6), bits)

    # Candidate join: for each source i, the targets j with
    # lock_i ∈ held_j, ascending j (the python bucket order).
    order = np.lexsort((pool_owner, pool_lock))
    sorted_locks = pool_lock[order]
    sorted_owner = pool_owner[order]
    lo = np.searchsorted(sorted_locks, locks, side="left")
    hi = np.searchsorted(sorted_locks, locks, side="right")
    counts = hi - lo
    n_pairs = int(counts.sum())
    kernels.record_dispatch("alg_edges", "numpy", events=n_pairs)
    if not n_pairs:
        return graph
    src = np.repeat(np.arange(n), counts)
    starts = np.cumsum(counts) - counts
    gather = np.arange(n_pairs) - np.repeat(starts, counts) + np.repeat(
        lo, counts)
    dst = sorted_owner[gather]
    keep = threads[src] != threads[dst]
    src, dst = src[keep], dst[keep]
    if not src.size:
        return graph
    kept_src, kept_dst = [], []
    for base in range(0, src.size, _PAIR_CHUNK):
        s = src[base:base + _PAIR_CHUNK]
        d = dst[base:base + _PAIR_CHUNK]
        disjoint = ~(masks[s] & masks[d]).any(axis=1)
        kept_src.append(s[disjoint])
        kept_dst.append(d[disjoint])
    src = np.concatenate(kept_src)
    dst = np.concatenate(kept_dst)
    if not src.size:
        return graph
    # Group by source (pairs are (i, j)-sorted) and bulk-insert.
    bounds = np.flatnonzero(np.diff(src)) + 1
    group_src = src[np.concatenate(([0], bounds))].tolist()
    for i, js in zip(group_src, np.split(dst, bounds)):
        graph.add_successors_sorted(i, js.tolist())
    return graph
