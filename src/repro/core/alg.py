"""The abstract lock graph ``ALG`` (paper Section 4.5).

Nodes are abstract acquires ``⟨t, l, L, F⟩``; an edge ``(η1, η2)``
exists when ``t1 ≠ t2``, ``l1 ∈ L2``, and ``L1 ∩ L2 = ∅``.  Every
abstract deadlock pattern appears as a simple cycle of ALG; a cycle is
an abstract deadlock pattern when additionally all threads are
distinct, all locks are distinct, and all held sets pairwise disjoint
(the edge relation only guarantees this for adjacent nodes).

Graph construction and cycle filtering run entirely over the interned
id form (:class:`~repro.locks.abstract.AbstractAcquireIds`): edges
compare int thread/lock ids and intersect frozensets of lock ids.
String :class:`AbstractAcquire` objects are materialized only for the
patterns that survive the filter.

Patterns of size at most 2 (SPDOnline's scope) need no graph: an edge
joins two threads, so ALG has no self-loops, and its 2-cycles are the
pairs of acquires by two threads that each hold the other's lock under
disjoint held sets, which a join on (lock, held lock) finds directly
(:func:`_two_cycles`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.patterns import AbstractDeadlockPattern
from repro.graph.digraph import DiGraph
from repro.graph.johnson import simple_cycles
from repro.locks.abstract import (
    AbstractAcquire,
    AbstractAcquireIds,
    collect_abstract_acquire_ids,
)
from repro.trace.trace import Trace, as_trace


def _build_alg_edges(acquires: Sequence[AbstractAcquireIds]) -> DiGraph:
    """``ALG`` over node indices ``0..len(acquires)-1`` (int ids)."""
    graph: DiGraph = DiGraph()
    for i in range(len(acquires)):
        graph.add_node(i)
    # Index nodes by membership lock for edge construction: an edge
    # η1 → η2 needs l1 ∈ L2, so bucket targets by each held lock.
    by_held_lock: dict = {}
    for j, eta in enumerate(acquires):
        for lk in eta.held:
            by_held_lock.setdefault(lk, []).append(j)
    for i, eta1 in enumerate(acquires):
        held1 = eta1.held
        t1 = eta1.thread
        for j in by_held_lock.get(eta1.lock, ()):
            eta2 = acquires[j]
            if t1 != eta2.thread and held1.isdisjoint(eta2.held):
                graph.add_edge(i, j)
    return graph


def _two_cycles(
    acquires: Sequence[AbstractAcquireIds],
    max_cycles: Optional[int] = None,
) -> Iterator[Tuple[int, int]]:
    """ALG's 2-cycles as node pairs ``(s, v)``, ``s < v``, without ALG.

    ``s → v → s`` needs distinct threads, disjoint held sets and
    ``lock(s) ∈ held(v)``, ``lock(v) ∈ held(s)``.  Indexing every node
    ``v`` under the keys ``(lock(v), h)`` for ``h ∈ held(v)`` makes the
    partners of ``s`` the nodes under ``(h, lock(s))`` for
    ``h ∈ held(s)``.  Yields in :func:`simple_cycles`' order (``s``
    ascending, then ``v``) and stops after ``max_cycles`` as it does.
    """
    if max_cycles is not None and max_cycles <= 0:
        return
    by_key: Dict[Tuple[int, int], List[int]] = {}
    for j, eta in enumerate(acquires):
        for h in eta.held:
            by_key.setdefault((eta.lock, h), []).append(j)
    emitted = 0
    for s, eta in enumerate(acquires):
        lock, thread, held = eta.lock, eta.thread, eta.held
        partners: List[int] = []
        for h in held:
            # buckets ascend, and those of one s hold distinct nodes
            # (their locks differ)
            bucket = by_key.get((h, lock), ())
            for v in bucket[bisect_right(bucket, s):]:
                other = acquires[v]
                if other.thread != thread and held.isdisjoint(other.held):
                    partners.append(v)
        partners.sort()
        for v in partners:
            yield s, v
            emitted += 1
            if max_cycles is not None and emitted >= max_cycles:
                return


def build_abstract_lock_graph(trace: Trace) -> DiGraph:
    """Construct ``ALG(trace)`` over :class:`AbstractAcquire` nodes.

    The string-keyed public form (node identity is the ``⟨t, l, L⟩``
    signature); the detectors use the id-level internals directly.
    """
    trace = as_trace(trace)
    acquires = collect_abstract_acquire_ids(trace)
    id_graph = _build_alg_edges(acquires)
    compiled = trace.compiled
    named = [a.to_named(compiled) for a in acquires]
    graph: DiGraph = DiGraph()
    for eta in named:
        graph.add_node(eta)
    for i, j in id_graph.edges():
        graph.add_edge(named[i], named[j])
    return graph


def cycle_is_abstract_pattern(nodes: List[AbstractAcquireIds]) -> bool:
    """Distinct threads/locks and pairwise-disjoint held sets."""
    k = len(nodes)
    threads = {n.thread for n in nodes}
    locks = {n.lock for n in nodes}
    if len(threads) != k or len(locks) != k:
        return False
    for i in range(k):
        held_i = nodes[i].held
        for j in range(i + 1, k):
            if not held_i.isdisjoint(nodes[j].held):
                return False
    return True


def abstract_deadlock_patterns(
    trace: Trace,
    max_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
) -> Tuple[int, List[AbstractDeadlockPattern]]:
    """Phase 1 of SPDOffline.

    Returns ``(num_cycles, patterns)`` — the total simple-cycle count of
    ALG (the ``|Cyc|`` column of Table 1) and the cycles that pass the
    abstract-deadlock-pattern filter (the ``A. P.`` column).  With
    ``max_size`` at most 2 the cycles come from :func:`_two_cycles`,
    without building ALG.
    """
    trace = as_trace(trace)
    acquires = collect_abstract_acquire_ids(trace)
    compiled = trace.compiled
    num_cycles = 0
    patterns: List[AbstractDeadlockPattern] = []
    named: dict = {}

    def name_of(i: int) -> AbstractAcquire:
        eta = named.get(i)
        if eta is None:
            eta = named[i] = acquires[i].to_named(compiled)
        return eta

    if max_size is not None and max_size <= 2:
        # ALG has no self-loops, so no cycle of size 1.  Every 2-cycle
        # is a pattern: its edges make its threads differ and its held
        # sets disjoint, so its locks differ too, each lying in the
        # other's held set.
        if max_size == 2:
            for s, v in _two_cycles(acquires, max_cycles):
                patterns.append(AbstractDeadlockPattern(
                    (name_of(s), name_of(v))).canonical())
        return len(patterns), patterns
    graph = _build_alg_edges(acquires)
    for idx_cycle in simple_cycles(graph, max_length=max_size, max_cycles=max_cycles):
        num_cycles += 1
        nodes = [acquires[i] for i in idx_cycle]
        if cycle_is_abstract_pattern(nodes):
            patterns.append(
                AbstractDeadlockPattern(tuple(name_of(i) for i in idx_cycle)).canonical()
            )
    return num_cycles, patterns


def count_cycles(trace: Trace, max_cycles: Optional[int] = None) -> int:
    """``|Cyc|``: number of simple cycles in ALG (Table 1 column 7)."""
    graph = _build_alg_edges(collect_abstract_acquire_ids(as_trace(trace)))
    return sum(1 for _ in simple_cycles(graph, max_cycles=max_cycles))

