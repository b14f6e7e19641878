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
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import repro.kernels as kernels
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
    if kernels.backend() == "numpy":
        from repro.kernels.alg_np import build_alg_edges_np

        graph = build_alg_edges_np(acquires)
        if graph is not None:
            return graph
    kernels.record_dispatch("alg_edges", "python", events=len(acquires))
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


def enumerate_alg_cycles(
    graph: DiGraph,
    max_length: Optional[int] = None,
    max_cycles: Optional[int] = None,
) -> Iterator[List[AbstractAcquire]]:
    """Simple cycles of ALG as lists of abstract acquires."""
    for idx_cycle in simple_cycles(graph, max_length=max_length, max_cycles=max_cycles):
        yield [graph.node_at(i) for i in idx_cycle]


def abstract_deadlock_patterns(
    trace: Trace,
    max_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
) -> Tuple[int, List[AbstractDeadlockPattern]]:
    """Phase 1 of SPDOffline.

    Returns ``(num_cycles, patterns)`` — the total simple-cycle count of
    ALG (the ``|Cyc|`` column of Table 1) and the cycles that pass the
    abstract-deadlock-pattern filter (the ``A. P.`` column).
    """
    trace = as_trace(trace)
    acquires = collect_abstract_acquire_ids(trace)
    graph = _build_alg_edges(acquires)
    compiled = trace.compiled
    num_cycles = 0
    patterns: List[AbstractDeadlockPattern] = []
    named: dict = {}

    def name_of(i: int) -> AbstractAcquire:
        eta = named.get(i)
        if eta is None:
            eta = named[i] = acquires[i].to_named(compiled)
        return eta

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

