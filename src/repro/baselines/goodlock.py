"""Goodlock-style deadlock-pattern reporting [Havelund 2000].

Builds the classic lock-order graph — nodes are locks, an edge
``l1 → l2`` records that some thread acquired ``l2`` while holding
``l1`` — and reports every cycle whose witnessing acquire events form a
deadlock pattern.  No realizability reasoning: reports are *potential*
deadlocks and may be false positives (trace σ1 of Fig. 1a is the
canonical one), which is exactly what makes sound prediction the hard
problem this paper solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.patterns import DeadlockPattern, is_deadlock_pattern
from repro.graph.digraph import DiGraph
from repro.graph.johnson import simple_cycles
from repro.trace.events import OP_ACQUIRE
from repro.trace.trace import Trace, as_trace


@dataclass
class GoodlockResult:
    """Potential deadlocks found by lock-order cycle detection."""

    warnings: List[DeadlockPattern] = field(default_factory=list)
    num_cycles: int = 0
    elapsed: float = 0.0

    @property
    def num_warnings(self) -> int:
        return len(self.warnings)


def goodlock(
    trace: Trace,
    max_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
    max_warnings_per_cycle: int = 1,
) -> GoodlockResult:
    """Report cyclic lock-acquisition patterns (unsound).

    For each lock-graph cycle, tries to instantiate it with concrete
    acquire events forming a deadlock pattern, reporting up to
    ``max_warnings_per_cycle`` instantiations.
    """
    trace = as_trace(trace)
    start = time.perf_counter()
    index = trace.index
    ops, _, targs = trace.compiled.columns()
    held_id = index.held_id
    held_offsets = index.held_offsets
    held_lengths = index.held_lengths
    held_pool = index.held_pool
    # Lock-order graph over interned lock ids;
    # edge (l1, l2) -> acquire events of l2 performed while holding l1
    edge_events: Dict[Tuple[int, int], List[int]] = {}
    graph: DiGraph = DiGraph()
    for idx in range(len(ops)):
        if ops[idx] != OP_ACQUIRE:
            continue
        target = targs[idx]
        hid = held_id[idx]
        off = held_offsets[hid]
        for held in held_pool[off:off + held_lengths[hid]]:
            if held == target:
                continue
            graph.add_edge(held, target)
            edge_events.setdefault((held, target), []).append(idx)

    result = GoodlockResult()
    for cycle in simple_cycles(graph, max_length=max_size, max_cycles=max_cycles):
        result.num_cycles += 1
        locks = [graph.node_at(i) for i in cycle]
        k = len(locks)
        found = 0
        # Instantiate: event i acquires locks[(i+1)%k] while holding locks[i].
        candidates = [
            edge_events.get((locks[i], locks[(i + 1) % k]), []) for i in range(k)
        ]
        for combo in _product_capped(candidates, cap=10_000):
            if is_deadlock_pattern(trace, combo):
                result.warnings.append(DeadlockPattern(tuple(combo)).canonical())
                found += 1
                if found >= max_warnings_per_cycle:
                    break
    result.elapsed = time.perf_counter() - start
    return result


def _product_capped(lists: List[List[int]], cap: int):
    """Cartesian product, lazily, yielding at most ``cap`` tuples."""
    import itertools

    for n, combo in enumerate(itertools.product(*lists)):
        if n >= cap:
            return
        yield combo
