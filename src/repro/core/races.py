"""Sync-preserving data-race prediction [Mathur et al., POPL 2021].

The paper's sync-preserving deadlock machinery generalizes the race
analysis it was inspired by; this module closes the loop and provides
the race side, on top of the same closure engine.

A pair of conflicting accesses (same variable, different threads, at
least one write) is a *sync-preserving predictable race* when some
sync-preserving correct reordering leaves both events simultaneously
enabled — by the Lemma 4.2 argument, exactly when

    SPClosure(pred({e1, e2})) ∩ {events at/after the stall points} = ∅.

Detection mirrors SPDOffline: conflicting accesses are grouped into
*abstract race patterns* (per ordered pair of (thread, kind) access
groups on one variable), each checked with the incremental pointer
walk of Algorithm 2, reusing closures monotonically (Proposition 4.4
and the Corollary 4.5 skip).

This also realizes the Theorem 3.3 connection: replacing a size-2
deadlock pattern's acquires with writes to a fresh variable turns a
deadlock question into this race question — tested both ways in
``tests/test_races.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.core.closure import SPClosureEngine
from repro.trace.events import OP_READ, OP_WRITE
from repro.trace.trace import Trace, as_trace
from repro.vc.clock import VectorClock


@dataclass(frozen=True)
class RaceReport:
    """A sync-preserving predictable race."""

    first_event: int
    second_event: int
    variable: str
    locations: Tuple[str, str]

    @property
    def bug_id(self) -> Tuple[str, ...]:
        return tuple(sorted(self.locations))


@dataclass
class SPRaceResult:
    reports: List[RaceReport] = field(default_factory=list)
    pairs_considered: int = 0
    elapsed: float = 0.0

    @property
    def num_races(self) -> int:
        return len(self.reports)

    def unique_bugs(self) -> set:
        return {r.bug_id for r in self.reports}

    def race_pairs(self) -> set:
        return {
            tuple(sorted((r.first_event, r.second_event))) for r in self.reports
        }


@dataclass(frozen=True)
class _AccessGroup:
    """All accesses of one (thread, variable, kind) signature, in order."""

    thread: str
    variable: str
    is_write: bool
    events: Tuple[int, ...]


def _access_groups(trace: Trace) -> Dict[str, List[_AccessGroup]]:
    """Group accesses by (thread, variable, kind) over the int columns.

    String names are resolved once per *group*, not per event."""
    compiled = trace.compiled
    ops, tids, targs = compiled.columns()
    by_sig: Dict[Tuple[int, int, int], List[int]] = {}
    order: List[Tuple[int, int, int]] = []
    for i in range(len(ops)):
        op = ops[i]
        if op != OP_READ and op != OP_WRITE:
            continue
        key = (tids[i], targs[i], op)
        bucket = by_sig.get(key)
        if bucket is None:
            by_sig[key] = bucket = []
            order.append(key)
        bucket.append(i)
    thread_names = compiled.threads_tab.names
    var_names = compiled.vars_tab.names
    out: Dict[str, List[_AccessGroup]] = {}
    for key in order:
        t, var, op = key
        out.setdefault(var_names[var], []).append(
            _AccessGroup(thread=thread_names[t], variable=var_names[var],
                         is_write=op == OP_WRITE, events=tuple(by_sig[key]))
        )
    return out


def _abstract_race_patterns(
    trace: Trace,
) -> Iterator[Tuple[_AccessGroup, _AccessGroup]]:
    """Pairs of conflicting access groups (the race analog of abstract
    deadlock patterns)."""
    for groups in _access_groups(trace).values():
        for i, g1 in enumerate(groups):
            for g2 in groups[i + 1:]:
                if g1.thread == g2.thread:
                    continue
                if not (g1.is_write or g2.is_write):
                    continue
                yield g1, g2


def _check_group_pair(
    engine: SPClosureEngine,
    g1: _AccessGroup,
    g2: _AccessGroup,
    first_hit: bool,
) -> List[Tuple[int, int]]:
    """Algorithm 2 transplanted to access groups.

    Walks the two event sequences with pointers, skipping entries the
    monotonically growing closure has swallowed.
    """
    engine.reset()
    ts = engine.timestamps
    trace = engine.trace
    hits: List[Tuple[int, int]] = []
    seqs = (g1.events, g2.events)
    pointers = [0, 0]
    t_clock = VectorClock.bottom(len(ts.universe))

    def stalled_ok(e: int, clock: VectorClock) -> bool:
        """The closure must not include ``e`` (nor, transitively, its
        successors — impossible for a closed set if ``e`` is out)."""
        return not ts.leq_clock(e, clock)

    while pointers[0] < len(seqs[0]) and pointers[1] < len(seqs[1]):
        e1 = seqs[0][pointers[0]]
        e2 = seqs[1][pointers[1]]
        for idx in (e1, e2):
            t_clock.join_with(ts.pred_timestamp(idx))
        t_clock = engine.compute(t_clock)
        if stalled_ok(e1, t_clock) and stalled_ok(e2, t_clock):
            hits.append((e1, e2) if e1 < e2 else (e2, e1))
            if first_hit:
                return hits
            # Advance the trace-earlier side to look for further races.
            if e1 < e2:
                pointers[0] += 1
            else:
                pointers[1] += 1
            continue
        # Corollary 4.5 analog: skip entries inside the closure.
        for j in range(2):
            seq = seqs[j]
            i = pointers[j]
            while i < len(seq) and ts.leq_clock(seq[i], t_clock):
                i += 1
            pointers[j] = i
    return hits


def sp_races(
    trace: Trace,
    first_hit_per_pair: bool = True,
) -> SPRaceResult:
    """All sync-preserving predictable races of ``trace``.

    Args:
        trace: the input trace.
        first_hit_per_pair: report only the first race per abstract
            race pattern (the SPDOffline reporting convention);
            ``False`` enumerates further concrete races.
    """
    trace = as_trace(trace)
    start = time.perf_counter()
    result = SPRaceResult()
    engine = SPClosureEngine(trace)
    location_of = trace.compiled.location_of
    for g1, g2 in _abstract_race_patterns(trace):
        result.pairs_considered += 1
        for e1, e2 in _check_group_pair(engine, g1, g2, first_hit_per_pair):
            result.reports.append(
                RaceReport(
                    first_event=e1,
                    second_event=e2,
                    variable=g1.variable,
                    locations=(location_of(e1), location_of(e2)),
                )
            )
    result.elapsed = time.perf_counter() - start
    return result


def is_sp_race(trace: Trace, e1: int, e2: int) -> bool:
    """Point query: is the access pair a sync-preserving race?"""
    ev1, ev2 = trace[e1], trace[e2]
    if not (ev1.is_access and ev2.is_access):
        raise ValueError("race queries need two access events")
    if ev1.thread == ev2.thread or ev1.target != ev2.target:
        return False
    if not (ev1.is_write or ev2.is_write):
        return False
    engine = SPClosureEngine(trace)
    t0 = engine.pred_timestamp_of_events((e1, e2))
    t_clock = engine.compute(t0)
    ts = engine.timestamps
    return not ts.leq_clock(e1, t_clock) and not ts.leq_clock(e2, t_clock)
