"""SPDOffline: two-phase sync-preserving deadlock prediction
(Algorithms 2 and 3 of the paper).

Phase 1 enumerates the abstract deadlock patterns of the trace from the
abstract lock graph.  Phase 2 checks each abstract pattern with the
incremental procedure ``CheckAbsDdlck`` (Algorithm 2): walk the acquire
sequences ``F_0, ..., F_{k-1}`` with one pointer each, compute the
sync-preserving closure of the thread-local predecessors of the current
instantiation, report a deadlock when none of the instantiation's
events landed inside the closure, and otherwise advance each pointer
past every acquire the closure already swallowed (Corollary 4.5).  The
closure timestamp is carried across iterations (Proposition 4.4), so
the whole check runs in time linear in the trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.kernels as kernels
from repro.core.alg import abstract_deadlock_patterns
from repro.core.closure import SPClosureEngine
from repro.core.patterns import (
    AbstractDeadlockPattern,
    DeadlockPattern,
    DeadlockReport,
)
from repro.trace.trace import Trace
from repro.vc.clock import VectorClock


def check_abstract_pattern(
    engine: SPClosureEngine,
    abstract: AbstractDeadlockPattern,
) -> Optional[DeadlockPattern]:
    """Algorithm 2 (``CheckAbsDdlck``).

    Returns the first sync-preserving concrete instantiation of
    ``abstract``, or ``None`` when the abstract pattern contains no
    sync-preserving deadlock.
    """
    events = check_pattern_sequences(
        engine, tuple(a.events for a in abstract.acquires)
    )
    return DeadlockPattern(events) if events is not None else None


def check_pattern_sequences(
    engine: SPClosureEngine,
    sequences: Tuple[Tuple[int, ...], ...],
) -> Optional[Tuple[int, ...]]:
    """Algorithm 2 on raw acquire-event sequences (one per pattern node).

    The event-index core of :func:`check_abstract_pattern`, over the
    same per-pattern input the numpy batch kernel
    (:mod:`repro.kernels.offline_np`) takes.  Returns the first
    sync-preserving instantiation (one event per sequence, in sequence
    order), or ``None``.  The engine is reset on entry — cursor state
    is shared within a single check only.
    """
    engine.reset()
    ts = engine.timestamps
    k = len(sequences)
    pointers = [0] * k
    t_clock = VectorClock.bottom(len(ts.universe))

    leq_clock = ts.leq_clock
    while all(pointers[j] < len(sequences[j]) for j in range(k)):
        current = [sequences[j][pointers[j]] for j in range(k)]
        # Closure of the thread-local predecessors of the instantiation,
        # joined into the monotonically growing timestamp.
        for idx in current:
            t_clock.join_with(ts.pred_timestamp(idx))
        t_clock = engine.compute(t_clock)
        if all(not leq_clock(e, t_clock) for e in current):
            return tuple(current)
        # Corollary 4.5: skip every instantiation whose events are
        # already inside the closure — they can never succeed.
        for j in range(k):
            seq = sequences[j]
            i = pointers[j]
            while i < len(seq) and leq_clock(seq[i], t_clock):
                i += 1
            pointers[j] = i
    return None


@dataclass
class SPDOfflineResult:
    """Full output of one SPDOffline run.

    Attributes:
        reports: one report per abstract pattern that contains a
            sync-preserving deadlock (Algorithm 3 reports per abstract
            pattern and stops checking it after the first hit).
        num_cycles: simple cycles in the abstract lock graph (|Cyc|).
        num_abstract_patterns: cycles that are abstract deadlock
            patterns (Table 1 "A. P.").
        num_concrete_patterns: total concrete instantiations encoded by
            the abstract patterns (Table 1 "C. P.").
        elapsed: analysis wall-clock seconds (excludes trace loading).
    """

    reports: List[DeadlockReport] = field(default_factory=list)
    num_cycles: int = 0
    num_abstract_patterns: int = 0
    num_concrete_patterns: int = 0
    elapsed: float = 0.0
    #: pattern events -> witness schedule (filled by ``with_witnesses``)
    witnesses: Dict[Tuple[int, ...], List[int]] = field(default_factory=dict)

    @property
    def num_deadlocks(self) -> int:
        return len(self.reports)

    def unique_bugs(self) -> set:
        return {r.bug_id for r in self.reports}


def spd_offline(
    trace: Trace,
    max_size: Optional[int] = None,
    max_cycles: Optional[int] = None,
    with_witnesses: bool = False,
) -> SPDOfflineResult:
    """Algorithm 3 (SPDOffline): all sync-preserving deadlocks of ``trace``.

    Args:
        trace: the input execution trace.
        max_size: optional cap on deadlock size (cycle length); ``None``
            detects all sizes, ``2`` mirrors the SPDOnline scope.
        max_cycles: optional safety cap on enumerated ALG cycles
            (Theorem 3.1 makes the worst case exponential).
        with_witnesses: additionally build, validate, and attach the
            Lemma 4.1 witness schedule to every report
            (:attr:`SPDOfflineResult.witnesses`).
    """
    from repro.trace.trace import as_trace

    trace = as_trace(trace)
    start = time.perf_counter()
    num_cycles, abstracts = abstract_deadlock_patterns(
        trace, max_size=max_size, max_cycles=max_cycles
    )
    result = SPDOfflineResult(
        num_cycles=num_cycles,
        num_abstract_patterns=len(abstracts),
        num_concrete_patterns=sum(a.num_concrete for a in abstracts),
    )
    if abstracts:
        # Phase 2: pattern checks are mutually independent, so the
        # numpy backend checks them all in one lockstep batch (proven
        # bit-identical to the python loop by tests/test_kernels.py).
        witnesses = None
        if kernels.backend() == "numpy":
            from repro.kernels.offline_np import check_patterns_batch
            from repro.vc.timestamps import TRFTimestamps

            witnesses = check_patterns_batch(
                trace,
                [tuple(a.events for a in ab.acquires) for ab in abstracts],
                TRFTimestamps(trace),
            )
        if witnesses is not None:
            for abstract, events in zip(abstracts, witnesses):
                if events is not None:
                    result.reports.append(
                        DeadlockReport.from_pattern(
                            trace, DeadlockPattern(events), abstract)
                    )
        else:
            engine = SPClosureEngine(trace)
            for abstract in abstracts:
                witness = check_abstract_pattern(engine, abstract)
                if witness is not None:
                    result.reports.append(
                        DeadlockReport.from_pattern(trace, witness, abstract)
                    )
    if with_witnesses:
        from repro.reorder.witness import witness_for_pattern

        for report in result.reports:
            schedule, ok = witness_for_pattern(trace, report.pattern.events)
            assert ok, "sound reports always admit a witness"
            result.witnesses[report.pattern.events] = schedule
    result.elapsed = time.perf_counter() - start
    return result
