"""SPDOffline: two-phase sync-preserving deadlock prediction
(Algorithms 2 and 3 of the paper).

Phase 1 enumerates the abstract deadlock patterns of the trace from the
abstract lock graph.  Phase 2 checks each abstract pattern with the
incremental procedure ``CheckAbsDdlck`` (Algorithm 2): walk the acquire
sequences ``F_1, ..., F_k`` with one pointer each, compute the
sync-preserving closure ``C(I) = SPClosure(pred(I))`` of the current
instantiation ``I``, report a deadlock when none of ``I``'s events
landed inside it, and otherwise advance each pointer past every acquire
the closure already swallowed (Corollary 4.5).  The closure timestamp
is carried across iterations (Proposition 4.4), so the whole check runs
in time linear in the trace.

Prefix closures decide most instantiations without a fix-point.
``SPClosure`` is a closure operator (extensive, monotone, idempotent),
and the engine memoizes each acquire's ``P[e] = SPClosure(pred(e))``
(:meth:`~repro.core.closure.SPClosureEngine.prefix`, one sweep per
thread).  At ``I = (e_1, ..., e_k)`` the walk joins
``J = P[e_1] ⊔ ... ⊔ P[e_k] ⊔ C_last``, with ``C_last`` the check's last
exact closure.  If some ``e_i ⊑ J`` (the O(1) epoch test), it skips
every acquire inside ``J``.  Otherwise it seeds the exact fix-point
from ``J`` and reports or skips as above.  ``C_last`` is the persistent
closure's own clock, and the pointers already passed its members, so
the epoch tests read only the ``P`` values.

The reports are Algorithm 2's.  Order instantiations pointwise by
sequence position.  A closure's members in one ``F_j`` form a prefix of
it (``F_j`` is one thread's acquires, and a closure is
``≤TRF``-downward closed).  Algorithm 2 visits ``I_0 < I_1 < ...``,
where ``I_{i+1} = N(I_i)`` moves each pointer past the members of
``C(I_i)``; it reports the first ``I_i`` with ``N(I_i) = I_i`` as
``I*``, or runs off a sequence.

- ``J ⊆ C(I)``.  ``P[e_i] ⊆ C(I)`` by monotonicity, and so is
  ``C_last = C(I')`` for a visited ``I' ≤ I``, whose predecessors lie
  ``≤TO`` those of ``I``.  So a prefilter hit is never a deadlock, and
  its skips are a subset of the exact walk's skips at ``I``.  As
  ``pred(I) ⊆ J ⊆ C(I)``, idempotence makes the fix-point seeded from
  ``J`` equal ``C(I)``.
- No skip passes ``I*``.  ``I*``'s events lie outside ``C(I*)``, and so
  outside the closure of every smaller instantiation.  A skip at a
  visited ``I ≤ I*`` crosses only acquires inside ``C(I) ⊆ C(I*)``,
  which in each ``F_j`` sit strictly before ``I*``'s event.
- Nothing before ``I*`` is reported.  Any ``I`` the new walk visits is
  ``≥`` some visited ``I_i``; take the last.  Unless ``I = I*``, ``I``
  is below that walk's next pointers ``N(I_i)`` in some sequence ``j``
  (or ``N(I_i)`` ran off ``F_j``), so ``I``'s ``j``-th event lies
  inside ``C(I_i) ⊆ C(I)``.

Every step advances a pointer, so the new walk reaches ``I*`` and
reports it there, where ``J ⊆ C(I*)`` misses all its events.  If
Algorithm 2 runs off instead, every visited instantiation has an event
inside some ``C(I_i)``, and the new walk reports nothing either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.core.alg import abstract_deadlock_patterns
from repro.core.closure import SPClosureEngine
from repro.core.patterns import (
    AbstractDeadlockPattern,
    DeadlockPattern,
    DeadlockReport,
)
from repro.trace.trace import Trace
from repro.vc.timestamps import TRFTimestamps


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
    """Algorithm 2 on raw acquire-event sequences (one per pattern node,
    each one thread's acquires in trace order).

    The event-index core of :func:`check_abstract_pattern`, with the
    prefix-closure prefilter of the module docstring.  Returns the first
    sync-preserving instantiation (one event per sequence, in sequence
    order), or ``None``.  The engine's closure is reset on entry — its
    cursors are shared within a single check only; its prefix closures
    persist, and its tallies count each visited instantiation.
    """
    engine.reset()
    ts = engine.timestamps
    slots, vals = ts._slots, ts._vals
    prefix = engine.prefix
    k = len(sequences)
    if not all(sequences):
        return None
    ends = [len(seq) for seq in sequences]
    seq_slots = [slots[seq[0]] for seq in sequences]
    pointers = [0] * k
    current = [seq[0] for seq in sequences]
    while True:
        ps = [prefix(e) for e in current]
        # J's component at each sequence's thread (P values are full width).
        pvs = [p._v for p in ps]
        bounds = [max([v[s] for v in pvs]) for s in seq_slots]
        if any([vals[current[j]] <= bounds[j] for j in range(k)]):
            engine.prefiltered += 1
        else:
            engine.exact += 1
            seed = ps[0].copy()
            for p in ps[1:]:
                seed.join_with(p)
            tv = engine.compute(seed)._v
            bounds = [tv[s] for s in seq_slots]
            if all([vals[current[j]] > bounds[j] for j in range(k)]):
                return tuple(current)
        # Corollary 4.5: skip every acquire already inside the closure.
        for j in range(k):
            seq = sequences[j]
            i = pointers[j]
            bound = bounds[j]
            end = ends[j]
            while i < end and vals[seq[i]] <= bound:
                i += 1
            if i == end:
                return None
            pointers[j] = i
            current[j] = seq[i]


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
    with obs.span("alg.phase1", cat="offline"):
        num_cycles, abstracts = abstract_deadlock_patterns(
            trace, max_size=max_size, max_cycles=max_cycles
        )
    result = SPDOfflineResult(
        num_cycles=num_cycles,
        num_abstract_patterns=len(abstracts),
        num_concrete_patterns=sum(a.num_concrete for a in abstracts),
    )
    if abstracts:
        timestamps = TRFTimestamps(trace)      # its own vc.trf span
        with obs.span("offline.phase2", cat="offline"):
            engine = SPClosureEngine(trace, timestamps)
            # Patterns share abstract acquires: name each one once.
            acquires = {id(a): a for ab in abstracts for a in ab.acquires}
            engine.name_acquires(
                e for a in acquires.values() for e in a.events)
            for abstract in abstracts:
                witness = check_abstract_pattern(engine, abstract)
                if witness is not None:
                    result.reports.append(
                        DeadlockReport.from_pattern(trace, witness, abstract)
                    )
        obs.count("offline.prefix", len(engine.prefixes))
        obs.count("offline.prefiltered", engine.prefiltered)
        obs.count("offline.exact", engine.exact)
    if with_witnesses:
        from repro.reorder.witness import witness_for_pattern

        for report in result.reports:
            schedule, ok = witness_for_pattern(trace, report.pattern.events)
            assert ok, "sound reports always admit a witness"
            result.witnesses[report.pattern.events] = schedule
    result.elapsed = time.perf_counter() - start
    return result
