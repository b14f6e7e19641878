"""Naive sound detector: check every concrete pattern from scratch.

The strawman that Section 4.4's abstract deadlock patterns beat.  It
enumerates the concrete instantiations of every abstract deadlock
pattern and runs a *fresh* sync-preserving-closure computation per
instantiation — O(N·T) each, so O(N·T·#concrete) total, versus
SPDOffline's O(N·T·#abstract).  Same reports (sound and complete for
sync-preserving deadlocks); used as the ablation baseline quantifying
the abstract-pattern speedup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.alg import abstract_deadlock_patterns
from repro.core.closure import SPClosureEngine
from repro.core.patterns import DeadlockReport
from repro.trace.trace import Trace, as_trace
from repro.vc.timestamps import TRFTimestamps


@dataclass
class NaiveResult:
    """Reports plus the number of per-pattern closure computations."""

    reports: List[DeadlockReport] = field(default_factory=list)
    patterns_checked: int = 0
    elapsed: float = 0.0

    @property
    def num_deadlocks(self) -> int:
        return len(self.reports)


def naive_sp_detector(
    trace: Trace,
    max_size: Optional[int] = None,
    max_patterns: Optional[int] = None,
    first_hit_per_abstract: bool = True,
) -> NaiveResult:
    """Check each concrete deadlock pattern independently.

    Args:
        trace: input trace.
        max_size: optional deadlock-size cap.
        max_patterns: optional cap on checked instantiations (the
            concrete count can be astronomically larger than the
            abstract count — Vector in Table 1 encodes 10^9).
        first_hit_per_abstract: stop checking an abstract pattern's
            instantiations after the first confirmed deadlock, matching
            SPDOffline's per-abstract-pattern reporting.
    """
    trace = as_trace(trace)
    start = time.perf_counter()
    result = NaiveResult()
    timestamps = TRFTimestamps(trace)
    _, abstracts = abstract_deadlock_patterns(trace, max_size=max_size)
    for abstract in abstracts:
        for pattern in abstract.instantiations():
            if max_patterns is not None and result.patterns_checked >= max_patterns:
                result.elapsed = time.perf_counter() - start
                return result
            result.patterns_checked += 1
            engine = SPClosureEngine(trace, timestamps)  # fresh cursors
            t0 = engine.pred_timestamp_of_events(pattern.events)
            t_clock = engine.compute(t0)
            if all(not timestamps.leq_clock(e, t_clock) for e in pattern.events):
                result.reports.append(
                    DeadlockReport.from_pattern(trace, pattern, abstract)
                )
                if first_hit_per_abstract:
                    break
    result.elapsed = time.perf_counter() - start
    return result
