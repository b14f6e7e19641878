"""The SPDOnline runtime monitor: predict deadlocks while a program runs.

This is the paper's online deployment (Section 6.2): the analysis
consumes each event the instant it is emitted.  If the program *hits*
an actual deadlock the run halts (and that counts as a bug find too);
when a deadlock is merely *predictable* in an alternate interleaving,
the monitor reports it and the run continues — no confirmation
re-executions needed, because SPDOnline is sound.

Events flow through a :class:`repro.stream.StreamSession` (flushed per
event, preserving the instant-detection semantics): the detector is an
ordinary session consumer, the monitored run leaves behind a
first-class incrementally-indexed trace (:attr:`MonitoredExecution.session`),
and ``max_memory_events`` turns on bounded-memory eviction for
indefinitely-running programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.core.spd_online import OnlineReport, SPDOnline
from repro.runtime.program import Program
from repro.runtime.scheduler import (
    BiasedScheduler,
    ExecutionResult,
    RandomScheduler,
    run_program,
)
from repro.stream.session import StreamSession


@dataclass
class MonitoredExecution:
    """One monitored run: the execution outcome plus online predictions."""

    execution: ExecutionResult
    predictions: List[OnlineReport] = field(default_factory=list)
    #: size ≥ 3 predictions (populated when monitoring with SPDOnline-K)
    k_predictions: List = field(default_factory=list)
    #: the streaming session the run fed (trace views, checkpoints)
    session: Optional[StreamSession] = None

    @property
    def bug_ids(self) -> Set[Tuple[str, ...]]:
        """Unique bugs: predicted ones plus the hit deadlock, if any."""
        bugs = {r.bug_id for r in self.predictions}
        bugs.update(r.bug_id for r in self.k_predictions)
        if self.execution.deadlocked:
            bugs.add(self.execution.deadlock_bug_id)
        return bugs

    @property
    def num_hits(self) -> int:
        """Bug hits: one per prediction plus one per actual deadlock."""
        return (
            len(self.predictions)
            + len(self.k_predictions)
            + (1 if self.execution.deadlocked else 0)
        )


def run_with_monitor(
    program: Program,
    scheduler: Optional[RandomScheduler] = None,
    max_steps: int = 100_000,
    max_deadlock_size: int = 2,
    max_memory_events: Optional[int] = None,
) -> MonitoredExecution:
    """Execute ``program`` with SPDOnline attached to the event stream.

    ``max_deadlock_size > 2`` swaps in the SPDOnline-K extension, which
    also predicts multi-thread cycles (e.g. dining philosophers)
    online; size-2 reports flow through either way.
    ``max_memory_events`` bounds tracked detector (and session) state
    for long-running programs — sound, may miss.  SPDOnline-K has no
    bounded mode, so it raises ``ValueError`` when given both.
    """
    if max_deadlock_size > 2:
        from repro.core.spd_online_k import SPDOnlineK

        detector = SPDOnlineK(max_size=max_deadlock_size,
                              max_memory_events=max_memory_events)
    else:
        detector = SPDOnline(max_memory_events=max_memory_events)
    # Per-event flush: the detector sees each event the instant the
    # scheduler emits it, exactly as with a direct sink.
    session = StreamSession(
        name=getattr(program, "name", None) or "monitored-run",
        batch_size=1,
        max_memory_events=max_memory_events,
    )
    session.attach(detector)
    result = run_program(
        program,
        scheduler=scheduler,
        max_steps=max_steps,
        event_sink=session.append_event,
    )
    session.close()
    out = MonitoredExecution(execution=result,
                             predictions=list(detector.reports),
                             session=session)
    for rep in getattr(detector, "k_reports", ()):
        out.k_predictions.append(rep)
    return out


def monitored_campaign(
    program: Program,
    runs: int,
    seed: int = 0,
    biased: bool = True,
    max_steps: int = 100_000,
    max_deadlock_size: int = 2,
) -> List[MonitoredExecution]:
    """Repeatedly execute + monitor ``program`` with fresh schedules.

    This is the SPDOnline side of the Table 2 experiment: prediction
    piggybacks on ordinary (biased-random) testing runs.
    """
    out = []
    for i in range(runs):
        sched: RandomScheduler
        if biased:
            sched = BiasedScheduler(seed=seed + i)
        else:
            sched = RandomScheduler(seed=seed + i)
        out.append(
            run_with_monitor(
                program,
                scheduler=sched,
                max_steps=max_steps,
                max_deadlock_size=max_deadlock_size,
            )
        )
    return out
