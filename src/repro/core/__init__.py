"""The paper's primary contribution: sync-preserving deadlock prediction.

Public entry points:

- :func:`spd_offline` — Algorithm 3 (SPDOffline): detect all
  sync-preserving deadlocks of all sizes, two-phase.
- :class:`SPDOnline` / :func:`spd_online` — Algorithm 4 (SPDOnline):
  streaming detection of all size-2 sync-preserving deadlocks.
- :func:`sp_closure` — Algorithm 1 over event sets (reference entry).
- :class:`DeadlockPattern`, :class:`AbstractDeadlockPattern`,
  :class:`DeadlockReport` — result types.
- :func:`build_abstract_lock_graph`, :func:`abstract_deadlock_patterns`
  — the Section 4.5 graph machinery.
"""

from repro.core.patterns import (
    AbstractDeadlockPattern,
    DeadlockPattern,
    DeadlockReport,
    find_concrete_patterns,
    is_deadlock_pattern,
)
from repro.core.alg import (
    abstract_deadlock_patterns,
    build_abstract_lock_graph,
    count_cycles,
)
from repro.core.closure import SPClosureEngine, sp_closure, sp_closure_events
from repro.core.spd_offline import SPDOfflineResult, check_abstract_pattern, spd_offline
from repro.core.spd_online import SPDOnline, spd_online
from repro.core.races import RaceReport, SPRaceResult, is_sp_race, sp_races
from repro.core.spd_online_k import OnlineKReport, SPDOnlineK, spd_online_k

__all__ = [
    "AbstractDeadlockPattern",
    "DeadlockPattern",
    "DeadlockReport",
    "find_concrete_patterns",
    "is_deadlock_pattern",
    "abstract_deadlock_patterns",
    "build_abstract_lock_graph",
    "count_cycles",
    "SPClosureEngine",
    "sp_closure",
    "sp_closure_events",
    "SPDOfflineResult",
    "check_abstract_pattern",
    "spd_offline",
    "SPDOnline",
    "spd_online",
    "RaceReport",
    "SPRaceResult",
    "is_sp_race",
    "sp_races",
    "OnlineKReport",
    "SPDOnlineK",
    "spd_online_k",
]
