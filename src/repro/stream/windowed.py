"""Bounded-memory windowed SPDOffline (an explicitly lossy deployment
mode), as a streaming-session client.

SPDOffline keeps per-trace state linear in N; for monitoring sessions
of unbounded length even that is too much.  Windowed analysis checks
the trace in overlapping chunks and forgets everything older than one
window — the same engineering compromise Dirk makes (Section 6.1
discusses its misses), provided here as a first-class,
clearly-labelled mode rather than a silent limitation.

The window engine is :class:`WindowedSessionClient`, which *rides a
session*: it slides its window over the incrementally maintained
columns — the acquire/release ``match`` relation each window needs for
well-formed slicing already exists by the time the window closes, so
no per-window re-parse or full-trace re-derivation ever happens — and
it reports its retention point back to the session, so a bounded
session evicts everything older than the open window and peak memory
stays O(window) on unbounded monitoring streams (``repro analyze
--stream``).  :func:`spd_offline_windowed`, the batch entry point,
replays a complete trace through a session, so batch and streaming
runs agree bit for bit (pinned corpus-wide and on seeded random traces
by ``tests/test_stream.py``).

Guarantees:

- every reported deadlock is a sync-preserving deadlock of the *whole*
  trace restricted to the window (sound for the window, and — because
  a sync-preserving witness never needs events after the pattern —
  sound for the full trace as long as the window covers the pattern's
  closure);
- deadlock patterns whose events span more than ``window`` events may
  be missed (tested explicitly).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.patterns import DeadlockPattern, DeadlockReport
from repro.core.spd_offline import spd_offline
from repro.stream.session import StreamSession
from repro.trace.compiled import CompiledTrace
from repro.trace.events import OP_RELEASE
from repro.trace.trace import Trace, as_trace

__all__ = ["WindowedResult", "WindowedSessionClient", "spd_offline_windowed",
           "window_slice"]


@dataclass
class WindowedResult:
    """Accumulated windowed-analysis output."""

    reports: List[DeadlockReport] = field(default_factory=list)
    windows: int = 0
    elapsed: float = 0.0

    @property
    def num_deadlocks(self) -> int:
        return len(self.reports)

    def unique_bugs(self) -> set:
        return {r.bug_id for r in self.reports}


def window_slice(compiled: CompiledTrace, match: Sequence[int], glo: int,
                 ghi: int, base: int = 0) -> Tuple[Trace, List[int]]:
    """Well-formed window of global events ``[glo, ghi)``.

    ``compiled``'s first event has global index ``base`` and ``match``
    is its acquire/release column (global indices).  Releases whose
    acquire precedes the window are dropped (slicing mid-critical-
    section would produce an ill-formed sub-trace).  Reads whose writer
    falls outside silently rebind to an in-window writer or the initial
    value — their constraints cannot be validated inside the window,
    and dropping them only *adds* behaviors, which is the documented
    windowing imprecision shared by every windowed mode (this module
    and the Dirk stand-in).  Returns the sub-trace (projected on the
    columns, no Event objects) and the kept indices into ``compiled``.
    """
    ops = compiled.ops
    keep = [j for j in range(glo - base, ghi - base)
            if ops[j] != OP_RELEASE or match[j] >= glo]
    name = f"{compiled.name}[{glo}:{ghi}]"
    return Trace(compiled.project(keep, name=name), name=name), keep


class WindowedSessionClient:
    """Sliding-window SPDOffline over a :class:`StreamSession`.

    Args:
        session: the session to ride; the client attaches itself.
        window: events per chunk.
        overlap: fraction of each window shared with the next
            (0 ≤ overlap < 1); overlapping halves catch patterns that
            straddle a boundary by less than ``overlap · window``.
        max_size: deadlock-size cap forwarded to each window.

    The accumulated :class:`WindowedResult` lives in :attr:`result`;
    it is complete once the session is closed.
    """

    def __init__(self, session: StreamSession, window: int = 50_000,
                 overlap: float = 0.5, max_size: Optional[int] = None) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0 <= overlap < 1:
            raise ValueError("overlap must be in [0, 1)")
        self.session = session
        self.window = window
        self.step = max(1, int(window * (1 - overlap)))
        self.max_size = max_size
        self.result = WindowedResult()
        self._lo = 0                      # global start of the open window
        self._last_hi = -1                # global end of the last run window
        self._seen: Set[Tuple[str, ...]] = set()
        self._started = time.perf_counter()
        session.attach(self)

    # -- feed protocol -------------------------------------------------------

    def retain_from(self) -> int:
        """The session may evict everything before the open window."""
        return self._lo

    def feed_batch(self, compiled: CompiledTrace, lo: int, hi: int,
                   base: int = 0) -> None:
        glen = base + hi
        while glen >= self._lo + self.window:
            self._run_window(self._lo, self._lo + self.window)
            self._lo += self.step

    def finish(self) -> None:
        """Drain trailing windows: windows keep sliding until one ends
        exactly at the trace end, and a final partial window covers any
        remainder."""
        glen = len(self.session)
        while self._lo < glen and self._last_hi != glen:
            self._run_window(self._lo, min(self._lo + self.window, glen))
            if self._last_hi == glen:
                break
            self._lo += self.step
        self.result.elapsed = time.perf_counter() - self._started

    # -- one window ----------------------------------------------------------

    def _location(self, gidx: int) -> str:
        loc = self.session.compiled.locs.get(gidx - self.session.base)
        return loc if loc is not None else f"@{gidx}"

    def _run_window(self, glo: int, ghi: int) -> None:
        """Analyze global window ``[glo, ghi)`` (see :func:`window_slice`)."""
        session = self.session
        base = session.base
        if glo < base:
            raise ValueError("session evicted events of the open window")
        sub, keep = window_slice(session.compiled, session.match_view(),
                                 glo, ghi, base)
        self.result.windows += 1
        self._last_hi = ghi
        inner = spd_offline(sub, max_size=self.max_size)
        for report in inner.reports:
            original = tuple(sorted(base + keep[e] for e in report.pattern.events))
            locations = tuple(self._location(g) for g in original)
            bug = tuple(sorted(locations))
            if bug in self._seen:
                continue
            self._seen.add(bug)
            self.result.reports.append(
                DeadlockReport(pattern=DeadlockPattern(original),
                               locations=locations)
            )


def spd_offline_windowed(
    trace: Trace,
    window: int = 50_000,
    overlap: float = 0.5,
    max_size: Optional[int] = None,
) -> WindowedResult:
    """Windowed SPDOffline with overlapping chunks (batch entry point).

    Replays ``trace`` through a :class:`StreamSession` driving a
    :class:`WindowedSessionClient`; window placement, slicing and
    deduplication are the client's.  ``window``, ``overlap`` and
    ``max_size`` are the client's arguments.
    """
    trace = as_trace(trace)
    session = StreamSession(name=trace.name)
    client = WindowedSessionClient(session, window=window, overlap=overlap,
                                   max_size=max_size)
    session.feed_compiled(trace.compiled)
    session.close()
    return client.result
