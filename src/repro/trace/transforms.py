"""Trace preprocessing transforms.

Real logged traces need cleanup before analysis; these are the
transforms the paper's toolchain (RV-Predict / Wiretap / RAPID)
performs implicitly:

- :func:`flatten_reentrant_locks` — JVM monitors are reentrant; the
  analysis model is not.  Inner re-acquisitions and their releases are
  dropped, keeping each critical section's outermost extent.
- :func:`insert_requests` — emit a ``req`` event before each acquire
  (some loggers record lock *requests*; Table 1's A/R column counts
  both).
- :func:`rename` — α-rename threads/locks/variables (anonymization,
  trace merging without collisions).
- :func:`filter_threads` / :func:`filter_variables` — project onto a
  subset of threads, or drop access events of uninteresting variables
  (with the option to keep reads-from-relevant writes).
- :func:`concat` — sequential composition of traces (the hardness
  constructions and benchmark composition use this shape).
- :func:`truncate_well_formed` — cut a trace at ``n`` events and close
  the dangling critical sections so the prefix is a valid trace.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.trace.events import Event, Op
from repro.trace.trace import Trace


def _rebuild(events: Iterable[Event], name: str) -> Trace:
    return Trace(
        [Event(i, e.thread, e.op, e.target, e.loc) for i, e in enumerate(events)],
        name=name,
    )


def flatten_reentrant_locks(trace: Trace) -> Trace:
    """Drop nested re-acquisitions of an already-held lock.

    For each thread and lock, a depth counter tracks reentrancy; only
    depth 0→1 acquires and 1→0 releases survive.  Releases without a
    held lock are dropped too (truncated logs).
    """
    depth: Dict[tuple, int] = {}
    out: List[Event] = []
    for ev in trace:
        if ev.is_acquire:
            key = (ev.thread, ev.target)
            d = depth.get(key, 0)
            depth[key] = d + 1
            if d == 0:
                out.append(ev)
        elif ev.is_release:
            key = (ev.thread, ev.target)
            d = depth.get(key, 0)
            if d == 0:
                continue  # unmatched release: drop
            depth[key] = d - 1
            if d == 1:
                out.append(ev)
        else:
            out.append(ev)
    return _rebuild(out, f"{trace.name}|flat")


def insert_requests(trace: Trace) -> Trace:
    """Emit ``req(l)`` immediately before every ``acq(l)``."""
    out: List[Event] = []
    for ev in trace:
        if ev.is_acquire:
            out.append(Event(0, ev.thread, Op.REQUEST, ev.target, ev.loc))
        out.append(ev)
    return _rebuild(out, f"{trace.name}|req")


def rename(
    trace: Trace,
    thread_map: Optional[Callable[[str], str]] = None,
    lock_map: Optional[Callable[[str], str]] = None,
    var_map: Optional[Callable[[str], str]] = None,
) -> Trace:
    """α-rename identifiers; missing maps default to identity."""
    t_map = thread_map or (lambda s: s)
    l_map = lock_map or (lambda s: s)
    v_map = var_map or (lambda s: s)
    out: List[Event] = []
    for ev in trace:
        if ev.is_access:
            target = v_map(ev.target)
        elif ev.op in (Op.ACQUIRE, Op.RELEASE, Op.REQUEST):
            target = l_map(ev.target)
        else:  # fork/join target a thread
            target = t_map(ev.target)
        out.append(Event(0, t_map(ev.thread), ev.op, target, ev.loc))
    return _rebuild(out, f"{trace.name}|renamed")


def filter_threads(trace: Trace, keep: Set[str]) -> Trace:
    """Project onto the given threads (fork/join of dropped threads
    are removed as well)."""
    out = [
        ev
        for ev in trace
        if ev.thread in keep
        and not ((ev.is_fork or ev.is_join) and ev.target not in keep)
    ]
    return _rebuild(out, f"{trace.name}|threads")


def filter_variables(trace: Trace, drop: Set[str]) -> Trace:
    """Drop access events of the given variables."""
    out = [ev for ev in trace if not (ev.is_access and ev.target in drop)]
    return _rebuild(out, f"{trace.name}|vars")


def concat(traces: List[Trace], name: str = "concat") -> Trace:
    """Sequential composition (each input must be lock-balanced)."""
    out: List[Event] = []
    for t in traces:
        out.extend(t)
    return _rebuild(out, name)


def truncate_well_formed(trace: Trace, n: int) -> Trace:
    """First ``n`` events, plus closing releases for open criticals.

    The result is a well-formed prefix usable by every analysis (a
    monitoring session killed mid-run produces exactly this shape
    after cleanup).
    """
    prefix = list(trace.events[:n])
    held: Dict[str, List[str]] = {}
    for ev in prefix:
        if ev.is_acquire:
            held.setdefault(ev.thread, []).append(ev.target)
        elif ev.is_release:
            stack = held.get(ev.thread, [])
            if ev.target in stack:
                stack.remove(ev.target)
    out = list(prefix)
    for thread, locks in held.items():
        for lock in reversed(locks):
            out.append(Event(0, thread, Op.RELEASE, lock, None))
    return _rebuild(out, f"{trace.name}|trunc{n}")
