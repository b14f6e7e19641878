"""Dirk-style deadlock prediction [Kalhauge & Palsberg 2018] — stand-in.

Dirk encodes deadlock realizability into SMT constraints and solves
windows of the trace independently (window size 10K in the paper's
setup).  There is no SMT solver offline, so this stand-in replaces the
solver with an exhaustive interleaving search per window — observably
equivalent on window-sized subproblems, with the same characteristic
behaviors the evaluation depends on:

- **Windowing**: deadlock patterns spanning two windows are missed.
- **Timeouts**: a wall-clock budget per trace; exceeding it marks the
  run as timed out with partial results (Table 1's T.O entries).
- **Value relaxation** (``relax_values=True``): Dirk models conditional
  control flow and lets reads change writers, so it finds deadlocks
  beyond correct reorderings (Transfer, Deadlock, HashMap in Table 1).
  Dirk reads the program's conditionals, which traces do not record;
  we approximate with a location convention — reads whose ``loc``
  starts with ``ctrl:`` are treated as control-flow-relevant and keep
  their writers even under relaxation.  Dirk's own modelling of such
  reads is imprecise (volatile handshakes slip through), which is one
  of its two Appendix D unsoundness modes (FalseDeadlock2) — untagged
  gating reads reproduce exactly that.
- **Missing lock-set condition** (``faithful_unsound=True``): Dirk's
  constraint formulation omits the requirement that deadlocking events
  hold no common lock, and with it the mutual-exclusion constraints
  that guard the cycle; FalseDeadlock1 (Appendix D) is falsely
  reported.  Modelled here by dropping lock-exclusion constraints from
  the witness search and the disjointness check from the pattern scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.patterns import DeadlockPattern, DeadlockReport
from repro.stream.windowed import window_slice
from repro.trace.events import (
    OP_ACQUIRE,
    OP_JOIN,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
)
from repro.trace.trace import Trace, as_trace


@dataclass
class DirkResult:
    reports: List[DeadlockReport] = field(default_factory=list)
    windows: int = 0
    timed_out: bool = False
    elapsed: float = 0.0

    @property
    def num_deadlocks(self) -> int:
        return len(self.reports)


def dirk(
    trace: Trace,
    window: int = 10_000,
    timeout: Optional[float] = None,
    relax_values: bool = True,
    faithful_unsound: bool = False,
    search_budget: int = 300_000,
) -> DirkResult:
    """Run the Dirk stand-in over ``trace``.

    Args:
        trace: input trace.
        window: window size in events (paper setting: 10K).
        timeout: wall-clock seconds before giving up (Table 1: 3h).
        relax_values: value-relaxed witnesses (reads may change writers).
        faithful_unsound: also reproduce the missing common-lock-set
            condition (Appendix D, FalseDeadlock1).
        search_budget: per-pattern state budget of the witness search.
    """
    trace = as_trace(trace)
    start = time.perf_counter()
    result = DirkResult()
    seen: Set[Tuple[int, ...]] = set()
    for lo in range(0, len(trace), window):
        if timeout is not None and time.perf_counter() - start > timeout:
            result.timed_out = True
            break
        result.windows += 1
        hi = min(lo + window, len(trace))
        sub, back = window_slice(trace.compiled, trace.index.match, lo, hi)
        deadline = None if timeout is None else start + timeout
        for pattern in _window_patterns(sub, faithful_unsound):
            if timeout is not None and time.perf_counter() - start > timeout:
                result.timed_out = True
                break
            if _quick_refute(sub, pattern, check_rf=not relax_values):
                continue  # program order + tracked reads already forbid it
            ok = _witness_search(
                sub,
                pattern,
                check_rf=not relax_values,
                check_locks=not faithful_unsound,
                budget=search_budget,
                deadline=deadline,
            )
            if ok:
                original = tuple(sorted(back[e] for e in pattern))
                if original not in seen:
                    seen.add(original)
                    result.reports.append(
                        DeadlockReport.from_pattern(trace, DeadlockPattern(original))
                    )
        if result.timed_out:
            break
    result.elapsed = time.perf_counter() - start
    return result


def _window_patterns(sub: Trace, faithful_unsound: bool) -> List[Tuple[int, ...]]:
    """Candidate patterns within a window, any size (Dirk's SMT encoding
    is not size-limited — it finds DiningPhil's size-5 deadlock).

    With ``faithful_unsound`` the disjoint-held-sets condition is
    dropped from size-2 pairs (the encoding omission); the
    cyclic-acquisition conditions remain.
    """
    from repro.baselines.goodlock import goodlock

    out: List[Tuple[int, ...]] = [
        tuple(w.events) for w in goodlock(sub, max_size=6, max_cycles=5_000).warnings
    ]
    if faithful_unsound:
        index = sub.index
        ops, tids, targs = sub.compiled.columns()
        held_id = index.held_id
        held_lengths = index.held_lengths
        held_frozen = index.held_frozen
        seen = {frozenset(p) for p in out}
        acquires = [
            i for i in range(len(ops))
            if ops[i] == OP_ACQUIRE and held_lengths[held_id[i]]
        ]
        for i, a in enumerate(acquires):
            held_a = held_frozen(a)
            for b in acquires[i + 1:]:
                if tids[a] == tids[b] or targs[a] == targs[b]:
                    continue
                if targs[a] not in held_frozen(b) or targs[b] not in held_a:
                    continue
                if frozenset((a, b)) not in seen:
                    seen.add(frozenset((a, b)))
                    out.append((a, b))
    return out


def _quick_refute(trace: Trace, pattern: Tuple[int, ...], check_rf: bool) -> bool:
    """Cheap necessary-condition check before the expensive search.

    Computes the downward closure of the pattern's thread predecessors
    under program order plus the reads-from edges the encoding tracks
    (all reads when ``check_rf``, only ``ctrl:``-tagged reads under
    relaxation) and fork/join.  If the closure reaches a pattern event
    or its thread-order successor region, no witness can exist and the
    interleaving search is skipped.
    """
    index = trace.index
    ops, tids, targs = trace.compiled.columns()
    locs = trace.compiled.locs
    rf = index.rf
    thread_pos = index.thread_pos
    thread_pred = index.thread_pred
    fork_of = index.fork_of

    stall: Dict[int, int] = {}
    for e in pattern:
        t = tids[e]
        if t in stall:
            return True
        stall[t] = thread_pos[e]

    work = [p for p in (thread_pred[e] for e in pattern) if p >= 0]
    seen: Set[int] = set(work)
    while work:
        idx = work.pop()
        t = tids[idx]
        pos = thread_pos[idx]
        if t in stall and pos >= stall[t]:
            return True  # closure swallows a stall point
        preds = [thread_pred[idx] if thread_pred[idx] >= 0 else None]
        op = ops[idx]
        if pos == 0:
            preds.append(fork_of.get(t))
        if op == OP_READ:
            loc = locs.get(idx)
            if check_rf or (loc is not None and loc.startswith("ctrl:")):
                w = rf[idx]
                preds.append(w if w >= 0 else None)
        elif op == OP_JOIN:
            child = index.events_by_thread[targs[idx]]
            if child:
                preds.append(child[-1])
        for p in preds:
            if p is not None and p not in seen:
                seen.add(p)
                work.append(p)
    return False


def _witness_search(
    trace: Trace,
    pattern: Tuple[int, int],
    check_rf: bool,
    check_locks: bool,
    budget: int,
    deadline: Optional[float] = None,
) -> bool:
    """Bounded interleaving search standing in for the SMT query.

    Decides whether both pattern events can be simultaneously enabled
    under program order, fork/join causality, and — depending on the
    flags — reads-from preservation and lock mutual exclusion.
    """
    index = trace.index
    ops, tids, targs = trace.compiled.columns()
    locs = trace.compiled.locs
    rf = index.rf
    thread_pos = index.thread_pos
    threads = list(index.thread_order)              # tids, appearance order
    slot_of = {t: i for i, t in enumerate(threads)}
    per_thread = [index.events_by_thread[t] for t in threads]
    fork_of = index.fork_of

    target: Dict[int, int] = {}
    for e in pattern:
        slot = slot_of[tids[e]]
        if slot in target:
            return False
        target[slot] = thread_pos[e]

    n = len(threads)
    positions = [0] * n
    owner: Dict[int, int] = {}                      # lock id -> slot
    last_write: Dict[int, Optional[int]] = {}       # var id -> event
    visited: Set[Tuple] = set()
    states = 0

    def _is_ctrl_read(idx: int) -> bool:
        loc = locs.get(idx)
        return loc is not None and loc.startswith("ctrl:")

    # Writers must be tracked whenever any read's value can constrain
    # the schedule — always under check_rf, and for ctrl: reads even
    # under relaxation.  Locations are sparse, so scan the loc map, not
    # the trace.
    track_rf = check_rf or any(
        ops[idx] == OP_READ and loc.startswith("ctrl:")
        for idx, loc in locs.items()
    )

    def goal() -> bool:
        return all(positions[s] == p for s, p in target.items())

    def try_apply(s: int):
        """Apply thread s's next event; return undo info or None."""
        pos = positions[s]
        if pos >= len(per_thread[s]):
            return None
        if s in target and pos >= target[s]:
            return None
        idx = per_thread[s][pos]
        op = ops[idx]
        tgt = targs[idx]
        if pos == 0:
            f = fork_of.get(tids[idx])
            if f is not None:
                if positions[slot_of[tids[f]]] <= thread_pos[f]:
                    return None
        if check_locks and op == OP_ACQUIRE and tgt in owner:
            return None
        if check_locks and op == OP_RELEASE and owner.get(tgt) != s:
            return None
        if op == OP_READ and (check_rf or _is_ctrl_read(idx)):
            if last_write.get(tgt) != (rf[idx] if rf[idx] >= 0 else None):
                return None
        if op == OP_JOIN:
            cslot = slot_of.get(tgt)
            if cslot is not None and positions[cslot] < len(per_thread[cslot]):
                return None
        positions[s] += 1
        saved = ("none", None)
        if check_locks and op == OP_ACQUIRE:
            owner[tgt] = s
            saved = ("acq", tgt)
        elif check_locks and op == OP_RELEASE:
            del owner[tgt]
            saved = ("rel", tgt)
        elif track_rf and op == OP_WRITE:
            saved = ("write", (tgt, last_write.get(tgt, "absent")))
            last_write[tgt] = idx
        return (s, saved)

    def undo(applied) -> None:
        s, (kind, data) = applied
        positions[s] -= 1
        if kind == "acq":
            del owner[data]
        elif kind == "rel":
            owner[data] = s
        elif kind == "write":
            var, old = data
            if old == "absent":
                last_write.pop(var, None)
            else:
                last_write[var] = old

    # Explicit DFS stack: each frame is (choice_iter, applied_or_None).
    if goal():
        return True
    stack = [[iter(range(n)), None]]
    visited.add(
        (tuple(positions), tuple(sorted(last_write.items())) if track_rf else ())
    )
    while stack:
        frame = stack[-1]
        advanced = False
        for s in frame[0]:
            applied = try_apply(s)
            if applied is None:
                continue
            if goal():
                return True
            key = (
                tuple(positions),
                tuple(sorted(last_write.items())) if track_rf else (),
            )
            if key in visited:
                undo(applied)
                continue
            visited.add(key)
            states += 1
            if states > budget:
                return False  # solver "unknown": report nothing
            if (
                deadline is not None
                and states % 1024 == 0
                and time.perf_counter() > deadline
            ):
                return False
            stack.append([iter(range(n)), applied])
            advanced = True
            break
        if not advanced:
            _, applied = stack.pop()
            if applied is not None:
                undo(applied)
    return False
