"""Cooperative execution of DSL programs under controllable schedulers.

Execution proceeds in steps: the scheduler picks a runnable thread,
that thread executes its next statement, and a trace event is emitted.
A thread blocks on acquiring a held lock; when every unfinished thread
is blocked, the run has hit an *actual* deadlock — the execution halts
and reports the cycle, mirroring how an instrumented JVM run dies.

Two schedulers:

- :class:`RandomScheduler` — uniformly random among runnable threads.
- :class:`BiasedScheduler` — the paper's simple bias (Section 6.2):
  when a thread is about to write a shared variable while holding a
  lock, randomly pause it for a few steps, shaking out racy orders;
  optionally also pause at chosen acquire locations (the
  DeadlockFuzzer confirmation strategy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.runtime.program import (
    Acquire,
    Branch,
    Program,
    Release,
    VarRead,
    VarWrite,
)
from repro.trace.events import Event, Op
from repro.trace.trace import Trace


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    trace: Trace
    deadlocked: bool
    deadlock_cycle: Tuple[str, ...] = ()
    deadlock_locations: Tuple[str, ...] = ()
    steps: int = 0

    @property
    def deadlock_bug_id(self) -> Tuple[str, ...]:
        return tuple(sorted(self.deadlock_locations))


class RandomScheduler:
    """Uniform random choice among runnable threads."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def pick(self, runnable: List[str], state: "_ExecState") -> str:
        return self.rng.choice(runnable)


class BiasedScheduler(RandomScheduler):
    """Random scheduling with write-under-lock pausing.

    Args:
        seed: PRNG seed.
        pause_prob: chance to pause a thread at a write-while-holding-
            a-lock site.
        pause_steps: how many scheduling rounds the pause lasts.
        pause_acquires: acquire source locations to pause *before*
            executing (DeadlockFuzzer's confirmation bias).
    """

    def __init__(
        self,
        seed: int = 0,
        pause_prob: float = 0.3,
        pause_steps: int = 4,
        pause_acquires: Optional[Set[str]] = None,
    ) -> None:
        super().__init__(seed)
        self.pause_prob = pause_prob
        self.pause_steps = pause_steps
        self.pause_acquires = pause_acquires or set()
        self._paused: Dict[str, int] = {}

    def pick(self, runnable: List[str], state: "_ExecState") -> str:
        # Decay running pauses.
        for t in list(self._paused):
            self._paused[t] -= 1
            if self._paused[t] <= 0:
                del self._paused[t]
        eligible = [t for t in runnable if t not in self._paused]
        if not eligible:
            eligible = runnable
        choice = self.rng.choice(eligible)
        nxt = state.peek(choice)
        if nxt is not None:
            is_locked_write = (
                isinstance(nxt, VarWrite) and state.held[choice]
            )
            is_target_acquire = (
                isinstance(nxt, Acquire)
                and nxt.loc is not None
                and nxt.loc in self.pause_acquires
            )
            if (is_locked_write or is_target_acquire) and (
                self.rng.random() < self.pause_prob
            ):
                others = [t for t in eligible if t != choice]
                if others:
                    self._paused[choice] = self.pause_steps
                    return self.rng.choice(others)
        return choice


class _ExecState:
    """Mutable machine state shared with schedulers."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.memory: Dict[str, Any] = dict(program.initial_memory)
        # Per-thread statement stack (supports Branch inlining).
        self.frames: Dict[str, List] = {
            tp.name: list(reversed(tp.body)) for tp in program.threads
        }
        self.held: Dict[str, List[str]] = {tp.name: [] for tp in program.threads}
        self.owner: Dict[str, str] = {}
        self.waiting_for: Dict[str, str] = {}

    def peek(self, thread: str):
        frame = self.frames[thread]
        return frame[-1] if frame else None

    def finished(self, thread: str) -> bool:
        return not self.frames[thread]

    def runnable_threads(self) -> List[str]:
        out = []
        for t, frame in self.frames.items():
            if not frame:
                continue
            nxt = frame[-1]
            if isinstance(nxt, Acquire) and self.owner.get(nxt.lock, t) != t:
                self.waiting_for[t] = nxt.lock
                continue
            self.waiting_for.pop(t, None)
            out.append(t)
        return out

    def deadlock_cycle(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Threads blocked in a cyclic wait, with the blocking locations."""
        cycle: List[str] = []
        locs: List[str] = []
        seen: Set[str] = set()
        # Find a cycle in the waits-for graph.
        for start in self.waiting_for:
            chain: List[str] = []
            t = start
            while t in self.waiting_for and t not in seen:
                seen.add(t)
                chain.append(t)
                lock = self.waiting_for[t]
                t = self.owner.get(lock, "")
                if t in chain:
                    k = chain.index(t)
                    cycle = chain[k:]
                    for ct in cycle:
                        stmt = self.peek(ct)
                        locs.append(getattr(stmt, "loc", None) or "?")
                    return tuple(cycle), tuple(locs)
        return (), ()


def run_program(
    program: Program,
    scheduler: Optional[RandomScheduler] = None,
    max_steps: int = 100_000,
    event_sink=None,
) -> ExecutionResult:
    """Execute ``program`` to completion, deadlock, or step budget.

    ``event_sink(event)`` — when given — receives each event as it is
    emitted (the hook the online monitor attaches to).
    """
    scheduler = scheduler or RandomScheduler()
    state = _ExecState(program)
    events: List[Event] = []
    steps = 0

    def emit(thread: str, op: str, target: str, loc: Optional[str]) -> None:
        ev = Event(len(events), thread, op, target, loc)
        events.append(ev)
        if event_sink is not None:
            event_sink(ev)

    while steps < max_steps:
        runnable = state.runnable_threads()
        if not runnable:
            unfinished = [t for t, fr in state.frames.items() if fr]
            if not unfinished:
                break  # normal termination
            cycle, locs = state.deadlock_cycle()
            # Emit the blocked requests so the trace records the stall.
            for t in cycle:
                stmt = state.peek(t)
                if isinstance(stmt, Acquire):
                    emit(t, Op.REQUEST, stmt.lock, stmt.loc)
            return ExecutionResult(
                trace=Trace(events, name=program.name),
                deadlocked=True,
                deadlock_cycle=cycle,
                deadlock_locations=locs,
                steps=steps,
            )
        t = scheduler.pick(sorted(runnable), state)
        stmt = state.frames[t].pop()
        steps += 1
        if isinstance(stmt, Acquire):
            if stmt.lock in state.owner:
                raise RuntimeError(
                    f"{program.name}: thread {t} re-acquires {stmt.lock} "
                    "(the model has non-reentrant locks)"
                )
            state.owner[stmt.lock] = t
            state.held[t].append(stmt.lock)
            emit(t, Op.ACQUIRE, stmt.lock, stmt.loc)
        elif isinstance(stmt, Release):
            if state.owner.get(stmt.lock) != t:
                raise RuntimeError(
                    f"{program.name}: thread {t} releases unheld lock {stmt.lock}"
                )
            del state.owner[stmt.lock]
            state.held[t].remove(stmt.lock)
            emit(t, Op.RELEASE, stmt.lock, stmt.loc)
        elif isinstance(stmt, VarWrite):
            state.memory[stmt.var] = stmt.value
            emit(t, Op.WRITE, stmt.var, stmt.loc)
        elif isinstance(stmt, VarRead):
            emit(t, Op.READ, stmt.var, stmt.loc)
        elif isinstance(stmt, Branch):
            emit(t, Op.READ, stmt.var, stmt.loc)
            taken = stmt.then if state.memory.get(stmt.var) == stmt.equals else stmt.orelse
            state.frames[t].extend(reversed(taken))
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {stmt!r}")

    return ExecutionResult(
        trace=Trace(events, name=program.name),
        deadlocked=False,
        steps=steps,
    )
