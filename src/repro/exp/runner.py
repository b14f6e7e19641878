"""Campaign execution: a serial runner and a process-pool runner.

Both runners share cell semantics — load the trace, run the detector
adapter ``repeats`` times, normalize into a :class:`CellResult` — and
differ only in *where* the cell runs:

- :class:`InlineRunner` executes cells in-process (debuggable with a
  plain ``pdb``/profiler; timeouts enforced via ``SIGALRM`` when
  running on the main thread of a Unix process, best-effort otherwise);
- :class:`ProcessPoolRunner` fans cells across ``jobs`` workers per
  run, replaced after a crash or timeout.  Each worker runs one cell
  at a time, sent over its own pipe, so a segfaulting or OOM-killed
  detector records ``status="error"`` for its cell alone and never
  takes down the campaign, and a wall-clock ``timeout`` is enforced
  by killing the worker (``status="timeout"``).  Before each cell a
  worker resets its :mod:`repro.faults` fire counts and re-arms
  :mod:`repro.obs`, so both stay per cell attempt.  Importing this
  module imports the detector registry, and with it every module a
  detector runs (no detector imports numpy), so a forked worker
  inherits them and no cell pays for an import.  The scheduler sleeps
  until a worker replies or exits, a deadline or retry backoff
  expires, or a signal lands — no polling.

Either way a cell's clock starts after its detector's modules are
imported: one-time imports never count as detector time.

Workers hand results back through per-cell JSON files written
atomically into a private temp directory — no pipe buffering limits
(the pipe carries only the task and a short reply), and a worker that
dies mid-cell simply leaves no file, which the parent records as the
crash it was.  Worker stderr is captured per attempt, so crash
diagnostics include the tool's last words.  Results always come back
in campaign cell order regardless of completion order, so parallel
and serial runs are cell-for-cell comparable (modulo timing fields,
which :meth:`CellResult.comparable` strips).

Fault tolerance (:mod:`repro.exp.resilience`) is threaded through both
runners identically:

- failed attempts retry with deterministic backoff per the cell's
  :class:`~repro.exp.resilience.RetryPolicy`; cells that exhaust their
  retries are **quarantined** (``status="quarantined"``) with the full
  attempt timeline, not silently dropped and not fatal;
- every attempt and every final outcome is appended to the run's
  crash-safe journal, and ``resume`` replays journaled outcomes so an
  interrupted run re-executes only the remainder;
- SIGINT/SIGTERM *drain*: in-flight cells finish and are journaled,
  idle workers are told to exit, unstarted cells are skipped, and the
  partial, loadable :class:`RunResult` comes back with
  ``interrupted=True``.  A second signal force-aborts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import repro.faults as faults
import repro.obs as obs
from repro.exp.cache import ResultCache, cell_key
from repro.exp.campaign import Campaign, DetectorSpec, TraceSource
from repro.exp.detectors import get_adapter
from repro.exp.resilience import (
    NO_RETRY,
    JournalState,
    RetryPolicy,
    RunJournal,
    journal_key,
)

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_FAULT = "fault"                   # injected fault (repro.faults)
STATUS_QUARANTINED = "quarantined"       # retries exhausted

#: statuses worth caching (errors/faults/quarantines always re-run).
_CACHEABLE = (STATUS_OK, STATUS_TIMEOUT)

#: how much captured worker stderr survives into diagnostics.
_STDERR_TAIL_BYTES = 2048

#: how long a pool worker told to exit may take before it is killed
#: (an idle worker exits at once; this only bounds a wedged one).
_EXIT_GRACE_S = 5.0


@dataclass
class CellTask:
    """One (trace, detector) cell, fully resolved and picklable."""

    index: int
    trace: TraceSource
    trace_digest: str
    detector: DetectorSpec
    timeout: Optional[float]
    repeats: int
    retry: Optional[RetryPolicy] = None
    attempt: int = 1                     # 1-based; not part of the key

    def key(self) -> str:
        return cell_key(self.trace_digest, self.detector.name,
                        self.detector.config, self.timeout, self.repeats)

    @property
    def policy(self) -> RetryPolicy:
        return self.retry if self.retry is not None else NO_RETRY


@dataclass
class CellResult:
    """Outcome of one cell.

    ``status`` is about the *runner*: ``ok`` means the adapter returned
    (even if the tool reported its own failure as data, e.g. SeqCheck's
    ``F``), ``timeout`` means the wall-clock budget expired, ``error``
    means the cell crashed (exception, signal, or dead worker),
    ``fault`` means an injected fault fired (:mod:`repro.faults`), and
    ``quarantined`` means the cell kept failing until its retry budget
    ran out — ``attempts`` then carries the full timeline.
    """

    index: int
    trace_name: str
    trace_digest: str
    detector_name: str
    detector_id: str
    config: Dict
    status: str
    output: Optional[Dict] = None
    error: Optional[str] = None
    num_events: Optional[int] = None
    times: List[float] = field(default_factory=list)
    cpu_times: List[float] = field(default_factory=list)
    cached: bool = False
    replayed: bool = False               # served from the run journal
    attempts: List[dict] = field(default_factory=list)
    timeout_enforced: bool = True
    #: per-cell telemetry rollup (wall/cpu/RSS, counter deltas, spans)
    #: when :mod:`repro.obs` was enabled where the cell ran; rides the
    #: result channel so pool and inline runs report identically.
    obs: Optional[dict] = None

    @property
    def elapsed(self) -> Optional[float]:
        """Best (minimum) per-repetition wall-clock seconds."""
        return min(self.times) if self.times else None

    @property
    def cpu_elapsed(self) -> Optional[float]:
        """Best (minimum) per-repetition CPU seconds (process time of
        wherever the cell ran — its worker, or the inline process)."""
        return min(self.cpu_times) if self.cpu_times else None

    def comparable(self) -> dict:
        """Everything except timing/caching — the determinism contract
        between :class:`InlineRunner` and :class:`ProcessPoolRunner`
        (``error`` text is process-specific, so only the status and the
        output participate)."""
        return {
            "trace": self.trace_name,
            "trace_digest": self.trace_digest,
            "detector": self.detector_id,
            "config": self.config,
            "status": self.status,
            "output": self.output,
            "num_events": self.num_events,
        }

    def to_json(self) -> dict:
        out = dict(self.comparable())
        out["detector_name"] = self.detector_name
        out["error"] = self.error
        out["times"] = [round(t, 6) for t in self.times]
        out["elapsed"] = round(self.elapsed, 6) if self.times else None
        if self.cpu_times:
            out["cpu_times"] = [round(t, 6) for t in self.cpu_times]
            out["cpu_elapsed"] = round(self.cpu_elapsed, 6)
        if self.obs is not None:
            out["obs"] = self.obs
        out["cached"] = self.cached
        if self.replayed:
            out["replayed"] = True
        if self.attempts:
            out["attempts"] = self.attempts
        if not self.timeout_enforced:
            out["timeout_enforced"] = False
        return out

    @classmethod
    def from_json(cls, index: int, rec: dict, cached: bool = False,
                  replayed: bool = False) -> "CellResult":
        return cls(
            index=index,
            trace_name=rec["trace"],
            trace_digest=rec["trace_digest"],
            detector_name=rec.get("detector_name", rec["detector"]),
            detector_id=rec["detector"],
            config=rec.get("config", {}),
            status=rec["status"],
            output=rec.get("output"),
            error=rec.get("error"),
            num_events=rec.get("num_events"),
            times=list(rec.get("times", [])),
            cpu_times=list(rec.get("cpu_times", [])),
            obs=rec.get("obs"),
            cached=cached,
            replayed=replayed,
            attempts=list(rec.get("attempts", [])),
            timeout_enforced=rec.get("timeout_enforced", True),
        )


@dataclass
class RunResult:
    """One campaign execution: ordered cell results + bookkeeping.

    ``interrupted`` runs carry only the cells that finished (or were
    replayed) before the drain — still a loadable, reportable result;
    resume picks up the rest from the journal.
    """

    campaign: Campaign
    results: List[CellResult] = field(default_factory=list)
    elapsed: float = 0.0
    cache_hits: int = 0
    journal_replays: int = 0
    #: journal replays whose record was missing from the result cache
    #: and got written back — a resumed run against a cold cache
    #: leaves it warm, not holey.
    cache_backfills: int = 0
    interrupted: bool = False

    @property
    def num_cells(self) -> int:
        return len(self.results)

    def counts(self) -> Dict[str, int]:
        out = {STATUS_OK: 0, STATUS_TIMEOUT: 0, STATUS_ERROR: 0,
               STATUS_FAULT: 0, STATUS_QUARANTINED: 0}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.num_cells if self.results else 0.0

    def cell(self, trace_name: str, detector_id: str) -> Optional[CellResult]:
        for r in self.results:
            if r.trace_name == trace_name and r.detector_id == detector_id:
                return r
        return None


class _CellTimeout(Exception):
    pass


class _DrainInterrupt(BaseException):
    """SIGINT/SIGTERM during a run: drain, journal, finalize.

    Derives from ``BaseException`` so a cell's blanket ``except
    Exception`` cannot swallow the shutdown request.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def run_cell(task: CellTask) -> CellResult:
    """Execute one cell in the current process (no timeout handling).

    Telemetry activates from the environment (pool workers inherit
    ``REPRO_OBS``); when active, the cell's spans plus counter/cpu/RSS
    deltas come back as the result's ``obs`` rollup — through the same
    per-cell channel as everything else, so crash isolation holds.
    """
    base = dict(
        index=task.index,
        trace_name=task.trace.name,
        trace_digest=task.trace_digest,
        detector_name=task.detector.name,
        detector_id=task.detector.id,
        config=task.detector.config,
    )
    obs.maybe_enable_from_env()
    scope = obs.cell_scope(index=task.index, trace=task.trace.name,
                           detector=task.detector.id, attempt=task.attempt)
    with scope:
        res = _run_cell_inner(task, base)
    if scope.rollup is not None:
        res.obs = scope.rollup
    return res


def _run_cell_inner(task: CellTask, base: dict) -> CellResult:
    try:
        faults.fire("cell", index=task.index, attempt=task.attempt,
                    detector=task.detector.id, trace=task.trace.name)
        adapter = get_adapter(task.detector.name)
        with obs.span("trace.source", cat="exp", trace=task.trace.name):
            trace = task.trace.load()
        num_events = len(trace)
        times: List[float] = []
        cpu_times: List[float] = []
        output: Optional[dict] = None
        for _ in range(max(1, task.repeats)):
            c0 = time.process_time()
            t0 = time.perf_counter()
            output = adapter(trace, task.detector.config)
            times.append(time.perf_counter() - t0)
            cpu_times.append(time.process_time() - c0)
        return CellResult(status=STATUS_OK, output=output,
                          num_events=num_events, times=times,
                          cpu_times=cpu_times, **base)
    except _CellTimeout:
        return CellResult(status=STATUS_TIMEOUT,
                          error=f"timed out after {task.timeout}s", **base)
    except faults.InjectedFault as exc:
        return CellResult(status=STATUS_FAULT, error=str(exc), **base)
    except Exception:
        return CellResult(status=STATUS_ERROR,
                          error=traceback.format_exc(limit=20), **base)


def _timeout_result(task: CellTask) -> CellResult:
    return CellResult(
        index=task.index,
        trace_name=task.trace.name,
        trace_digest=task.trace_digest,
        detector_name=task.detector.name,
        detector_id=task.detector.id,
        config=task.detector.config,
        status=STATUS_TIMEOUT,
        error=f"timed out after {task.timeout}s",
    )


def _crash_result(task: CellTask, exitcode: Optional[int],
                  stderr_tail: str = "") -> CellResult:
    detail = f"worker died with exit code {exitcode} before reporting a result"
    if stderr_tail:
        detail += f"; stderr tail:\n{stderr_tail}"
    return CellResult(
        index=task.index,
        trace_name=task.trace.name,
        trace_digest=task.trace_digest,
        detector_name=task.detector.name,
        detector_id=task.detector.id,
        config=task.detector.config,
        status=STATUS_ERROR,
        error=detail,
    )


def _attempt_record(task: CellTask, res: CellResult,
                    stderr_tail: str = "") -> dict:
    """One entry of a cell's attempt timeline (quarantine diagnostics)."""
    rec = {
        "attempt": task.attempt,
        "status": res.status,
        "elapsed": round(res.elapsed, 6) if res.times else None,
    }
    if res.error:
        rec["error"] = res.error[-500:]
    if stderr_tail:
        rec["stderr_tail"] = stderr_tail
    return rec


def _quarantined(res: CellResult, timeline: List[dict]) -> CellResult:
    """The terminal record of a cell that exhausted its retries."""
    last = res.error or res.status
    return replace(
        res,
        status=STATUS_QUARANTINED,
        output=None,
        error=(f"quarantined after {len(timeline)} failed attempt(s); "
               f"last failure ({res.status}): {last}"),
        attempts=list(timeline),
    )


def _restamp(res: CellResult, task: CellTask) -> CellResult:
    # The key hashes content (digest/config), not display identity —
    # restamp the current task's names so a renamed trace or re-id'd
    # detector never resurrects the labels it was first cached under.
    res.trace_name = task.trace.name
    res.detector_name = task.detector.name
    res.detector_id = task.detector.id
    return res


def _stderr_tail(path: Optional[str]) -> str:
    if not path:
        return ""
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - _STDERR_TAIL_BYTES))
            return fh.read().decode("utf-8", errors="replace").strip()
    except OSError:
        return ""


class _BaseRunner:
    """Shared cache/journal-aware orchestration; subclasses run the
    misses through :meth:`_execute`."""

    def run(self, campaign: Campaign, cache: Optional[ResultCache] = None,
            progress: Optional[Callable[[CellResult], None]] = None,
            journal: Optional[RunJournal] = None,
            resume: Optional[JournalState] = None) -> RunResult:
        """Run every cell of ``campaign``; results come back in cell
        order.

        Resolution order per cell: journal replay (``resume``) beats
        cache hit beats execution.  Fresh attempts retry/backoff per
        the task's policy; every attempt and final outcome is appended
        to ``journal``.  On SIGINT/SIGTERM the in-flight cells drain
        and the result holds only completed cells (``interrupted``
        set).
        """
        start = time.perf_counter()
        tasks = campaign.cells()
        results: Dict[int, CellResult] = {}
        out = RunResult(campaign=campaign)
        misses: List[CellTask] = []
        keys: Dict[int, str] = {}
        jkeys: Dict[int, str] = {}
        timelines: Dict[int, List[dict]] = {}
        for task in tasks:
            jkey = jkeys[task.index] = journal_key(task)
            if resume is not None:
                rec = resume.replayable(jkey)
                if rec is not None:
                    hit = CellResult.from_json(task.index, rec, replayed=True)
                    results[task.index] = _restamp(hit, task)
                    out.journal_replays += 1
                    if cache is not None and hit.status in _CACHEABLE:
                        # Backfill: a replayed cell never reaches the
                        # fresh-execution cache.put below, so resuming
                        # against a cold cache would leave its record
                        # permanently missing.
                        key = keys[task.index] = task.key()
                        if cache.get(key) is None:
                            clean = replace(hit, cached=False,
                                            replayed=False).to_json()
                            cache.put(key, clean)
                            out.cache_backfills += 1
                            obs.count("cache.backfills")
                    if journal is not None and resume.path != journal.path:
                        journal.record_cell(jkey, hit.to_json())
                    if progress is not None:
                        progress(hit)
                    continue
            key = keys[task.index] = task.key()
            rec = cache.get(key) if cache is not None else None
            if rec is not None:
                hit = CellResult.from_json(task.index, rec, cached=True)
                results[task.index] = _restamp(hit, task)
                out.cache_hits += 1
                if journal is not None:
                    journal.record_cell(jkey, hit.to_json())
                if progress is not None:
                    progress(hit)
            else:
                misses.append(task)

        def on_result(task: CellTask, res: CellResult, stderr_tail: str = "",
                      stop: bool = False):
            """Journal one attempt; returns ``(final, retry)`` where
            exactly one is set: ``final`` is the finished cell, and
            ``retry`` is ``(backoff delay, next-attempt task)``."""
            policy = task.policy
            timeline = timelines.setdefault(task.index, [])
            timeline.append(_attempt_record(task, res, stderr_tail))
            if journal is not None:
                journal.record_attempt(jkeys[task.index], task.attempt,
                                       res.status, res.error)
            if not stop and policy.should_retry(res.status, task.attempt):
                delay = policy.delay_for(jkeys[task.index], task.attempt)
                return None, (delay, replace(task, attempt=task.attempt + 1))
            if policy.exhausted(res.status, task.attempt):
                res = _quarantined(res, timeline)
            elif len(timeline) > 1:
                res.attempts = list(timeline)
            results[task.index] = res
            if cache is not None and res.status in _CACHEABLE:
                cache.put(keys[task.index], res.to_json())
            if journal is not None:
                journal.record_cell(jkeys[task.index], res.to_json())
            if progress is not None:
                progress(res)
            return res, None

        out.interrupted = self._execute(misses, on_result)
        out.results = [results[t.index] for t in tasks if t.index in results]
        out.elapsed = time.perf_counter() - start
        return out

    def _execute(self, tasks: List[CellTask], on_result) -> bool:
        """Run ``tasks``, reporting each attempt through ``on_result``
        and scheduling the retries it returns; returns True when the
        run was interrupted (drained early)."""
        raise NotImplementedError


def _can_trap_signals() -> bool:
    return threading.current_thread() is threading.main_thread()


class InlineRunner(_BaseRunner):
    """Serial in-process execution with identical result semantics.

    Timeouts use ``SIGALRM`` and therefore require the main thread of a
    Unix process; anywhere else a one-time warning is emitted, the cell
    simply runs to completion, and the result records
    ``timeout_enforced: false`` so reports can flag it.  A cell without
    a timeout arms no alarm.
    """

    #: process-wide: the unenforced-timeout warning fires once, not per cell.
    _warned_unenforced = False

    def _run_one(self, task: CellTask) -> CellResult:
        # non-positive timeouts mean "no timeout" in BOTH runners
        # (campaign validation rejects them; this guards hand-built
        # CellTasks, where setitimer(0) would silently disarm here
        # while the pool runner would kill the worker immediately)
        wants_timeout = task.timeout is not None and task.timeout > 0
        if wants_timeout and hasattr(signal, "SIGALRM") and _can_trap_signals():
            def _on_alarm(signum, frame):
                raise _CellTimeout()

            old = signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, task.timeout)
            # The outer except catches an alarm that fires outside
            # run_cell's own handler — after it returned but before
            # the timer is disarmed, or while it was building an
            # error result.  The budget elapsed either way, so
            # "timeout" is the honest verdict.
            try:
                try:
                    res = run_cell(task)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                    signal.signal(signal.SIGALRM, old)
            except _CellTimeout:
                res = _timeout_result(task)
            return res
        res = run_cell(task)
        if wants_timeout:
            # A timeout was requested but could not be enforced (no
            # SIGALRM / not the main thread): say so once, and mark the
            # result so downstream reports can flag it.
            res.timeout_enforced = False
            if not InlineRunner._warned_unenforced:
                InlineRunner._warned_unenforced = True
                warnings.warn(
                    "InlineRunner cannot enforce cell timeouts here "
                    "(SIGALRM needs the main thread of a Unix process); "
                    "cells run to completion and their results record "
                    "timeout_enforced: false",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return res

    def _execute(self, tasks, on_result) -> bool:
        from collections import deque

        queue = deque(tasks)
        interrupted = False
        old_handlers = {}
        trap = _can_trap_signals()
        if trap:
            def _on_signal(signum, frame):
                raise _DrainInterrupt(signum)

            for sig in (signal.SIGINT, signal.SIGTERM):
                old_handlers[sig] = signal.signal(sig, _on_signal)
        try:
            while queue:
                task = queue.popleft()
                try:
                    res = self._run_one(task)
                    _, retry = on_result(task, res)
                    if retry is not None:
                        delay, next_task = retry
                        obs.event("cell.retry", cell=task.index,
                                  attempt=task.attempt, status=res.status,
                                  delay=delay)
                        obs.count("runner.retries")
                        if delay > 0:
                            time.sleep(delay)
                        queue.appendleft(next_task)
                except _DrainInterrupt:
                    # the in-flight cell is discarded un-journaled;
                    # resume re-executes it.
                    interrupted = True
                    break
        finally:
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
        return interrupted


def _redirect_stderr(err_path: str) -> None:
    """Point fd 2 at ``err_path``; the previous cell's last words are
    flushed into its own file first."""
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        pass
    try:
        fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        os.dup2(fd, 2)
        os.close(fd)
    except OSError:
        pass                        # diagnostics are best-effort


def _worker_main(conn, inherited) -> None:
    """A pool worker: run each ``(task, out_path, err_path)`` the parent
    sends over ``conn`` and reply once its result file is in place;
    exit on ``None`` or a closed pipe.

    ``inherited`` holds the parent's ends of every worker pipe a forked
    child got a copy of; closing them lets a worker see EOF, and exit,
    if the parent dies without saying so.
    """
    for end in inherited:
        end.close()
    # rebind the Python-level stream to fd 2: the inherited sys.stderr
    # may wrap something other than fd 2 (a capturing test harness, an
    # io redirect), and each tool's last words must land in its cell's
    # err file either way
    try:
        sys.stderr = os.fdopen(2, "w", closefd=False)
    except OSError:
        pass                        # no fd 2: diagnostics are best-effort
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        task, out_path, err_path = job
        _redirect_stderr(err_path)
        # per-cell state, as if each cell had a process of its own:
        # fault specs fire ``count`` times per attempt, and telemetry
        # re-arms as in-memory collection (never the parent's span
        # log); spans travel in the result's rollup
        faults.reset_counts()
        obs.reset_for_worker()
        res = run_cell(task)
        sys.stderr.flush()              # the parent reads the tail next
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(res.to_json(), fh)
        os.replace(tmp, out_path)
        conn.send(task.index)


class _Worker:
    """The parent's handle on one pool worker and its in-flight cell."""

    __slots__ = ("proc", "conn", "job")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: (task, deadline, out_path, err_path, start_ns) while busy
        self.job: Optional[tuple] = None

    def retire(self) -> None:
        """Tell an idle worker to exit (reap it next)."""
        try:
            self.conn.send(None)
        except OSError:
            pass                        # already gone

    def reap(self) -> Optional[int]:
        """Wait for the process to end, SIGKILLing it if a retired
        worker outstays :data:`_EXIT_GRACE_S`; release its fds and
        return its exit code."""
        self.proc.join(_EXIT_GRACE_S)
        if self.proc.exitcode is None:
            self.proc.kill()
            self.proc.join()
        code = self.proc.exitcode
        self.proc.close()
        self.conn.close()
        return code


class ProcessPoolRunner(_BaseRunner):
    """Fan cells across ``jobs`` worker processes per run, replaced
    after a crash or timeout: full crash isolation, enforceable
    wall-clock timeouts.

    Workers start at the run's first cache miss, no more than ``jobs``
    and no more than the misses need, and each runs one cell at a time
    sent over its own pipe.  They exit when the run returns, so every
    run sees the ``REPRO_OBS``/``REPRO_FAULTS`` it starts with.  A
    worker that dies mid-cell ends only that cell (``status="error"``
    with its stderr tail); one past its cell's deadline is SIGKILLed
    (``status="timeout"``); either way a fresh worker takes the
    remaining cells.

    Every detector's modules are loaded with the registry this module
    imports, so forked workers inherit them instead of importing them
    on a cell's clock; no detector imports numpy, so neither the parent
    nor a worker loads it.  The scheduler sleeps in
    :func:`multiprocessing.connection.wait` until a worker replies or
    exits, the nearest cell deadline or retry backoff expires, or
    SIGINT/SIGTERM arrives (the signal's wake-up byte lands on a
    self-pipe the wait includes).
    """

    def __init__(self, jobs: int = 2, start_method: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._stop = False

    def _start_worker(self, workers: List[_Worker]) -> _Worker:
        ours, theirs = self._ctx.Pipe()
        # a forked child holds copies of the parent's pipe ends; spawned
        # ones get only what their arguments carry
        inherited = ((*(w.conn for w in workers), ours)
                     if self._ctx.get_start_method() == "fork" else ())
        proc = self._ctx.Process(target=_worker_main,
                                 args=(theirs, inherited), daemon=True)
        try:
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        obs.count("pool.workers_started")
        return _Worker(proc, ours)

    def _execute(self, tasks, on_result) -> bool:
        from multiprocessing.connection import wait

        self._stop = False
        if not tasks:
            return False
        results_done = 0
        pending: List[CellTask] = list(tasks)
        delayed: List[Tuple[float, CellTask]] = []   # (ready time, task)
        workers: List[_Worker] = []
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_w, False)
        old_handlers = {}
        old_wakeup = None
        if _can_trap_signals():
            def _on_signal(signum, frame):
                if self._stop:           # second signal: force-abort
                    raise KeyboardInterrupt
                self._stop = True

            for sig in (signal.SIGINT, signal.SIGTERM):
                old_handlers[sig] = signal.signal(sig, _on_signal)
            # whichever thread the signal lands on writes a byte to
            # wake_w, which ends the scheduler's wait at once
            old_wakeup = signal.set_wakeup_fd(wake_w,
                                              warn_on_full_buffer=False)
        tmpdir = tempfile.mkdtemp(prefix="repro-exp-")
        # queue-wait accounting: tasks are ready the moment they enter
        # `pending` (or their retry backoff expires)
        _obs_on = obs.enabled()
        enq_ns: Dict[Tuple[int, int], int] = {}
        if _obs_on:
            t_ready = time.monotonic_ns()
            for t in pending:
                enq_ns[(t.index, t.attempt)] = t_ready

        def settle(job: tuple, exitcode: Optional[int] = None,
                   timed_out: bool = False) -> None:
            """Report a finished, crashed (``exitcode``) or timed-out
            attempt, and schedule the retry it earns."""
            nonlocal results_done
            task, _, out_path, err_path, start_ns = job
            tail = _stderr_tail(err_path)
            res = (_timeout_result(task) if timed_out
                   else self._collect(task, out_path, exitcode, tail))
            if start_ns:
                obs.record_span("pool.exec", start_ns, time.monotonic_ns(),
                                cat="pool", cell=task.index,
                                status=res.status)
                if res.obs:
                    # the worker collected in memory; fold its spans and
                    # counter deltas into the parent's log/snapshot so
                    # run-level telemetry covers pool runs too
                    if res.obs.get("spans"):
                        obs.emit_spans(res.obs["spans"])
                    for name, delta in (res.obs.get("counters")
                                        or {}).items():
                        obs.count(name, delta)
            _, retry = on_result(task, res, stderr_tail=tail,
                                 stop=self._stop)
            if retry is not None:
                delay, next_task = retry
                obs.event("pool.retry", cell=task.index,
                          attempt=task.attempt, status=res.status,
                          delay=delay)
                obs.count("runner.retries")
                delayed.append((time.monotonic() + delay, next_task))
            else:
                results_done += 1

        try:
            while (any(w.job for w in workers)
                   or ((pending or delayed) and not self._stop)):
                if self._stop:
                    pending.clear()
                    delayed.clear()
                    for w in [w for w in workers if w.job is None]:
                        workers.remove(w)
                        w.retire()
                        w.reap()
                now = time.monotonic()
                if delayed:
                    ready = [t for t in delayed if t[0] <= now]
                    if ready:
                        delayed[:] = [t for t in delayed if t[0] > now]
                        if _obs_on:
                            t_ready = time.monotonic_ns()
                            for _, t in ready:
                                enq_ns[(t.index, t.attempt)] = t_ready
                        # deterministic re-queue order: by cell index
                        pending.extend(t for _, t in
                                       sorted(ready, key=lambda r: r[1].index))
                while pending:
                    w = next((w for w in workers if w.job is None), None)
                    if w is None:
                        if len(workers) >= self.jobs:
                            break
                        w = self._start_worker(workers)
                        workers.append(w)
                    task = pending[0]
                    stem = os.path.join(
                        tmpdir, f"cell-{task.index}-a{task.attempt}")
                    out_path = stem + ".json"
                    err_path = stem + ".stderr"
                    try:
                        w.conn.send((task, out_path, err_path))
                    except OSError:
                        # it died idle: reap it, the cell goes elsewhere
                        workers.remove(w)
                        w.reap()
                        obs.count("pool.worker_crashes")
                        continue
                    pending.pop(0)
                    start_ns = 0
                    if _obs_on:
                        start_ns = time.monotonic_ns()
                        ready_at = enq_ns.pop((task.index, task.attempt),
                                              start_ns)
                        obs.record_span("pool.queue_wait", ready_at,
                                        start_ns, cat="pool",
                                        cell=task.index,
                                        attempt=task.attempt)
                    # mirror InlineRunner: non-positive = no timeout
                    deadline = (time.monotonic() + task.timeout
                                if task.timeout is not None and task.timeout > 0
                                else None)
                    w.job = (task, deadline, out_path, err_path, start_ns)

                faults.fire("pool_tick", done=results_done)
                # sleep until a worker replies or exits, a signal lands,
                # or the nearest deadline / retry backoff expires
                wake_at = [w.job[1] for w in workers
                           if w.job is not None and w.job[1] is not None]
                wake_at.extend(t for t, _ in delayed)
                timeout = (max(0.0, min(wake_at) - time.monotonic())
                           if wake_at else None)
                ready = wait([w.conn for w in workers]
                             + [w.proc.sentinel for w in workers] + [wake_r],
                             timeout)
                if wake_r in ready:
                    os.read(wake_r, 512)
                now = time.monotonic()
                for w in list(workers):
                    job = w.job
                    dead = w.proc.sentinel in ready
                    if w.conn in ready:
                        try:
                            w.conn.recv()
                        except (EOFError, OSError):
                            dead = True          # died before replying
                        else:
                            w.job = None
                            settle(job)
                            job = None
                    if dead:
                        workers.remove(w)
                        exitcode = w.reap()
                        obs.count("pool.worker_crashes")
                        if job is not None:
                            settle(job, exitcode=exitcode)
                    elif (job is not None and job[1] is not None
                          and now >= job[1]):
                        # SIGKILL outright: a forked worker inherits the
                        # drain handler above, which makes SIGTERM a no-op
                        w.proc.kill()
                        workers.remove(w)
                        w.reap()
                        obs.count("pool.timeouts")
                        settle(job, timed_out=True)
        finally:
            for w in workers:
                if w.job is None:
                    w.retire()
                else:
                    w.proc.kill()
            for w in workers:
                w.reap()
            shutil.rmtree(tmpdir, ignore_errors=True)
            if old_wakeup is not None:
                signal.set_wakeup_fd(old_wakeup)
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            os.close(wake_r)
            os.close(wake_w)
        return self._stop

    @staticmethod
    def _collect(task: CellTask, out_path: str, exitcode: Optional[int],
                 stderr_tail: str = "") -> CellResult:
        # a worker that died after writing its result file, before it
        # could reply, still counts as done if the record is complete
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                return CellResult.from_json(task.index, json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError):
            return _crash_result(task, exitcode, stderr_tail)
