"""Measurement plumbing shared by the workloads: statistics, the open-loop
load generator, in-memory spans and the timing proxies.

Nothing here imports ``repro``: the proxies are duck-typed wrappers around
whatever object they are handed, so the same code times a real detector,
a real ``ResultCache`` or a test double.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


# -- statistics ---------------------------------------------------------------


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """Median and the highest percentile with ``TAIL_BEYOND`` samples
    beyond it, with the sample count.

    The tail is the sorted sample at rank ``n - TAIL_BEYOND - 1``, which
    has exactly ten larger samples; ``pct`` is the share of samples at or
    below it.  Below ``2 * TAIL_BEYOND + 1`` samples no rank above the
    median has ten samples beyond it, so the tail falls back to the
    median (and ``pct`` to 50).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    xs = sorted(samples)
    p50 = statistics.median(xs)
    if n < 2 * TAIL_BEYOND + 1:
        return {"n": n, "p50": p50, "tail": p50, "pct": 50.0}
    rank = n - TAIL_BEYOND - 1
    return {"n": n, "p50": p50, "tail": xs[rank],
            "pct": 100.0 * (rank + 1) / n}


def fast_decile(samples: Sequence[float]) -> float:
    """The 10th-percentile sample (the fastest below ten samples).

    Closed-loop pass times use this rather than the median: on a shared
    2-vCPU cloud VM each vCPU's own speed swings up to 1.7x in phases
    lasting seconds (a fixed pure-Python loop timed alone shows it), so a
    run's median depends on the phase it fell in, while its fast decile,
    over passes spread across the vCPUs by ``CpuPinner``, tracks the
    program.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[len(xs) // 10]


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank rule."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def p99(samples: Sequence[float]) -> float:
    """p99, refused unless at least ten samples lie beyond it."""
    if len(samples) < 100 * TAIL_BEYOND:
        raise ValueError(
            f"p99 needs {100 * TAIL_BEYOND} samples for {TAIL_BEYOND} "
            f"beyond it, got {len(samples)}")
    return nearest_rank(samples, 0.99)


# -- open loop ----------------------------------------------------------------


class OpenLoopResult:
    """Per-payload timings of one open-loop run (seconds, run clock)."""

    def __init__(self) -> None:
        self.latency: List[float] = []     # done - due
        self.lateness: List[float] = []    # start - due (generator lag)
        self.backlog: List[int] = []       # events due, queued behind k
        self.failed: List[bool] = []
        self.events = 0
        self.first_due = 0.0
        self.last_done = 0.0

    @property
    def achieved_rate(self) -> float:
        span = self.last_done - self.first_due
        return self.events / span if span > 0 else 0.0


def run_open_loop(
    due: Sequence[float],
    sizes: Sequence[int],
    process: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopResult:
    """Drive ``process(k)`` for every payload ``k`` in one thread, never
    before its due time ``t0 + due[k]`` and never slowed by the system.

    Latency is measured from the due time, so a stall delays every payload
    queued behind it, not only the one it hit.  A payload whose
    ``process`` raises counts as failed and as missing any latency limit
    (its latency is infinite).
    """
    out = OpenLoopResult()
    t0 = clock()
    out.first_due = t0 + (due[0] if due else 0.0)
    # prefix sums: events due by payload k
    due_events = []
    acc = 0
    for s in sizes:
        acc += s
        due_events.append(acc)
    done_events = 0
    j = 0                                  # payloads due so far
    for k in range(len(due)):
        target = t0 + due[k]
        now = clock()
        if now < target:
            sleep(target - now)
            now = clock()
        while j < len(due) and t0 + due[j] <= now:
            j += 1
        # events already due behind the one starting now
        out.backlog.append(due_events[j - 1] - done_events - sizes[k])
        out.lateness.append(now - target)
        try:
            process(k)
            ok = True
        except Exception:
            ok = False
        end = clock()
        out.failed.append(not ok)
        out.latency.append(end - target if ok else math.inf)
        done_events += sizes[k]
        out.events += sizes[k]
        out.last_done = end
    return out


def lateness_grows(lateness: Sequence[float], tolerance: float) -> bool:
    """Does the generator fall further behind as the run goes on?

    Compares the median lateness of the last third of the payloads with
    that of the first third; a sustainable rate keeps them within
    ``tolerance`` seconds, an unsustainable one grows without bound.
    """
    n = len(lateness)
    if n < 3:
        return False
    third = n // 3
    first = statistics.median(lateness[:third])
    last = statistics.median(lateness[n - third:])
    return last - first > tolerance


def sustained(rungs: Iterable[dict], limit: float) -> Optional[dict]:
    """The highest-rate rung whose p99 meets ``limit`` and whose lateness
    does not grow, or None."""
    ok = [r for r in rungs if r["p99"] <= limit and not r["grows"]]
    return max(ok, key=lambda r: r["rate"]) if ok else None


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory span recorder, written once at the end.

    Records use the ``repro.obs`` span-log shape (``{"k": "span", "name",
    "path", "ts", "dur", "pid", "tid"}``, monotonic nanoseconds), so
    ``repro.obs.export.to_chrome`` and ``repro.obs.profile.aggregate_spans``
    read them as they are.  Each record also carries its own ``id``, the
    ``parent`` span id and the ``op`` id (input, payload or cell) of the
    operation it belongs to.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[tuple] = []      # (id, path, op)
        self._next = 1

    def span(self, name: str, op: Optional[str] = None):
        return _Span(self, name, op) if self.enabled else _NULL

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int], op: Optional[str], path: str) -> None:
        """Record a span known only after the fact (e.g. from a worker)."""
        self.records.append({
            "k": "span", "name": name, "path": path, "ts": start_ns,
            "dur": max(0, end_ns - start_ns), "pid": os.getpid(),
            "tid": threading.get_ident(), "cat": name.split(".", 1)[0],
            "id": self._next, "parent": parent, "op": op})
        self._next += 1

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


class _Span:
    __slots__ = ("rec", "name", "op", "start", "sid", "path", "parent")

    def __init__(self, rec: Spans, name: str, op: Optional[str]) -> None:
        self.rec = rec
        self.name = name
        self.op = op

    def __enter__(self):
        stack = self.rec._stack
        if stack:
            self.parent, ppath, pop = stack[-1]
            self.path = ppath + "/" + self.name
            self.op = self.op or pop
        else:
            self.parent, self.path = None, self.name
        self.sid = self.rec._next
        self.rec._next += 1
        stack.append((self.sid, self.path, self.op))
        self.start = time.monotonic_ns()
        return self

    def __exit__(self, *exc):
        end = time.monotonic_ns()
        self.rec._stack.pop()
        self.rec.records.append({
            "k": "span", "name": self.name, "path": self.path,
            "ts": self.start, "dur": end - self.start, "pid": os.getpid(),
            "tid": threading.get_ident(), "cat": self.name.split(".", 1)[0],
            "id": self.sid, "parent": self.parent, "op": self.op})
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


def unaccounted_share(records: Sequence[dict], op_name: str) -> float:
    """Median share of an operation span's wall time its child spans do
    not cover: how far per-layer self times fall short of the whole."""
    children: Dict[int, int] = {}
    for r in records:
        if r.get("parent") is not None:
            children[r["parent"]] = children.get(r["parent"], 0) + r["dur"]
    shares = [1.0 - children.get(r["id"], 0) / r["dur"]
              for r in records if r["name"] == op_name and r["dur"] > 0]
    return statistics.median(shares) if shares else 0.0


# -- timing proxies -----------------------------------------------------------


class TimedConsumer:
    """Duck-typed ``StreamSession`` consumer that times ``feed_batch`` of
    the consumer it wraps and forwards the optional protocol methods.

    ``retain_from`` and ``finish`` are forwarded when the wrapped consumer
    has them (a consumer without ``retain_from`` retains nothing, which is
    what ``None`` tells the session), so eviction behaves exactly as it
    would without the proxy.
    """

    def __init__(self, inner, label: str, spans: Optional[Spans] = None):
        self.inner = inner
        self.label = label
        self.spans = spans
        self.busy_s = 0.0

    def feed_batch(self, compiled, lo, hi, base=0):
        t = time.perf_counter()
        with (self.spans.span(self.label) if self.spans else _NULL):
            self.inner.feed_batch(compiled, lo, hi, base)
        self.busy_s += time.perf_counter() - t

    def retain_from(self):
        fn = getattr(self.inner, "retain_from", None)
        return fn() if fn is not None else None

    def finish(self):
        fn = getattr(self.inner, "finish", None)
        if fn is not None:
            fn()


class TimedCache:
    """Wraps a ``ResultCache``: times ``get``/``put`` and counts hits."""

    def __init__(self, inner, spans: Optional[Spans] = None) -> None:
        self.inner = inner
        self.spans = spans
        self.get_s = 0.0
        self.put_s = 0.0
        self.gets = 0
        self.hits = 0
        self.puts = 0

    def get(self, key):
        t = time.perf_counter()
        with (self.spans.span("cache.get") if self.spans else _NULL):
            rec = self.inner.get(key)
        self.get_s += time.perf_counter() - t
        self.gets += 1
        self.hits += rec is not None
        return rec

    def put(self, key, record):
        t = time.perf_counter()
        with (self.spans.span("cache.put") if self.spans else _NULL):
            self.inner.put(key, record)
        self.put_s += time.perf_counter() - t
        self.puts += 1

    def __getattr__(self, name):
        return getattr(self.inner, name)


# -- process ------------------------------------------------------------------


class CpuPinner:
    """Round-robin pinning of this process over the CPUs it may use.

    The vCPUs of a shared VM slow down in partly independent phases (the
    fastest of two vCPUs, sampled alternately, spreads 0.17 where either
    alone spreads 0.28), so closed-loop passes rotate over them.  Release
    before starting workers: children inherit the pin.
    """

    def __init__(self) -> None:
        get = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(get(0)) if get is not None else []

    def pin(self, i: int) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[i % len(self.cpus)]})

    def release(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (and, with ``children``, of the
    largest reaped child), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0
