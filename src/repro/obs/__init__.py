"""Engine-wide tracing and metrics (``repro.obs``).

A zero-dependency, thread-safe telemetry subsystem: context-manager
:func:`span` trees with monotonic timestamps plus named counters,
gauges and histograms.  Every layer of the engine is instrumented —
trace ingestion, index derivation, closure sweeps, vector-clock joins,
the campaign runners, the cache, streaming sessions and the run
journal — but the whole thing **compiles to a no-op when
disabled**:

- :func:`span`/:func:`count`/... are module-level functions whose first
  statement is a ``_state is None`` check; with telemetry off each call
  is one global load and a branch.
- Call sites too hot even for that (per-join vector-clock counters,
  per-lock history cursor walks) use *patch-on-enable*: they register
  an :func:`on_enable` hook that swaps counting wrappers in only when
  telemetry is activated, so the disabled hot path carries **zero**
  instrumentation code.

Activation mirrors :mod:`repro.faults` — environment-driven so forked
or spawned pool workers inherit it for free:

- ``REPRO_OBS=1`` (or ``true``/``yes``/``on``) — enabled, in-memory
  collection only;
- ``REPRO_OBS=/some/dir`` — enabled, spans streamed to
  ``<dir>/spans.jsonl`` and aggregate metrics written to
  ``<dir>/metrics.json`` on :func:`finish`;
- ``repro bench run --obs OUT/`` and a campaign ``[obs]`` table set the
  variable for the run (workers included) and finalize on exit.

Pool workers never write the shared span log: :func:`reset_for_worker`
switches the child to in-memory collection and the per-cell rollup
(spans + counter deltas + cpu/RSS, see :func:`cell_scope`) rides the
existing per-cell result channel back to the parent, which re-emits the
spans into its own log — crash isolation is untouched, a dying worker
can only ever lose its own telemetry.

Span log format: JSON lines, one object per record.  ``{"k": "span"}``
records carry ``name``, ``cat``, ``path`` (slash-joined ancestry within
the emitting thread), ``ts``/``dur`` (monotonic nanoseconds), ``pid``,
``tid`` and optional ``args``/``error``.  ``{"k": "meta"}`` marks an
activation, ``{"k": "counters"}`` a final aggregate snapshot.  Convert
with ``repro obs export`` (Chrome ``traceEvents`` JSON, loadable in
``chrome://tracing`` / Perfetto) or inspect with
``repro bench profile OUT/``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "ENV_VAR",
    "enabled",
    "enable",
    "disable",
    "maybe_enable_from_env",
    "reset_for_worker",
    "span",
    "event",
    "count",
    "gauge",
    "observe",
    "record_span",
    "on_enable",
    "register_probe",
    "snapshot",
    "drain_spans",
    "cell_scope",
    "finish",
]

#: environment variable holding the activation value (see module docs)
ENV_VAR = "REPRO_OBS"

#: in-memory span retention cap (file-backed states are unbounded);
#: overflowing spans are dropped and counted under ``obs.spans_dropped``
_MEM_CAP = 200_000

#: spans embedded per cell rollup before truncation
_CELL_SPAN_CAP = 512


class _State:
    """Live telemetry collection state (one per enabled process)."""

    def __init__(self, out_dir: Optional[str]) -> None:
        self.out_dir = out_dir
        self.lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.hists: Dict[str, Dict[str, float]] = {}
        self.spans: List[dict] = []
        self.dropped = 0
        self.local = threading.local()
        self.t0 = time.monotonic_ns()
        self._fh = None
        self._cell_sink: Optional[List[dict]] = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            # line-buffered: every record hits the file as it is
            # emitted, so a forked worker inherits an *empty* buffer —
            # its abandoned handle can never flush duplicate lines into
            # the shared log at interpreter exit
            self._fh = open(os.path.join(out_dir, "spans.jsonl"), "a",
                            buffering=1, encoding="utf-8")
            self.emit({"k": "meta", "event": "enable", "pid": os.getpid(),
                       "t0": self.t0, "wall": time.time()})

    # one json line per record; file writes are serialized, in-memory
    # appends rely on CPython list.append atomicity
    def emit(self, record: dict) -> None:
        sink = self._cell_sink
        if sink is not None and record.get("k") == "span":
            sink.append(record)
        if self._fh is not None:
            line = json.dumps(record, default=str)
            with self.lock:
                self._fh.write(line + "\n")
            return
        if len(self.spans) >= _MEM_CAP:
            self.dropped += 1
            return
        self.spans.append(record)

    def emit_many(self, records) -> None:
        for rec in records:
            self.emit(rec)

    def stack(self) -> List[str]:
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def close(self) -> None:
        if self._fh is not None:
            with self.lock:
                self._fh.close()
            self._fh = None


_state: Optional[_State] = None

# (hook, undo-or-None) pairs; hooks run on every enable and may return
# an undo callable run on disable (patch-on-enable instrumentation)
_hooks: List[List[Any]] = []

# named callables returning {counter: value} merged into snapshots
_probes: Dict[str, Callable[[], Dict[str, float]]] = {}


def enabled() -> bool:
    """Whether telemetry collection is currently active."""
    return _state is not None


def enable(out_dir: Optional[str] = None) -> None:
    """Activate telemetry (idempotent; re-enable switches the sink).

    Args:
        out_dir: stream spans to ``<out_dir>/spans.jsonl``; ``None``
            collects in memory (drained via :func:`drain_spans`).
    """
    global _state
    if _state is not None:
        if _state.out_dir == out_dir:
            return
        disable()
    _state = _State(out_dir)
    for pair in _hooks:
        if pair[1] is None:
            pair[1] = pair[0]() or _NO_UNDO


def disable() -> None:
    """Deactivate telemetry and unwind patch-on-enable hooks."""
    global _state
    if _state is None:
        return
    for pair in _hooks:
        if pair[1] is not None:
            if pair[1] is not _NO_UNDO:
                pair[1]()
            pair[1] = None
    _state.close()
    _state = None


def maybe_enable_from_env() -> bool:
    """Activate from :data:`ENV_VAR` if set (workers inherit it).

    Returns True when telemetry is active after the call.
    """
    if _state is not None:
        return True
    val = os.environ.get(ENV_VAR, "").strip()
    if not val or val == "0" or val.lower() in ("false", "no", "off"):
        return False
    if val == "1" or val.lower() in ("true", "yes", "on"):
        enable(None)
    else:
        enable(val)
    return True


def reset_for_worker() -> None:
    """Re-arm telemetry inside a pool worker (before each of its cells).

    Forked children inherit the parent's state — including its open
    span-log handle, whose buffered writes would tear the shared file.
    Workers therefore always collect in memory, starting afresh for
    every cell; their spans travel in the per-cell rollup through the
    result channel.
    """
    global _state
    if _state is not None:
        # drop the inherited state without touching the parent's file
        # (closing a forked duplicate flushes its buffer into the log)
        _state._fh = None
        _state = None
        for pair in _hooks:
            if pair[1] is not None:
                # Unwind inherited patch wrappers before re-enabling —
                # method swaps are process-local and safe in a forked
                # child; skipping this would stack a second wrapper on
                # re-enable (and leak one layer past the next disable),
                # double-counting every patched call.
                if pair[1] is not _NO_UNDO:
                    pair[1]()
                pair[1] = None
    val = os.environ.get(ENV_VAR, "").strip()
    if val and val != "0" and val.lower() not in ("false", "no", "off"):
        enable(None)


# -- spans -------------------------------------------------------------------


class _NullSpan:
    """Returned by :func:`span` when disabled: a no-op context."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
_NO_UNDO = object()


class _Span:
    __slots__ = ("name", "cat", "args", "_start", "_path")

    def __init__(self, name: str, cat: Optional[str], args: Optional[dict]):
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self):
        st = _state
        if st is None:  # disabled between construction and entry
            self._start = None
            return self
        stack = st.stack()
        stack.append(self.name)
        self._path = "/".join(stack)
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._start is None:
            return False
        end = time.monotonic_ns()
        st = _state
        if st is not None:
            stack = st.stack()
            if stack and stack[-1] == self.name:
                stack.pop()
            rec = {"k": "span", "name": self.name, "path": self._path,
                   "ts": self._start, "dur": end - self._start,
                   "pid": os.getpid(), "tid": threading.get_ident()}
            if self.cat:
                rec["cat"] = self.cat
            if self.args:
                rec["args"] = self.args
            if exc_type is not None:
                rec["error"] = exc_type.__name__
            st.emit(rec)
        return False


def span(name: str, cat: Optional[str] = None, **args):
    """A timed context manager; nests into a per-thread span tree.

    Exceptions propagate but still close the span (the record carries
    an ``error`` field), so enter/exit stay balanced under failure.
    """
    if _state is None:
        return _NULL_SPAN
    return _Span(name, cat, args or None)


def record_span(name: str, start_ns: int, end_ns: int,
                cat: Optional[str] = None, **args) -> None:
    """Record a span retroactively from explicit monotonic timestamps.

    Used where the interval is only known after the fact (pool queue
    wait, worker lifetime reconstructed from the scheduler loop).
    """
    st = _state
    if st is None:
        return
    rec = {"k": "span", "name": name, "path": name, "ts": int(start_ns),
           "dur": max(0, int(end_ns - start_ns)), "pid": os.getpid(),
           "tid": threading.get_ident()}
    if cat:
        rec["cat"] = cat
    if args:
        rec["args"] = args
    st.emit(rec)


def event(name: str, **args) -> None:
    """Record an instant (zero-duration) event."""
    st = _state
    if st is None:
        return
    ts = time.monotonic_ns()
    rec = {"k": "span", "name": name, "path": name, "ts": ts, "dur": 0,
           "pid": os.getpid(), "tid": threading.get_ident()}
    if args:
        rec["args"] = args
    st.emit(rec)


# -- metrics -----------------------------------------------------------------


def count(name: str, delta: float = 1) -> None:
    """Add ``delta`` to a named monotonic counter."""
    st = _state
    if st is None:
        return
    c = st.counters
    c[name] = c.get(name, 0) + delta


def gauge(name: str, value: float) -> None:
    """Set a named gauge to its latest value."""
    st = _state
    if st is None:
        return
    st.gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record one sample into a named histogram (count/sum/min/max)."""
    st = _state
    if st is None:
        return
    h = st.hists.get(name)
    if h is None:
        st.hists[name] = {"count": 1, "sum": value, "min": value,
                          "max": value}
        return
    h["count"] += 1
    h["sum"] += value
    if value < h["min"]:
        h["min"] = value
    if value > h["max"]:
        h["max"] = value


def on_enable(hook: Callable[[], Optional[Callable[[], None]]]) -> None:
    """Register a patch-on-enable hook.

    ``hook()`` runs at every activation and may return an undo callable
    run at :func:`disable`.  If telemetry is already active the hook
    runs immediately.  This is how per-call-hot modules (``vc/``,
    ``core/closure.py``) attach counting wrappers without leaving any
    code on the disabled path.
    """
    pair: List[Any] = [hook, None]
    _hooks.append(pair)
    if _state is not None:
        pair[1] = hook() or _NO_UNDO


def register_probe(name: str,
                   fn: Callable[[], Dict[str, float]]) -> None:
    """Register a collection-time counter source (merged by name into
    every :func:`snapshot`)."""
    _probes[name] = fn


def _probe_counters() -> Dict[str, float]:
    out: Dict[str, float] = {}
    for fn in _probes.values():
        try:
            out.update(fn())
        except Exception:
            continue
    return out


def snapshot() -> Dict[str, Any]:
    """Aggregate counters/gauges/histograms (probes included)."""
    st = _state
    if st is None:
        return {"enabled": False, "counters": {}, "gauges": {},
                "histograms": {}}
    counters = dict(st.counters)
    for k, v in _probe_counters().items():
        counters[k] = counters.get(k, 0) + v
    if st.dropped:
        counters["obs.spans_dropped"] = st.dropped
    return {"enabled": True, "counters": counters,
            "gauges": dict(st.gauges), "histograms": dict(st.hists)}


def drain_spans() -> List[dict]:
    """Return and clear the in-memory span buffer (file-backed states
    keep their log on disk and return nothing here)."""
    st = _state
    if st is None:
        return []
    out, st.spans = st.spans, []
    return out


def emit_spans(records) -> None:
    """Re-emit span records collected elsewhere (a worker's rollup)
    into this process's sink."""
    st = _state
    if st is None:
        return
    st.emit_many(records)


def finish() -> Optional[Dict[str, Any]]:
    """Write the final counter snapshot and close the span log.

    Returns the snapshot (``None`` when disabled).  The state stays
    enabled for in-memory collection; call :func:`disable` to tear
    down.
    """
    st = _state
    if st is None:
        return None
    snap = snapshot()
    st.emit({"k": "counters", "counters": snap["counters"],
             "gauges": snap["gauges"], "histograms": snap["histograms"]})
    if st.out_dir is not None:
        with st.lock:
            st._fh.flush()
        path = os.path.join(st.out_dir, "metrics.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    return snap


# -- per-cell rollups --------------------------------------------------------


class _CellScope:
    """Collects one cell's telemetry delta (see :func:`cell_scope`)."""

    __slots__ = ("args", "_span", "_c0", "_t0", "_cpu0", "_spans",
                 "_prev_sink", "rollup")

    def __init__(self, args: dict):
        self.args = args
        self.rollup: Optional[dict] = None

    def __enter__(self):
        st = _state
        if st is None:
            return self
        self._c0 = dict(st.counters)
        for k, v in _probe_counters().items():
            self._c0[k] = self._c0.get(k, 0) + v
        self._spans: List[dict] = []
        self._prev_sink = st._cell_sink
        st._cell_sink = self._spans
        self._t0 = time.monotonic_ns()
        self._cpu0 = time.process_time_ns()
        self._span = _Span("cell", "exp", self.args or None)
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        st = _state
        if st is None:
            return False
        self._span.__exit__(exc_type, exc, tb)
        st._cell_sink = self._prev_sink
        wall = (time.monotonic_ns() - self._t0) / 1e9
        cpu = (time.process_time_ns() - self._cpu0) / 1e9
        c1 = dict(st.counters)
        for k, v in _probe_counters().items():
            c1[k] = c1.get(k, 0) + v
        delta = {}
        for k, v in c1.items():
            d = v - self._c0.get(k, 0)
            if d:
                delta[k] = d
        spans = self._spans
        truncated = max(0, len(spans) - _CELL_SPAN_CAP)
        if truncated:
            spans = spans[:_CELL_SPAN_CAP]
        self.rollup = {
            "wall": wall,
            "cpu": cpu,
            "max_rss_kb": _max_rss_kb(),
            "counters": delta,
            "spans": spans,
        }
        if truncated:
            self.rollup["spans_truncated"] = truncated
        return False


def cell_scope(**args) -> _CellScope:
    """Scope one campaign cell: spans recorded inside are captured and
    counter/cpu deltas summarized into ``.rollup`` on exit (``None``
    when telemetry is disabled).

    The rollup's ``max_rss_kb`` is the high-water mark so far of the
    process that ran the cell — a pool worker that may have run earlier
    cells of the run, or the :class:`~repro.exp.runner.InlineRunner`
    process — not the cell's own peak.
    """
    return _CellScope(args)


def _max_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # linux reports KB; darwin reports bytes
    return ru // 1024 if os.uname().sysname == "Darwin" else ru
