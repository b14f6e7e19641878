"""Interned, columnar trace representation (the compiled event pipeline).

A :class:`CompiledTrace` stores a trace as three parallel integer
columns — op code, thread id, target id — plus string intern tables for
threads, locks, and variables and a sparse location map.  Compared to a
list of :class:`~repro.trace.events.Event` objects this:

- interns every thread/lock/variable name to a dense int **once, at
  parse time**, so detectors index lists instead of hashing strings;
- dispatches on int op codes (:data:`~repro.trace.events.OP_ACQUIRE`
  etc.) instead of string comparisons and property calls;
- holds events in ``array`` columns (a few bytes per event) instead of
  per-event Python objects, so hundred-million-event traces fit.

Target ids are per-kind: reads/writes index the variable table,
acquire/release/request the lock table, fork/join the thread table
(:func:`route_target`, the one place that rule is written).

The streaming detectors (SPDOnline, SPDOnlineK, FastTrack) take events
one way, through :class:`DetectorFeed`: each owns its names as a
``CompiledTrace`` that holds no events, ``step()`` interns a string
event into those tables, and ``feed_batch`` reads a source's columns
through :class:`SourceMaps`, per-kind maps from the source's ids to the
detector's that are skipped while they are the identity.

:func:`load_compiled_trace` reads the RAPID "STD" text format through a
chunked streaming reader (``.gz`` transparently inflated block by
block) — the whole file is never resident as one string.  It is the
only STD parser: :func:`repro.trace.parser.parse_trace` and
:func:`~repro.trace.parser.load_trace` wrap its output in a
:class:`~repro.trace.trace.Trace` view.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import repro.obs as obs
from repro.trace.events import (
    OP_ACQUIRE,
    OP_FORK,
    OP_JOIN,
    OP_RELEASE,
    OP_REQUEST,
    Event,
    Op,
)

#: Op codes whose target is a lock.
_LOCK_OPS = (OP_ACQUIRE, OP_RELEASE, OP_REQUEST)
#: Op codes whose target is a thread.
_THREAD_OPS = (OP_FORK, OP_JOIN)


def route_target(code: int, threads, locks, variables):
    """Whichever of ``threads``, ``locks`` and ``variables`` an event of
    op ``code`` names its target in: locks for acquire, release and
    request, threads for fork and join, variables for reads and writes.

    Intern tables, name lists and id maps all route through here.
    """
    if code in _LOCK_OPS:
        return locks
    if code in _THREAD_OPS:
        return threads
    return variables


class InternTable:
    """Bidirectional name <-> dense-int interning."""

    __slots__ = ("_ids", "names")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        for n in names:
            self.intern(n)

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self.names)
            self._ids[name] = i
            self.names.append(name)
        return i

    def get(self, name: str) -> Optional[int]:
        return self._ids.get(name)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids


class CompiledTrace:
    """A trace compiled to interned columnar form.

    Iterating yields :class:`Event` objects (materialized on demand) so
    the compiled form is a drop-in replacement anywhere a plain event
    sequence is accepted; the streaming detectors bypass the
    materialization entirely via :meth:`columns`.
    """

    __slots__ = ("name", "ops", "thread_ids", "target_ids", "locs",
                 "threads_tab", "locks_tab", "vars_tab")

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.ops = array("b")
        self.thread_ids = array("i")
        self.target_ids = array("i")
        #: sparse event-index -> source location
        self.locs: Dict[int, str] = {}
        self.threads_tab = InternTable()
        self.locks_tab = InternTable()
        self.vars_tab = InternTable()

    # -- construction -------------------------------------------------------

    def append(self, thread: str, op: str, target: str,
               loc: Optional[str] = None) -> int:
        """Intern and append one event; returns its index."""
        code = Op.CODE.get(op)
        if code is None:
            raise ValueError(f"unknown operation kind: {op!r}")
        threads = self.threads_tab
        return self.append_coded(
            code, threads.intern(thread),
            route_target(code, threads, self.locks_tab,
                         self.vars_tab).intern(target),
            loc,
        )

    def _intern_target(self, code: int, target: str) -> int:
        return route_target(code, self.threads_tab, self.locks_tab,
                            self.vars_tab).intern(target)

    def append_coded(self, code: int, thread_id: int, target_id: int,
                     loc: Optional[str] = None) -> int:
        """Append one already-interned event; returns its index."""
        idx = len(self.ops)
        self.ops.append(code)
        self.thread_ids.append(thread_id)
        self.target_ids.append(target_id)
        if loc is not None:
            self.locs[idx] = loc
        return idx

    @classmethod
    def from_events(cls, events: Iterable[Event], name: str = "trace") -> "CompiledTrace":
        out = cls(name)
        for ev in events:
            out.append(ev.thread, ev.op, ev.target, ev.loc)
        return out

    # -- columnar access ----------------------------------------------------

    def columns(self) -> Tuple[array, array, array]:
        """The (ops, thread_ids, target_ids) parallel columns."""
        return self.ops, self.thread_ids, self.target_ids

    def tables(self) -> Tuple[InternTable, InternTable, InternTable]:
        """The (threads, locks, vars) intern tables."""
        return self.threads_tab, self.locks_tab, self.vars_tab

    def target_name(self, idx: int) -> str:
        """The target string of the event at ``idx``."""
        table = route_target(self.ops[idx], *self.tables())
        return table.names[self.target_ids[idx]]

    def location_of(self, idx: int) -> str:
        """Source location for bug deduplication (falls back to index)."""
        loc = self.locs.get(idx)
        return loc if loc is not None else f"@{idx}"

    # -- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def event(self, idx: int) -> Event:
        """Materialize the event at ``idx``."""
        return Event(
            idx,
            self.threads_tab.names[self.thread_ids[idx]],
            Op.NAMES[self.ops[idx]],
            self.target_name(idx),
            self.locs.get(idx),
        )

    def __getitem__(self, idx: int) -> Event:
        return self.event(idx)

    def __iter__(self) -> Iterator[Event]:
        thread_names = self.threads_tab.names
        op_names = Op.NAMES
        locs = self.locs
        for idx in range(len(self.ops)):
            yield Event(
                idx,
                thread_names[self.thread_ids[idx]],
                op_names[self.ops[idx]],
                self.target_name(idx),
                locs.get(idx),
            )

    def project(self, event_indices: Iterable[int],
                name: Optional[str] = None) -> "CompiledTrace":
        """The subsequence restricted to ``event_indices``, columnar.

        Events keep their relative order; indices are renumbered.  The
        intern tables are shared by reference (a projection never
        introduces new names), so the copy is just the three filtered
        int columns plus the remapped sparse location map — no
        ``Event`` objects.  Used by closure-set reorder/witness checks
        and windowed detectors on large closures.
        """
        wanted = sorted(set(event_indices))
        out = CompiledTrace.__new__(CompiledTrace)
        out.name = name or f"{self.name}|proj"
        out.ops = array("b", (self.ops[i] for i in wanted))
        out.thread_ids = array("i", (self.thread_ids[i] for i in wanted))
        out.target_ids = array("i", (self.target_ids[i] for i in wanted))
        out.threads_tab = self.threads_tab
        out.locks_tab = self.locks_tab
        out.vars_tab = self.vars_tab
        locs = self.locs
        if locs:
            out.locs = {
                new: locs[old] for new, old in enumerate(wanted) if old in locs
            }
        else:
            out.locs = {}
        return out

    def __repr__(self) -> str:
        return (
            f"CompiledTrace({self.name!r}, {len(self.ops)} events, "
            f"{len(self.threads_tab)} threads, {len(self.locks_tab)} locks, "
            f"{len(self.vars_tab)} vars)"
        )


class SourceMaps:
    """Per-kind id maps from one source's intern tables into ``names``.

    ``threads[i]`` is the id ``names`` gives the source's thread ``i``,
    and ``by_op[code]`` the map a target id of op ``code`` goes through
    (:func:`route_target`).  The maps grow with the source's tables:
    :meth:`update` interns the names the source gained since the last
    call into ``names`` and maps them.
    """

    __slots__ = ("names", "tables", "threads", "by_op", "identity", "_ids",
                 "_src")

    def __init__(self, names: "CompiledTrace", source: "CompiledTrace") -> None:
        self.names = names
        self.tables = source.tables()
        self._src = tuple(tab.names for tab in self.tables)
        self._ids: Tuple[List[int], List[int], List[int]] = ([], [], [])
        self.threads = self._ids[0]
        self.by_op = [route_target(code, *self._ids)
                      for code in range(len(Op.NAMES))]
        #: every map so far sends each id to itself
        self.identity = True

    def update(self) -> bool:
        """Map the names the source interned since the last call; returns
        whether there were any (three length checks when not)."""
        (tn, ln, vn), (tm, lm, vm) = self._src, self._ids
        if len(tn) == len(tm) and len(ln) == len(lm) and len(vn) == len(vm):
            return False
        for src, own, ids in zip(self._src, self.names.tables(), self._ids):
            n = len(ids)
            ids.extend([own.intern(name) for name in src[n:]])
            if self.identity and ids[n:] != list(range(n, len(ids))):
                self.identity = False
        return True

    def columns(self, source: "CompiledTrace"):
        """``source``'s (ops, thread ids, target ids) columns in the ids
        of ``names``: the columns themselves while the maps are the
        identity, else views that map each id as it is read."""
        ops = source.ops
        if self.identity:
            return ops, source.thread_ids, source.target_ids
        return (ops,
                _Mapped(ops, source.thread_ids, (self.threads,) * len(self.by_op)),
                _Mapped(ops, source.target_ids, self.by_op))


class _Mapped:
    """An id column read through the map its event's op code selects."""

    __slots__ = ("ops", "ids", "by_op")

    def __init__(self, ops, ids, by_op) -> None:
        self.ops = ops
        self.ids = ids
        self.by_op = by_op

    def __getitem__(self, i: int) -> int:
        return self.by_op[self.ops[i]][self.ids[i]]


class DetectorFeed:
    """The one event path into an int-keyed streaming detector.

    A detector owns its names as :attr:`names`, a :class:`CompiledTrace`
    that holds no events, and sizes its per-id state to those tables in
    ``_grow()``.  ``step(event)`` interns the event's names into them
    (:meth:`_intern`); :meth:`feed_batch` reads a source's columns
    through :class:`SourceMaps` (:meth:`_columns`), which cost an O(1)
    check per batch while the source's ids are the detector's own: a
    detector fed one session or one ``run()``, or a restored one fed a
    trace whose names come in the same order.  A detector also fed
    other sources or ``step()`` events reads each source through maps,
    so every event reaches it under its own names.  The maps of the
    last source fed are kept; checkpoints drop them.
    """

    def __init__(self) -> None:
        self.names = CompiledTrace("names")
        self._maps: Optional[SourceMaps] = None

    def _grow(self) -> None:
        """Size the per-id state to :attr:`names`' tables."""
        raise NotImplementedError

    def _intern(self, event: Event) -> Tuple[int, int, int]:
        """Intern one string event; returns (op code, tid, target id)."""
        names = self.names
        code = Op.CODE[event.op]
        ids = (code, names.threads_tab.intern(event.thread),
               names._intern_target(code, event.target))
        self._grow()
        return ids

    def _columns(self, compiled: "CompiledTrace"):
        """``compiled``'s columns in the detector's ids (see
        :meth:`SourceMaps.columns`)."""
        maps = self._maps
        if maps is None or maps.tables != compiled.tables():
            maps = self._maps = SourceMaps(self.names, compiled)
        if maps.update():
            self._grow()
        return maps.columns(compiled)

    def feed_batch(self, compiled: "CompiledTrace", lo: int, hi: int,
                   base: int = 0) -> None:
        """Consume one session batch: events ``[lo, hi)`` of ``compiled``.

        This is the one feed API every streaming consumer implements
        (see :mod:`repro.stream`): ``lo``/``hi`` index ``compiled``'s
        columns directly, and ``base`` is the global index of the
        trace's first retained event (non-zero only for bounded
        sessions that evicted a consumed prefix).  This implementation
        streams op codes and ids through
        ``_step_coded(op, tid, target_id, loc)``; detectors with a
        different coded signature override it.
        """
        ops, tids, targs = self._columns(compiled)
        locs = compiled.locs
        step = self._step_coded
        for i in range(lo, hi):
            step(ops[i], tids[i], targs[i], locs.get(i))


def compile_trace(trace_or_events, name: Optional[str] = None) -> CompiledTrace:
    """Compile a :class:`Trace` (or any event iterable) to columnar form."""
    if isinstance(trace_or_events, CompiledTrace):
        return trace_or_events
    compiled = getattr(trace_or_events, "compiled", None)
    if isinstance(compiled, CompiledTrace):
        return compiled
    inferred = name or getattr(trace_or_events, "name", None) or "trace"
    return CompiledTrace.from_events(trace_or_events, name=inferred)


# -- chunked streaming STD reader -------------------------------------------

_CHUNK_SIZE = 1 << 20  # 1 MiB of decompressed text per read


class TraceReadError(Exception):
    """A ``.std`` / ``.std.gz`` file could not be read: truncated gzip
    stream, corrupt deflate data, undecodable bytes, or an IO error
    mid-read.  Typed and recoverable — carries the path, the
    (decompressed) byte offset reached, and how many events had
    already parsed, so campaign runners can report the cell precisely
    instead of crashing the run.
    """

    def __init__(self, path: str, detail: str,
                 byte_offset: Optional[int] = None,
                 events_parsed: Optional[int] = None) -> None:
        self.path = path
        self.detail = detail
        self.byte_offset = byte_offset
        self.events_parsed = events_parsed
        msg = f"{path}: unreadable trace: {detail}"
        if byte_offset is not None:
            msg += f" (at decompressed byte offset {byte_offset}"
            if events_parsed is not None:
                msg += f", after {events_parsed} parsed event(s)"
            msg += ")"
        super().__init__(msg)


def _iter_std_lines(path: str, chunk_size: int = _CHUNK_SIZE,
                    state: Optional[dict] = None) -> Iterator[str]:
    """Yield lines of a ``.std`` / ``.std.gz`` file, reading in chunks.

    Decompression and line splitting are incremental: memory stays
    bounded by ``chunk_size`` regardless of trace length.  A line ends
    at ``\n``, ``\r\n`` or a lone ``\r`` (Python's universal
    newlines), but the file is read untranslated so that, when a
    ``state`` dict is passed, ``state["offset"]`` counts exactly the
    decompressed bytes consumed so far (error diagnostics).
    """
    import repro.faults as faults

    if path.endswith(".gz"):
        import gzip

        fh = gzip.open(path, "rt", encoding="utf-8", newline="")
    else:
        fh = open(path, "r", encoding="utf-8", newline="")
    try:
        tail = ""
        while True:
            faults.fire("std_read", path=path)
            chunk = fh.read(chunk_size)
            if not chunk:
                break
            obs.count("trace.chunks")
            obs.count("trace.chunk_chars", len(chunk))
            if state is not None:
                state["offset"] = state.get("offset", 0) + \
                    len(chunk.encode("utf-8", "surrogatepass"))
            chunk = tail + chunk
            held = ""
            if "\r" in chunk:   # a cheap scan keeps \n-only files fast
                # A trailing \r may be the first half of a \r\n split
                # across two reads, so it stays in the tail for the
                # next chunk to decide.
                if chunk.endswith("\r"):
                    chunk, held = chunk[:-1], "\r"
                chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
            lines = chunk.split("\n")
            tail = lines.pop() + held
            yield from lines
        if tail:
            yield tail.rstrip("\r")
    finally:
        fh.close()


def parse_compiled(lines: Iterable[str], name: str = "trace") -> CompiledTrace:
    """Parse STD-format lines directly into a :class:`CompiledTrace`.

    The STD dialect (see :mod:`repro.trace.parser`): comments, blank
    lines and an optional location field.  Names and op codes are
    interned as they are read, without building ``Event`` objects.
    """
    out = CompiledTrace(name)
    parse_std_into(out, lines)
    return out


def parse_std_into(out: CompiledTrace, lines: Iterable[str],
                   start_lineno: int = 1) -> int:
    """Parse STD-format lines, *appending* to ``out``; returns the next
    line number.

    The incremental core of :func:`parse_compiled`: a streaming session
    can keep calling this with successive line batches of one file
    (passing the returned line number back in) and the appended columns
    are byte-identical to a one-shot parse.

    Traces repeat a few heads (the text before the first ``|``) and
    tails (the rest) many times, so within one call each distinct head
    is interned once and each distinct tail without a location field
    is parsed once; a line with a location takes the full path and is
    not remembered, so the memos stay as small as the intern tables.
    A remembered tail parsed without error, and its names were interned
    when it was first seen, so a hit changes neither the columns, the
    intern order nor the errors.
    """
    from repro.trace.parser import ParseError

    _n0 = len(out) if obs.enabled() else 0
    op_codes = Op.CODE
    threads_tab = out.threads_tab
    append_coded = out.append_coded
    intern_target = out._intern_target
    heads: Dict[str, int] = {}                   # head -> thread id
    tails: Dict[str, Tuple[int, int]] = {}       # tail -> (op, target id)
    lineno = start_lineno - 1
    for lineno, raw in enumerate(lines, start=start_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # thread | op ( target ) [| loc] — target may contain '|' but
        # not ')'.
        head, bar, rest0 = line.partition("|")
        tail = tails.get(rest0)
        if tail is None or not head:
            op, paren, rest = rest0.partition("(")
            code = op_codes.get(op)
            close = rest.find(")")
            if code is None or not head or not bar or not paren or close < 0:
                raise ParseError(lineno, line, "malformed event")
            after = rest[close + 1:]
            if after and not after.startswith("|"):
                raise ParseError(lineno, line, "malformed event")
            target = rest[:close].strip()
            if not target:
                raise ParseError(lineno, line, "empty target")
        tid = heads.get(head)
        if tid is None:
            tid = heads[head] = threads_tab.intern(head.strip())
        if tail is None:
            # interned after the thread: fork/join targets share its table
            target_id = intern_target(code, target)
            if after:
                append_coded(code, tid, target_id,
                             after[1:].strip() if len(after) > 1 else None)
                continue
            tail = tails[rest0] = (code, target_id)
        append_coded(tail[0], tid, tail[1])
    if obs.enabled():
        obs.count("trace.events_parsed", len(out) - _n0)
    return lineno + 1


def load_compiled_trace(path: str, name: str = "") -> CompiledTrace:
    """Stream-parse a trace file into compiled columnar form.

    The fast path for big logged traces: one pass, chunked IO, interned
    names, no intermediate ``Event`` objects or whole-file string.

    A file that cannot be *read* — truncated or bit-flipped gzip
    stream, undecodable bytes, IO error mid-stream — raises
    :class:`TraceReadError` identifying the byte offset and the number
    of events already parsed.  A missing file stays a plain
    ``FileNotFoundError``, and a malformed event line stays a
    ``ParseError`` with its line number.
    """
    import zlib

    out = CompiledTrace(name or path)
    state = {"offset": 0}
    _t0 = time.monotonic_ns() if obs.enabled() else 0
    try:
        parse_std_into(out, _iter_std_lines(path, state=state))
    except FileNotFoundError:
        raise
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise TraceReadError(path, str(exc), byte_offset=state["offset"],
                             events_parsed=len(out)) from exc
    if _t0:
        obs.record_span("trace.load", _t0, time.monotonic_ns(),
                        cat="trace", path=path, events=len(out))
    return out
