"""The :class:`Trace` container: a string-keyed view over columnar data.

A trace is canonically a :class:`~repro.trace.compiled.CompiledTrace`
(interned int columns) plus a :class:`~repro.trace.index.TraceIndex`
(derived relations as int arrays).  ``Trace`` wraps the pair behind the
classic string-keyed API of Section 2 of the paper:

- thread order ``<=TO`` (via per-thread positions),
- the reads-from function ``rf`` (last writer per variable),
- matching acquire/release pairs (``match``),
- held-lock sets ``HeldLks(e)`` for every event,
- lock nesting depth.

The view is thin: constructing a ``Trace`` from a compiled trace is
O(1), derived relations are answered from the index's int columns, and
``Event`` objects are materialized lazily — only when somebody actually
iterates or subscripts.  Detector hot paths read the index columns
directly and never pay for either.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.trace.compiled import CompiledTrace
from repro.trace.events import Event, Op
from repro.trace.index import TraceError, TraceIndex

__all__ = ["Trace", "TraceError", "as_trace"]


class Trace:
    """An immutable, analyzed execution trace.

    Args:
        events: the event sequence — a :class:`CompiledTrace` is
            adopted as-is (O(1)); any other event iterable is compiled.
            Indices always match positions: ``trace[i].idx == i``.
        name: optional label used in reports and benchmarks.
    """

    __slots__ = ("_compiled", "_index", "_events", "name",
                 "_threads", "_locks", "_vars", "_held_names")

    def __init__(self, events: Iterable[Event], name: str = "trace") -> None:
        if isinstance(events, CompiledTrace):
            self._compiled = events
        else:
            self._compiled = CompiledTrace.from_events(events, name=name)
        self.name = name
        self._index: Optional[TraceIndex] = None
        self._events: Optional[List[Event]] = None
        self._threads: Optional[List[str]] = None
        self._locks: Optional[List[str]] = None
        self._vars: Optional[List[str]] = None
        self._held_names: dict = {}

    # -- columnar access ----------------------------------------------------

    @property
    def compiled(self) -> CompiledTrace:
        """The underlying interned columnar representation."""
        return self._compiled

    @property
    def index(self) -> TraceIndex:
        """Derived relations as int columns (computed once, cached)."""
        if self._index is None:
            self._index = TraceIndex(self._compiled)
        return self._index

    # -- basic sequence protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._compiled)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, idx: int) -> Event:
        return self.events[idx]

    @property
    def events(self) -> Sequence[Event]:
        """The materialized event list (built lazily, cached)."""
        if self._events is None:
            self._events = list(self._compiled)
        return self._events

    # -- derived relations ----------------------------------------------------

    @property
    def threads(self) -> List[str]:
        """Thread identifiers in order of first appearance."""
        if self._threads is None:
            names = self._compiled.threads_tab.names
            self._threads = [names[t] for t in self.index.thread_order]
        return self._threads

    @property
    def locks(self) -> List[str]:
        if self._locks is None:
            names = self._compiled.locks_tab.names
            self._locks = [names[lk] for lk in self.index.lock_order]
        return self._locks

    @property
    def variables(self) -> List[str]:
        if self._vars is None:
            names = self._compiled.vars_tab.names
            self._vars = [names[v] for v in self.index.var_order]
        return self._vars

    def events_of_thread(self, thread: str) -> List[int]:
        """Indices of the events of ``thread``, in trace order."""
        tid = self._compiled.threads_tab.get(thread)
        if tid is None or tid >= len(self.index.events_by_thread):
            return []
        return self.index.events_by_thread[tid]

    def acquires_of_lock(self, lock: str) -> List[int]:
        """Indices of all acquire events on ``lock``, in trace order."""
        lid = self._compiled.locks_tab.get(lock)
        if lid is None or lid >= len(self.index.acquires_by_lock):
            return []
        return self.index.acquires_by_lock[lid]

    def rf(self, read_idx: int) -> Optional[int]:
        """Index of the write the read at ``read_idx`` reads from.

        ``None`` means the read observes the initial value.  (The paper
        assumes every read has a preceding write; we tolerate initial
        reads, which then constrain nothing.)
        """
        index = self.index
        if self._compiled.ops[read_idx] != Op.CODE[Op.READ]:
            raise ValueError(f"rf of non-read event {self._compiled.event(read_idx)}")
        w = index.rf[read_idx]
        return w if w >= 0 else None

    def match(self, idx: int) -> Optional[int]:
        """Matching release of an acquire (or vice versa), if present."""
        m = self.index.match[idx]
        return m if m >= 0 else None

    def held_locks(self, idx: int) -> Tuple[str, ...]:
        """``HeldLks(e)``: locks held by ``thread(e)`` right before ``e``."""
        index = self.index
        hid = index.held_id[idx]
        names = self._held_names.get(hid)
        if names is None:
            lock_names = self._compiled.locks_tab.names
            off = index.held_offsets[hid]
            names = tuple(
                lock_names[lk]
                for lk in index.held_pool[off:off + index.held_lengths[hid]]
            )
            self._held_names[hid] = names
        return names

    def thread_order_leq(self, a: int, b: int) -> bool:
        """``a <=TO b``: same thread and ``a`` not after ``b``."""
        index = self.index
        tids = self._compiled.thread_ids
        return tids[a] == tids[b] and index.thread_pos[a] <= index.thread_pos[b]

    def thread_position(self, idx: int) -> Tuple[str, int]:
        """(thread, per-thread position) of the event at ``idx``."""
        pos = self.index.thread_pos[idx]
        return self._compiled.threads_tab.names[self._compiled.thread_ids[idx]], pos

    def thread_predecessor(self, idx: int) -> Optional[int]:
        """Index of the immediately preceding event in the same thread."""
        p = self.index.thread_pred[idx]
        return p if p >= 0 else None

    @property
    def lock_nesting_depth(self) -> int:
        """Max ``|HeldLks(e)| + 1`` over acquire events (paper Section 2)."""
        return self.index.lock_nesting_depth

    def num_acquires(self) -> int:
        return self.index.num_acquires

    # -- slicing / projection ---------------------------------------------

    def project(self, event_indices: Iterable[int], name: Optional[str] = None) -> "Trace":
        """The subsequence of this trace restricted to ``event_indices``.

        Events keep their relative order; indices are renumbered.  This
        is how closure sets are turned into candidate reorderings
        (Lemma 4.1 in the paper).  The projection happens on the
        compiled columns — no ``Event`` objects are materialized.
        """
        out_name = name or f"{self.name}|proj"
        return Trace(self._compiled.project(event_indices, name=out_name),
                     name=out_name)

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self._compiled)} events)"


def as_trace(trace, name: Optional[str] = None) -> Trace:
    """Adapt any trace form to a :class:`Trace` view, cheaply.

    A ``Trace`` passes through; a :class:`CompiledTrace` is wrapped in
    O(1) (no event materialization, unlike the old
    ``CompiledTrace.to_trace`` round-trip); any other event iterable is
    compiled.  Every detector entry point funnels through here.
    """
    if isinstance(trace, Trace):
        return trace
    if isinstance(trace, CompiledTrace):
        return Trace(trace, name=name or trace.name)
    return Trace(trace, name=name or getattr(trace, "name", None) or "trace")
