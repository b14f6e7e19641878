"""SPDOnline-K: streaming sync-preserving deadlocks of any size ≤ K.

The paper's SPDOnline restricts itself to size-2 deadlocks because
cycles of length 2 need no graph traversal (Section 5); it names
extending online coverage while keeping efficiency as future work.
This module is that extension:

- the **abstract lock graph is maintained incrementally** — nodes
  (abstract-acquire signatures) and their edges only change when a
  *new signature* first appears, at which point the new simple cycles
  through it (length ≤ K) are enumerated and the abstract deadlock
  patterns among them become live *contexts*;
- each context runs the Algorithm 2 pointer walk **with the newest
  event pinned**: when an acquire of signature s arrives, every
  context containing s tries to complete an instantiation from its
  per-coordinate queues, reusing its closure clock monotonically
  (Proposition 4.4) and discarding swallowed entries forever
  (Corollary 4.5);
- every instantiation is eventually examined with its trace-last
  acquire pinned, so the detector reports an abstract pattern iff
  SPDOffline (capped at K) does on the same trace — tested against it
  on random traces.

Signatures are interned-id tuples ``(tid, lid, frozenset(lids))``;
reports translate back to names.  Closure membership checks use the
same O(1) epoch comparisons as the parent.  Size-2 contexts are the
parent's: each keeps only a queue cursor, and its checks read the
per-thread prefix closures.  A K-context (size ≥ 3) keeps its own
persistent :class:`~repro.core.closure.SPClosure`, started fresh, since
its seeds join the predecessors of acquires on several threads.

Worst-case time adds the cycle-enumeration factor that Theorem 3.1
says is unavoidable; with the signature count small (as in practice),
the streaming pass stays near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.closure import SPClosure
from repro.core.spd_online import SPDOnline, _location
from repro.locks.history import CSRecord
from repro.vc.clock import VectorClock

#: Interned signature: (thread id, lock id, held lock ids).
Signature = Tuple[int, int, FrozenSet[int]]
#: Name-level signature, as exposed in reports.
NamedSignature = Tuple[str, str, FrozenSet[str]]


@dataclass
class OnlineKReport:
    """A streaming deadlock report of any size."""

    events: Tuple[int, ...]
    locations: Tuple[str, ...]
    signatures: Tuple[NamedSignature, ...]

    @property
    def bug_id(self) -> Tuple[str, ...]:
        return tuple(sorted(self.locations))

    @property
    def size(self) -> int:
        return len(self.events)


@dataclass
class _Context:
    """A live abstract deadlock pattern: its signature cycle, the
    per-coordinate cursors, and the reusable closure."""

    signatures: Tuple[Signature, ...]
    cursors: List[int]
    closure: SPClosure
    reported: bool = False


class SPDOnlineK(SPDOnline):
    """Streaming detector for sync-preserving deadlocks of size ≤ K.

    Size-2 contexts are handled by the inherited machinery; this class
    adds the graph-driven contexts for 3 ≤ size ≤ ``max_size``.
    """

    def __init__(self, max_size: int = 3,
                 max_memory_events: Optional[int] = None) -> None:
        if max_memory_events is not None:
            raise ValueError(
                "bounded-memory eviction is supported by the size-2 "
                "SPDOnline only (K-contexts hold cursors into the shared "
                "acquire queues that eviction would invalidate)"
            )
        super().__init__()
        if max_size < 2:
            raise ValueError("max_size must be at least 2")
        self.max_size = max_size
        # Incremental ALG over signatures.
        self._sigs: List[Signature] = []
        self._sig_index: Dict[Signature, int] = {}
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        # Per-signature acquire queues (any-size analog of _acq_seq).
        self._sig_entries: Dict[Signature, List[CSRecord]] = {}
        # Live contexts, indexed by member signature.
        self._contexts: List[_Context] = []
        self._contexts_of_sig: Dict[Signature, List[_Context]] = {}
        self.k_reports: List[OnlineKReport] = []

    # -- graph maintenance -------------------------------------------------

    def _add_signature(self, sig: Signature) -> None:
        idx = len(self._sigs)
        self._sig_index[sig] = idx
        self._sigs.append(sig)
        self._succ[idx] = set()
        self._pred[idx] = set()
        t1, l1, held1 = sig
        for j, (t2, l2, held2) in enumerate(self._sigs[:-1]):
            # edge sig -> other: l1 ∈ held2, threads differ, held disjoint
            if t1 != t2 and l1 in held2 and not (held1 & held2):
                self._succ[idx].add(j)
                self._pred[j].add(idx)
            if t2 != t1 and l2 in held1 and not (held2 & held1):
                self._succ[j].add(idx)
                self._pred[idx].add(j)
        self._register_new_cycles(idx)

    def _register_new_cycles(self, start: int) -> None:
        """Simple cycles through the new node, length 3..max_size."""
        path = [start]
        on_path = {start}

        def dfs(node: int) -> None:
            for nxt in self._succ[node]:
                if nxt == start and len(path) >= 3:
                    self._maybe_register(tuple(self._sigs[i] for i in path))
                elif nxt > start:
                    continue  # canonical: only nodes older than start... (new node is max index)
                elif nxt not in on_path and len(path) < self.max_size:
                    path.append(nxt)
                    on_path.add(nxt)
                    dfs(nxt)
                    on_path.discard(nxt)
                    path.pop()

        dfs(start)

    def _maybe_register(self, cycle: Tuple[Signature, ...]) -> None:
        k = len(cycle)
        threads = {s[0] for s in cycle}
        locks = {s[1] for s in cycle}
        if len(threads) != k or len(locks) != k:
            return
        for i in range(k):
            for j in range(i + 1, k):
                if cycle[i][2] & cycle[j][2]:
                    return
        ctx = _Context(
            signatures=cycle,
            cursors=[0] * k,
            closure=SPClosure(self.histories),
        )
        self._contexts.append(ctx)
        for sig in cycle:
            self._contexts_of_sig.setdefault(sig, []).append(ctx)

    # -- event handling -------------------------------------------------------

    def _handle_acquire(self, tid: int, lid: int, loc: Optional[str],
                        clock: VectorClock) -> None:
        held_before = frozenset(self._held[tid])
        super()._handle_acquire(tid, lid, loc, clock)
        if not held_before or self.max_size < 3:
            return
        sig: Signature = (tid, lid, held_before)
        entries = self._sig_entries.get(sig)
        if entries is None:
            self._sig_entries[sig] = entries = []
            self._add_signature(sig)
        # The parent queued this acquire's record for size-2; queue the
        # same record here.
        last = self._acq_seq[(tid, lid, next(iter(held_before)))][-1]
        entries.append(last)
        for ctx in self._contexts_of_sig.get(sig, ()):
            self._check_context(ctx, sig, last)

    def _check_context(self, ctx: _Context, sig: Signature,
                       new_entry: CSRecord) -> None:
        """Algorithm 2 with the newest event pinned at sig's coordinate."""
        if ctx.reported:
            return
        pin = ctx.signatures.index(sig)
        k = len(ctx.signatures)
        ctx.closure.join_seed(new_entry.pred_ts)
        while True:
            candidate: List[Optional[CSRecord]] = [None] * k
            candidate[pin] = new_entry
            for j in range(k):
                if j == pin:
                    continue
                queue = self._sig_entries.get(ctx.signatures[j], [])
                if ctx.cursors[j] >= len(queue):
                    return  # some coordinate has no candidate yet
                candidate[j] = queue[ctx.cursors[j]]
            seed = None
            for entry in candidate:
                if seed is None:
                    seed = entry.pred_ts.copy()
                else:
                    seed.join_with(entry.pred_ts)
            t_clock = ctx.closure.compute(seed)
            swallowed = False
            for j in range(k):
                if j == pin:
                    continue
                queue = self._sig_entries.get(ctx.signatures[j], [])
                i = ctx.cursors[j]
                # Epoch test for closure membership of each queued acquire.
                while i < len(queue) and (
                    queue[i].acq_val <= t_clock.component(queue[i].slot)
                ):
                    i += 1
                if i != ctx.cursors[j]:
                    swallowed = True
                ctx.cursors[j] = i
            if not swallowed:
                if all(e.acq_val > t_clock.component(e.slot)
                       for e in candidate):
                    ctx.reported = True
                    self.k_reports.append(
                        OnlineKReport(
                            events=tuple(e.acq_idx for e in candidate),
                            locations=tuple(_location(e) for e in candidate),
                            signatures=tuple(
                                self._named_signature(s) for s in ctx.signatures
                            ),
                        )
                    )
                return

    # -- checkpoint / restore hooks ----------------------------------------

    def _checkpoint_extra(self, state: Dict) -> None:
        """Serialize contexts as plain tuples (see SPDOnline.checkpoint).

        A pickled :class:`_Context` would drag its closure's cursor rows
        along; the canonical form — signatures, cursors, the closure's
        canonical clock, the reported flag — rebuilds bit-identically.
        """
        state.pop("_contexts_of_sig", None)
        state["_contexts"] = [
            (ctx.signatures, list(ctx.cursors),
             ctx.closure.canonical_clock(), ctx.reported)
            for ctx in self._contexts
        ]

    def _restore_extra(self) -> None:
        contexts: List[_Context] = []
        index: Dict[Signature, List[_Context]] = {}
        for item in self._contexts:
            if not isinstance(item, tuple):
                raise ValueError(
                    f"stale {type(self).__name__} checkpoint: its contexts "
                    "are pickled objects, not the canonical (signatures, "
                    "cursors, clock, reported) form; re-feed the stream "
                    "instead"
                )
            signatures, cursors, clock_values, reported = item
            ctx = _Context(signatures=signatures, cursors=cursors,
                           closure=self._closure_from(clock_values),
                           reported=reported)
            contexts.append(ctx)
            for sig in signatures:
                index.setdefault(sig, []).append(ctx)
        self._contexts = contexts
        self._contexts_of_sig = index

    def _named_signature(self, sig: Signature) -> NamedSignature:
        tid, lid, held = sig
        lock_names = self.names.locks_tab.names
        return (
            self.names.threads_tab.names[tid],
            lock_names[lid],
            frozenset(lock_names[h] for h in held),
        )


def spd_online_k(trace, max_size: int = 3) -> SPDOnlineK:
    """Run :class:`SPDOnlineK` over a complete trace."""
    det = SPDOnlineK(max_size=max_size)
    det.run(trace)
    return det
