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
  per-coordinate queues, discarding swallowed entries forever
  (Corollary 4.5);
- every instantiation is eventually examined with its trace-last
  acquire pinned, so the detector reports an abstract pattern iff
  SPDOffline (capped at K) does on the same trace — tested against it
  on random traces.

Signatures are interned-id tuples ``(tid, lid, frozenset(lids))``;
reports translate back to names.  Size-2 contexts are the parent's.
Closure state lives per thread for every size: a K-context (size ≥ 3)
is its signatures, per-coordinate queue cursors and reported flag, and
a check walks on a transient clone of ``P[new]``, the pinned acquire's
prefix closure (shared with its size-2 checks), computed with the
other coordinates' candidates' predecessor clocks.

Why the check is exact.  Algorithm 4's persistent closure per context
takes, at a check pinning ``new`` at coordinate ``p``, ``c_pred(new)``
and then each candidate's predecessor clock as seeds.  A check here
first moves ``p``'s cursor to ``new``, the last entry of its queue (the
pin rule): every earlier entry there is an earlier acquire of
``new``'s thread, inside ``c_pred(new)``.  So every seed the persistent
closure ever took lies below
``S = c_pred(new) ⊔ ⨆_{j≠p} pred(queue_j[cursor_j])``: earlier pins,
earlier candidates and ``c_pred``s joined before an early return all
sit at or before a cursor, in one thread's queue, along which
predecessor clocks only grow; and every term of ``S`` is such a seed.
The closure is extensive, monotone and idempotent, and it reaches
history appended since its last compute through slot growth (see
:mod:`repro.core.spd_online`), so the persistent closure is
``SPClosure(S)``, the clock the clone computes: the cursors stop at the
same entries and the reports match (``tests/test_prefix_seed.py``
keeps persistent closures as its oracle).  The walk has no epoch
prefilter: a cursor moved without a compute could leave the cursors
different from the persistent closure's.

Worst-case time adds the cycle-enumeration factor that Theorem 3.1
says is unavoidable; with the signature count small (as in practice),
the streaming pass stays near-linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
    """A live abstract deadlock pattern: its signature cycle and the
    per-coordinate queue cursors."""

    signatures: Tuple[Signature, ...]
    cursors: List[int]
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
        self._succ: Dict[int, Set[int]] = {}
        # Per-signature acquire queues (any-size analog of _acq_seq).
        self._sig_entries: Dict[Signature, List[CSRecord]] = {}
        # Live contexts, indexed by member signature.
        self._contexts: List[_Context] = []
        self._contexts_of_sig: Dict[Signature, List[_Context]] = {}
        self.k_reports: List[OnlineKReport] = []

    # -- graph maintenance -------------------------------------------------

    def _add_signature(self, sig: Signature) -> None:
        idx = len(self._sigs)
        self._sigs.append(sig)
        self._succ[idx] = set()
        t1, l1, held1 = sig
        for j, (t2, l2, held2) in enumerate(self._sigs[:-1]):
            # edge sig -> other: l1 ∈ held2, threads differ, held disjoint
            if t1 != t2 and l1 in held2 and not (held1 & held2):
                self._succ[idx].add(j)
            if t2 != t1 and l2 in held1 and not (held2 & held1):
                self._succ[j].add(idx)
        self._register_new_cycles(idx)

    def _register_new_cycles(self, start: int) -> None:
        """Simple cycles through the new node, length 3..max_size, each
        found once, as a path from the new node that an edge back to it
        closes."""
        succ = self._succ
        path = [start]
        on_path = {start}

        def dfs(node: int) -> None:
            if len(path) == self.max_size:
                if start in succ[node]:
                    self._maybe_register(tuple(self._sigs[i] for i in path))
                return
            for nxt in succ[node]:
                if nxt == start and len(path) >= 3:
                    self._maybe_register(tuple(self._sigs[i] for i in path))
                elif nxt not in on_path:
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
        ctx = _Context(signatures=cycle, cursors=[0] * k)
        self._contexts.append(ctx)
        for sig in cycle:
            self._contexts_of_sig.setdefault(sig, []).append(ctx)

    # -- event handling -------------------------------------------------------

    def _handle_acquire(self, tid: int, lid: int, loc: Optional[str],
                        clock: VectorClock):
        guarded = super()._handle_acquire(tid, lid, loc, clock)
        if guarded is None or self.max_size < 3:
            return guarded
        rec, prefix = guarded
        sig: Signature = (tid, lid, frozenset(self._held[tid][:-1]))
        entries = self._sig_entries.get(sig)
        if entries is None:
            self._sig_entries[sig] = entries = []
            self._add_signature(sig)
        entries.append(rec)   # the record queued for the size-2 checks
        for ctx in self._contexts_of_sig.get(sig, ()):
            if not ctx.reported:
                prefix = self._check_context(
                    ctx, ctx.signatures.index(sig), rec, prefix)
        return rec, prefix

    def _check_context(self, ctx: _Context, pin: int, new: CSRecord,
                       prefix):
        """Algorithm 2 with ``new`` pinned at coordinate ``pin``, on a
        clone of ``P[new]`` (``prefix``, computed here if still None,
        and returned) made at its first compute (see the module
        docstring)."""
        sigs = ctx.signatures
        cursors = ctx.cursors
        queues = [self._sig_entries[s] for s in sigs]
        cursors[pin] = len(queues[pin]) - 1   # the pin rule
        joint = None
        while True:
            candidate: List[CSRecord] = []
            for queue, i in zip(queues, cursors):
                if i >= len(queue):
                    return prefix  # some coordinate has no candidate yet
                candidate.append(queue[i])
            seed = VectorClock(0)
            seed.join_many(e.pred_ts for e in candidate if e is not new)
            if joint is None:
                if prefix is None:
                    prefix = self._prefix_closure(new.slot, new.pred_ts)
                joint = self._joint_closure(prefix)
            t_clock = joint.compute(seed)
            swallowed = False
            for j, queue in enumerate(queues):
                if j == pin:
                    continue
                i = cursors[j]
                # Epoch test for closure membership of each queued acquire.
                while i < len(queue) and (
                    queue[i].acq_val <= t_clock.component(queue[i].slot)
                ):
                    i += 1
                if i != cursors[j]:
                    swallowed = True
                cursors[j] = i
            if not swallowed:
                if all(e.acq_val > t_clock.component(e.slot)
                       for e in candidate):
                    ctx.reported = True
                    self.k_reports.append(
                        OnlineKReport(
                            events=tuple(e.acq_idx for e in candidate),
                            locations=tuple(_location(e) for e in candidate),
                            signatures=tuple(
                                self._named_signature(s) for s in sigs
                            ),
                        )
                    )
                return prefix

    # -- checkpoint / restore hooks ----------------------------------------

    def _checkpoint_extra(self, state: Dict) -> None:
        """Serialize contexts as plain ``(signatures, cursors,
        reported)`` tuples (see SPDOnline.checkpoint), so that a blob
        does not name the class; the index by signature is rebuilt."""
        state.pop("_contexts_of_sig", None)
        state["_contexts"] = [
            (ctx.signatures, list(ctx.cursors), ctx.reported)
            for ctx in self._contexts
        ]

    def _restore_extra(self) -> None:
        contexts: List[_Context] = []
        index: Dict[Signature, List[_Context]] = {}
        for item in self._contexts:
            if not isinstance(item, tuple) or len(item) != 3:
                raise ValueError(
                    f"stale {type(self).__name__} checkpoint: its contexts "
                    "are not in the (signatures, cursors, reported) form, "
                    "without a closure; re-feed the stream instead"
                )
            signatures, cursors, reported = item
            ctx = _Context(signatures=signatures, cursors=cursors,
                           reported=reported)
            contexts.append(ctx)
            for sig in signatures:
                index.setdefault(sig, []).append(ctx)
        self._contexts = contexts
        self._contexts_of_sig = index
        # Cycle search (so K report order) follows the successor sets'
        # iteration order; refilled in ascending order, the order they
        # were filled in, they iterate as before the pickle round trip.
        self._succ = {i: set(sorted(succ)) for i, succ in self._succ.items()}

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
