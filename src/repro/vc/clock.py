"""Vector clocks: timestamps mapping threads to local-event counts.

The paper (Section 4.3) uses timestamps ``T : Threads -> N`` with
pointwise comparison ``⊑`` and pointwise maximum ``⊔``.  This module
provides a compact mutable implementation over a fixed thread universe
(threads are interned to integer slots for speed), plus the two
representation tricks the analysis hot paths are built on:

- **copy-on-write snapshots** — :meth:`VectorClock.snapshot` shares the
  underlying component list between the live clock and the snapshot;
  the list is copied lazily, on the next mutation of either side.  A
  streaming detector that snapshots a thread's clock at every acquire,
  release, and write therefore pays at most one list copy per event
  (at the thread's next tick) instead of one per snapshot.

- **epochs** — an :class:`Epoch` is a scalar ``c@t`` summarizing a full
  clock by one component.  For any snapshot ``S`` exported by a thread
  ``t`` whose own component is ``c`` (a *canonical* snapshot, which is
  what every protocol in this repo exports), ``S ⊑ V  ⟺  c ≤ V[t]``:
  clocks only learn about ``t``'s time by (transitively) joining ``t``'s
  canonical snapshots, so knowing time ``c`` implies knowing everything
  ``t`` knew at time ``c``.  This turns the O(threads) ``⊑`` checks of
  the closure fix-point into O(1) integer comparisons, falling back to
  the full clock only where an actual join is required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


class VectorClock:
    """A timestamp over a fixed ordered thread universe.

    The clock stores one integer per thread slot.  Instances sharing a
    universe may be compared and joined; mixing universes is an error
    caught by length mismatch.
    """

    __slots__ = ("_v", "_shared")

    def __init__(self, size_or_values) -> None:
        if isinstance(size_or_values, int):
            self._v: List[int] = [0] * size_or_values
        else:
            self._v = list(size_or_values)
        self._shared = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def bottom(cls, size: int) -> "VectorClock":
        """The least timestamp (all zeros)."""
        return cls(size)

    def copy(self) -> "VectorClock":
        """An independent copy (copy-on-write; the list copy is lazy)."""
        return self.snapshot()

    def snapshot(self) -> "VectorClock":
        """A frozen-in-time view sharing storage until either side mutates.

        Taking a snapshot is O(1).  Both the snapshot and the live clock
        stay fully functional mutable clocks; whichever mutates first
        pays the one list copy.
        """
        self._shared = True
        out = VectorClock.__new__(VectorClock)
        out._v = self._v
        out._shared = True
        return out

    def _own(self) -> None:
        """Materialize a private component list before mutating."""
        if self._shared:
            self._v = list(self._v)
            self._shared = False

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._v)

    def __getitem__(self, slot: int) -> int:
        return self._v[slot]

    def __setitem__(self, slot: int, value: int) -> None:
        self._own()
        self._v[slot] = value

    def component(self, slot: int) -> int:
        """``self[slot]`` with missing components reading as zero."""
        v = self._v
        return v[slot] if slot < len(v) else 0

    def values(self) -> Sequence[int]:
        return tuple(self._v)

    def tick(self, slot: int) -> None:
        """Increment the local component of ``slot``, growing if needed."""
        self._own()
        v = self._v
        if len(v) <= slot:
            v.extend([0] * (slot + 1 - len(v)))
        v[slot] += 1

    def _ensure(self, size: int) -> None:
        """Grow to at least ``size`` slots (new components are zero)."""
        if len(self._v) < size:
            self._own()
            self._v.extend([0] * (size - len(self._v)))

    # -- lattice operations --------------------------------------------------
    #
    # Clocks of different lengths compare by padding the shorter one
    # with zeros: a thread that has not yet appeared contributes no
    # events.  This lets streaming analyses grow the thread universe
    # mid-run without rewriting stored timestamps.

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise ``⊑`` (missing components are zero)."""
        a, b = self._v, other._v
        if a is b:
            return True
        la, lb = len(a), len(b)
        if la > lb:
            for i in range(lb, la):
                if a[i]:
                    return False
            la = lb
        for i in range(la):
            if a[i] > b[i]:
                return False
        return True

    def join_with(self, other: "VectorClock") -> bool:
        """In-place pointwise ``⊔``; returns True if self changed."""
        b = other._v
        a = self._v
        if a is b:
            return False
        lb = len(b)
        if len(a) < lb:
            self._ensure(lb)
            a = self._v
        changed = False
        for i in range(lb):
            y = b[i]
            if y > a[i]:
                if not changed:
                    self._own()
                    a = self._v
                    changed = True
                a[i] = y
        return changed

    def join_update(self, other: "VectorClock") -> Tuple[int, ...]:
        """In-place ``⊔`` returning the tuple of slots that grew.

        The changed-slot report is what drives dirty-lock worklists in
        the closure engines: a grown slot ``s`` can only unlock progress
        for critical sections of the thread interned at ``s``.
        """
        b = other._v
        a = self._v
        if a is b:
            return ()
        lb = len(b)
        if len(a) < lb:
            self._ensure(lb)
            a = self._v
        changed: List[int] = []
        for i in range(lb):
            y = b[i]
            if y > a[i]:
                if not changed:
                    self._own()
                    a = self._v
                a[i] = y
                changed.append(i)
        return tuple(changed)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Pure pointwise ``⊔``."""
        out = self.copy()
        out.join_with(other)
        return out

    def join_many(self, clocks: Iterable["VectorClock"]) -> bool:
        """In-place ``⊔`` over a batch; returns True if self changed.

        Folds :meth:`join_with` left to right, so the patch-on-enable
        telemetry wrappers of :mod:`repro.obs` observe every join.
        """
        changed = False
        for c in clocks:
            changed = self.join_with(c) or changed
        return changed

    # -- epochs --------------------------------------------------------------

    def epoch(self, slot: int) -> "Epoch":
        """The ``self[slot] @ slot`` epoch of this clock."""
        return Epoch(self.component(slot), slot)

    # -- comparisons ---------------------------------------------------------

    def _stripped(self) -> tuple:
        v = self._v
        n = len(v)
        while n > 0 and v[n - 1] == 0:
            n -= 1
        return tuple(v[:n])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._stripped() == other._stripped()

    def __hash__(self) -> int:
        return hash(self._stripped())

    def __repr__(self) -> str:
        return f"VC{self._v}"


@dataclass(frozen=True)
class Epoch:
    """``c@t``: clock value ``c`` of thread slot ``t``.

    For canonical snapshots (a clock exported by the thread that owns
    slot ``t`` while its own component was ``c``), ``leq`` is an *exact*
    O(1) replacement for the full pointwise comparison — see the module
    docstring.  FastTrack (PLDI 2009) popularized the trick for race
    detection; the deadlock engines here reuse it for every acquire,
    release, and last-write timestamp.
    """

    clock: int
    slot: int

    def leq(self, vc: VectorClock) -> bool:
        """``c@t ⊑ V  ⟺  c ≤ V[t]`` — the O(1) comparison."""
        v = vc._v
        t = self.slot
        return self.clock <= (v[t] if t < len(v) else 0)


# -- telemetry ---------------------------------------------------------------
#
# Joins and COW copies are the per-event hot path of every engine, far
# too hot even for a guarded no-op call.  Instrumentation is therefore
# *patch-on-enable*: counting wrappers are swapped in only while
# repro.obs is active, and the disabled path carries zero extra code.

_OBS_COUNTS = {"vc.join": 0, "vc.join_grew": 0, "vc.join_update": 0,
               "vc.copy": 0, "vc.snapshot": 0}


def _obs_install():
    import repro.obs as obs  # noqa: F401  (hook registration only)

    c = _OBS_COUNTS
    orig_join = VectorClock.join_with
    orig_ju = VectorClock.join_update
    orig_own = VectorClock._own
    orig_snap = VectorClock.snapshot

    def join_with(self, other):
        c["vc.join"] += 1
        changed = orig_join(self, other)
        if changed:
            c["vc.join_grew"] += 1
        return changed

    def join_update(self, other):
        c["vc.join_update"] += 1
        return orig_ju(self, other)

    def _own(self):
        if self._shared:
            c["vc.copy"] += 1
        orig_own(self)

    def snapshot(self):
        c["vc.snapshot"] += 1
        return orig_snap(self)

    VectorClock.join_with = join_with
    VectorClock.join_update = join_update
    VectorClock._own = _own
    VectorClock.snapshot = snapshot

    def undo():
        VectorClock.join_with = orig_join
        VectorClock.join_update = orig_ju
        VectorClock._own = orig_own
        VectorClock.snapshot = orig_snap

    return undo


def _obs_register() -> None:
    import repro.obs as obs

    obs.register_probe("vc", lambda: dict(_OBS_COUNTS))
    obs.on_enable(_obs_install)


_obs_register()


class ThreadUniverse:
    """Interns thread names to dense integer slots."""

    def __init__(self, threads: Iterable[str] = ()) -> None:
        self._slots: Dict[str, int] = {}
        for t in threads:
            self.slot(t)

    def slot(self, thread: str) -> int:
        s = self._slots.get(thread)
        if s is None:
            s = len(self._slots)
            self._slots[thread] = s
        return s

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, thread: str) -> bool:
        return thread in self._slots

    def threads(self) -> Sequence[str]:
        return tuple(self._slots)
