"""TraceIndex ≡ the legacy ``Trace._analyze`` derived relations.

The multi-layer refactor made :class:`repro.trace.index.TraceIndex`
(one O(N) pass over the compiled int columns) the canonical source of
reads-from, acquire/release match, per-thread positions, and held-lock
sets; :class:`~repro.trace.trace.Trace` is now a thin string-keyed view
over it.  These tests pit the index against a verbatim copy of the
pre-refactor string-keyed ``_analyze`` pass on random synthetic traces
(fork/join on and off), plus handcrafted non-LIFO release orders and
initial reads, and check that every detector the registry ships is
bit-identical across the string-event and compiled input paths on the
whole committed corpus.
"""

import glob
import os
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.builder import TraceBuilder
from repro.trace.events import Event, Op
from repro.trace.trace import Trace, TraceError

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


class LegacyRelations:
    """The seed repo's ``Trace._analyze``, verbatim, as a reference.

    Computes every derived relation with string-keyed dicts over
    ``Event`` objects — the exact code the columnar ``TraceIndex``
    replaced (including error behavior on ill-formed release orders).
    """

    def __init__(self, events: List[Event]) -> None:
        self.threads: List[str] = []
        self.locks: List[str] = []
        self.vars: List[str] = []
        self.rf: Dict[int, Optional[int]] = {}
        self.match: Dict[int, int] = {}
        self.held: List[Tuple[str, ...]] = []
        self.to_pos: Dict[int, Tuple[str, int]] = {}
        self.by_thread: Dict[str, List[int]] = {}
        self.acquires_of: Dict[str, List[int]] = {}

        seen_threads: Set[str] = set()
        seen_locks: Set[str] = set()
        seen_vars: Set[str] = set()
        last_write: Dict[str, int] = {}
        open_acq: Dict[Tuple[str, str], List[int]] = {}
        held_stack: Dict[str, List[str]] = {}
        thread_len: Dict[str, int] = {}

        for ev in events:
            t = ev.thread
            if t not in seen_threads:
                seen_threads.add(t)
                self.threads.append(t)
                held_stack[t] = []
                thread_len[t] = 0
                self.by_thread[t] = []
            self.to_pos[ev.idx] = (t, thread_len[t])
            thread_len[t] += 1
            self.by_thread[t].append(ev.idx)
            self.held.append(tuple(held_stack[t]))

            if ev.is_access:
                if ev.target not in seen_vars:
                    seen_vars.add(ev.target)
                    self.vars.append(ev.target)
                if ev.is_read:
                    self.rf[ev.idx] = last_write.get(ev.target)
                else:
                    last_write[ev.target] = ev.idx
            elif ev.op in (Op.ACQUIRE, Op.RELEASE, Op.REQUEST):
                lk = ev.target
                if lk not in seen_locks:
                    seen_locks.add(lk)
                    self.locks.append(lk)
                if ev.is_acquire:
                    open_acq.setdefault((t, lk), []).append(ev.idx)
                    held_stack[t].append(lk)
                    self.acquires_of.setdefault(lk, []).append(ev.idx)
                elif ev.is_release:
                    stack = open_acq.get((t, lk))
                    if not stack:
                        raise TraceError(
                            f"release without matching acquire: {ev}"
                        )
                    acq_idx = stack.pop()
                    self.match[acq_idx] = ev.idx
                    self.match[ev.idx] = acq_idx
                    hs = held_stack[t]
                    for j in range(len(hs) - 1, -1, -1):
                        if hs[j] == lk:
                            del hs[j]
                            break
                    else:
                        raise TraceError(f"release of unheld lock: {ev}")

    @property
    def lock_nesting_depth(self) -> int:
        return max(
            (len(self.held[a]) + 1 for acqs in self.acquires_of.values()
             for a in acqs),
            default=0,
        )


def assert_relations_match(trace: Trace) -> None:
    """Every derived relation of the view equals the legacy pass."""
    ref = LegacyRelations(list(trace))
    assert trace.threads == ref.threads
    assert trace.locks == ref.locks
    assert trace.variables == ref.vars
    assert trace.lock_nesting_depth == ref.lock_nesting_depth
    assert trace.num_acquires() == sum(
        len(v) for v in ref.acquires_of.values()
    )
    for t in ref.threads:
        assert trace.events_of_thread(t) == ref.by_thread[t]
    for lk in ref.locks:
        assert trace.acquires_of_lock(lk) == ref.acquires_of.get(lk, [])
    for i, ev in enumerate(trace):
        assert trace.held_locks(i) == ref.held[i]
        assert trace.match(i) == ref.match.get(i)
        thread, pos = ref.to_pos[i]
        assert trace.thread_position(i) == (thread, pos)
        expected_pred = ref.by_thread[thread][pos - 1] if pos else None
        assert trace.thread_predecessor(i) == expected_pred
        if ev.is_read:
            assert trace.rf(i) == ref.rf[i]


def _random_trace(seed: int, fork_join: bool, num_events: int = 140) -> Trace:
    return generate_random_trace(
        RandomTraceConfig(seed=seed, num_events=num_events, num_threads=4,
                          num_locks=4, num_vars=3, max_nesting=3,
                          acquire_prob=0.4, release_prob=0.3,
                          fork_join=fork_join)
    )


class TestIndexMatchesLegacyAnalyze:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), fork_join=st.booleans())
    def test_random_traces(self, seed, fork_join):
        assert_relations_match(_random_trace(seed, fork_join))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_non_lifo_release_orders(self, seed, data):
        """Hand-over-hand and arbitrary release orders: the generator
        releases LIFO, so shuffle the release choice explicitly."""
        import random

        rng = random.Random(seed)
        b = TraceBuilder()
        held = {t: [] for t in ("t1", "t2", "t3")}
        lock_free = {lk: True for lk in ("a", "b", "c", "d")}
        for _ in range(100):
            t = rng.choice(("t1", "t2", "t3"))
            roll = rng.random()
            if roll < 0.4:
                free = [lk for lk in lock_free if lock_free[lk]]
                if free and len(held[t]) < 3:
                    lk = rng.choice(free)
                    b.acq(t, lk)
                    lock_free[lk] = False
                    held[t].append(lk)
                    continue
            if roll < 0.7 and held[t]:
                # Release a *random* held lock — non-LIFO on purpose.
                lk = held[t].pop(rng.randrange(len(held[t])))
                b.rel(t, lk)
                lock_free[lk] = True
                continue
            b.write(t, "x") if rng.random() < 0.5 else b.read(t, "x")
        for t, hs in held.items():
            while hs:
                lk = hs.pop(rng.randrange(len(hs)))
                b.rel(t, lk)
                lock_free[lk] = True
        assert_relations_match(b.build(f"nonlifo{seed}"))

    def test_initial_reads(self):
        t = (TraceBuilder()
             .read("t1", "x")                 # initial read
             .write("t2", "x")
             .read("t1", "x")
             .read("t3", "y")                 # var never written
             .build("initial_reads"))
        assert_relations_match(t)
        assert t.rf(0) is None
        assert t.rf(2) == 1
        assert t.rf(3) is None

    def test_release_without_acquire_raises_same_error(self):
        t = TraceBuilder().rel("t1", "l").build()
        with pytest.raises(TraceError, match="release without matching acquire"):
            t.threads  # force analysis
        with pytest.raises(TraceError, match="release without matching acquire"):
            LegacyRelations(list(t))

    def test_held_pool_is_shared(self):
        """Identical held stacks share one pool entry."""
        b = TraceBuilder()
        for _ in range(10):
            b.acq("t1", "a").acq("t1", "b").rel("t1", "b").rel("t1", "a")
        t = b.build()
        index = t.index
        # Distinct stacks: (), (a,), (a, b) — regardless of repetition.
        assert len(index.held_offsets) == 3
        assert len({index.held_id[i] for i in range(len(t))}) == 3


def _detector_outputs(trace) -> dict:
    from repro.exp.detectors import detector_names, get_adapter

    configs = {"dirk": {"window": 200}}
    out = {}
    for det in detector_names():
        try:
            out[det] = get_adapter(det)(trace, configs.get(det, {}))
        except Exception as exc:                      # failure-as-data
            out[det] = {"exception": f"{type(exc).__name__}: {exc}"}
    return out


class TestDetectorsBitIdenticalCorpusWide:
    """Every shipped detector must produce identical reports whether it
    is fed string events (``Trace`` built from parsed ``Event`` lists)
    or the compiled columnar form — across the whole corpus."""

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CORPUS, "*.std"))),
        ids=lambda p: os.path.basename(p)[:-4],
    )
    def test_corpus_trace(self, path):
        from repro.trace.compiled import load_compiled_trace
        from tests.test_parser import parse_events

        name = os.path.basename(path)[:-4]
        with open(path, "r", encoding="utf-8") as fh:
            via_events = Trace(parse_events(fh), name=name)
        via_columns = load_compiled_trace(path, name=name)
        assert _detector_outputs(via_events) == _detector_outputs(via_columns)
