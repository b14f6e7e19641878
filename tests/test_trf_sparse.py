"""The sparse TRF timestamp store against the dense per-event pass.

:class:`DenseTRF` is the original derivation: one full vector clock
per event, copy-on-write snapshots, every reads-from, fork and join
edge a full ``join_with``.  It survives only here, as the oracle for
:class:`repro.vc.timestamps.TRFTimestamps`, whose epochs plus trimmed
anchor rows must reproduce it exactly: ``of``, ``epoch``,
``pred_timestamp`` and ``leq`` on every event of the corpus and of
seeded random traces with fork/join and non-well-nested sections.
``leq`` against the BFS oracle ``trf_reachable_set`` is checked in
``tests/test_vector_clocks.py``.
"""

from __future__ import annotations

import glob
import os
import random
from typing import List, Optional

import pytest

from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.builder import TraceBuilder
from repro.trace.events import OP_FORK, OP_JOIN, OP_READ, OP_WRITE
from repro.trace.parser import load_trace
from repro.trace.trace import as_trace
from repro.vc.clock import ThreadUniverse, VectorClock
from repro.vc.timestamps import TRFTimestamps

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS, "*.std")))


class DenseTRF:
    """One full clock per event — the pre-sparse derivation pass."""

    def __init__(self, trace) -> None:
        self.trace = trace = as_trace(trace)
        self.universe = ThreadUniverse(trace.threads)
        self.ts: List[VectorClock] = []
        compiled = trace.compiled
        index = trace.index
        ops, tids, targs = compiled.columns()
        rf = index.rf
        n_threads = len(self.universe)
        n_tids = len(compiled.threads_tab)
        tid_slot = [-1] * n_tids
        clocks: List[Optional[VectorClock]] = [None] * n_tids
        names = compiled.threads_tab.names
        for tid in index.thread_order:
            tid_slot[tid] = self.universe.slot(names[tid])
            clocks[tid] = VectorClock.bottom(n_threads)
        last_write: List[Optional[VectorClock]] = [None] * len(compiled.vars_tab)
        for i in range(len(ops)):
            op = ops[i]
            c = clocks[tids[i]]
            slot = tid_slot[tids[i]]
            if op == OP_READ:
                if rf[i] >= 0:
                    c.join_with(last_write[targs[i]])
            elif op == OP_JOIN:
                child = clocks[targs[i]]
                if child is not None:
                    c.join_with(child)
            c.tick(slot)
            snapshot = c.snapshot()
            self.ts.append(snapshot)
            if op == OP_WRITE:
                last_write[targs[i]] = snapshot
            elif op == OP_FORK:
                child = clocks[targs[i]]
                if child is not None:
                    child.join_with(snapshot)

    def epoch(self, e):
        slot = self.universe.slot(self.trace[e].thread)
        return slot, self.ts[e][slot]

    def pred_timestamp(self, e):
        pred = self.trace.index.thread_pred[e]
        if pred < 0:
            return VectorClock.bottom(len(self.universe))
        return self.ts[pred]


def assert_matches_dense(trace, pairs: int = 400, seed: int = 0) -> TRFTimestamps:
    trace = as_trace(trace)
    sparse = TRFTimestamps(trace)
    dense = DenseTRF(trace)
    n = len(trace)
    for e in range(n):
        assert sparse.of(e) == dense.ts[e], (trace.name, e)
        assert sparse.epoch(e) == dense.epoch(e), (trace.name, e)
        assert sparse.pred_timestamp(e) == dense.pred_timestamp(e), (trace.name, e)
    rng = random.Random(seed)
    for _ in range(min(pairs, n * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        assert sparse.leq(a, b) == dense.ts[a].leq(dense.ts[b]), (trace.name, a, b)
    return sparse


def random_config(seed: int) -> RandomTraceConfig:
    rng = random.Random(seed)
    return RandomTraceConfig(
        num_threads=rng.randint(2, 7),
        num_locks=rng.randint(1, 5),
        num_vars=rng.randint(1, 6),
        num_events=rng.randint(20, 160),
        acquire_prob=rng.uniform(0.1, 0.4),
        release_prob=rng.uniform(0.1, 0.4),
        write_prob=rng.uniform(0.2, 0.8),
        max_nesting=rng.randint(1, 4),
        fork_join=seed % 2 == 0,
        release_any_prob=(0.0, 0.3, 0.6)[seed % 3],
        seed=seed,
    )


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("path", CORPUS_FILES,
                             ids=[os.path.basename(p) for p in CORPUS_FILES])
    def test_corpus(self, path):
        assert_matches_dense(load_trace(path))

    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_random_traces(self, chunk):
        """240 seeded traces: half with fork/join, two thirds with
        non-well-nested releases."""
        for seed in range(chunk * 60, (chunk + 1) * 60):
            assert_matches_dense(generate_random_trace(random_config(seed)),
                                 pairs=150, seed=seed)

    def test_many_threads_sparse_rows(self):
        """Wide universes are where rows are trimmed hardest."""
        cfg = RandomTraceConfig(num_threads=24, num_locks=6, num_vars=40,
                                num_events=1500, fork_join=True,
                                release_any_prob=0.2, seed=99)
        ts = assert_matches_dense(generate_random_trace(cfg))
        assert len(ts._rows) < len(ts._slots)
        assert all(row and row[-1] for row in ts._rows)   # trailing zeros dropped

    def test_late_fork_of_a_running_thread(self):
        """A fork naming a thread that already ran grows its clock
        between its events: the next event must anchor, and a later
        join must see the grown clock."""
        t = (TraceBuilder()
             .write("t2", "a")
             .write("t1", "b").fork("t1", "t2")
             .write("t2", "c")
             .write("t3", "d").join("t3", "t2").read("t3", "b")
             .build())
        assert_matches_dense(t)

    def test_join_of_a_thread_grown_after_its_last_event(self):
        """t3 already knows t2's last event, but not the fork that grew
        t2's clock afterwards: the join must not take the epoch skip."""
        t = (TraceBuilder()
             .write("t2", "a").read("t3", "a")
             .write("t1", "b").fork("t1", "t2")
             .join("t3", "t2").write("t3", "c")
             .build())
        ts = assert_matches_dense(t)
        assert ts.leq(2, 5)           # t1's write reaches t3 through the join


class TestAnchorStore:
    def test_anchor_count_pinned(self):
        """Anchors sit at each thread's first event and at every event
        whose incoming edge grew its clock; skipped edges store none."""
        t = (TraceBuilder()
             .write("t1", "x")          # 0 anchor: t1's first event
             .write("t1", "y")          # 1
             .read("t2", "x")           # 2 anchor: t2's first event, joins t1's row
             .read("t2", "x")           # 3 epoch already known: skipped
             .read("t2", "y")           # 4 anchor: t1's anchor known, slot-only
             .write("t2", "z")          # 5
             .read("t1", "z")           # 6 anchor: joins t2's row
             .read("t1", "y")           # 7 own write: skipped
             .build())
        ts = assert_matches_dense(t)
        assert list(ts._anchor) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert ts._rows == [[1], [1, 1], [2, 3], [3, 4]]

    def test_counters(self):
        import repro.obs as obs

        t = (TraceBuilder()
             .write("t1", "x").read("t2", "x").read("t2", "x")
             .fork("t2", "t3").write("t3", "y").join("t2", "t3")
             .build())
        t.index                           # index spans stay out of the way
        obs.enable(None)
        try:
            TRFTimestamps(t)
            snap = obs.snapshot()
            spans = [s["name"] for s in obs.drain_spans()]
        finally:
            obs.disable()
        c = snap["counters"]
        assert spans == ["vc.trf"]
        assert c["vc.trf.anchors"] == 4   # three first events, t2 after the join
        assert c["vc.trf.joins"] == 3     # rf 0->1, fork 3->t3, join t3->5
        assert c["vc.trf.join_skips"] == 1
