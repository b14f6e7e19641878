"""FastTrack epoch-based race detection vs the full-VC HB detector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hb.fasttrack import fasttrack_races
from repro.hb.races import hb_races
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.builder import TraceBuilder


class TestBasics:
    def test_unprotected_ww(self):
        t = TraceBuilder().write("t1", "x").write("t2", "x").build()
        res = fasttrack_races(t)
        assert res.racy_variables() == {"x"}
        assert res.races[0].kind == "ww"

    def test_lock_protected_no_race(self):
        t = (
            TraceBuilder()
            .acq("t1", "l").write("t1", "x").rel("t1", "l")
            .acq("t2", "l").write("t2", "x").rel("t2", "l")
            .build()
        )
        assert fasttrack_races(t).num_races == 0

    def test_wr_race(self):
        t = TraceBuilder().write("t1", "x").read("t2", "x").build()
        res = fasttrack_races(t)
        assert {r.kind for r in res.races} == {"wr"}

    def test_rw_race_exclusive_read(self):
        t = TraceBuilder().read("t1", "x").write("t2", "x").build()
        res = fasttrack_races(t)
        assert {r.kind for r in res.races} == {"rw"}

    def test_shared_read_inflation_then_write_race(self):
        """Two concurrent readers (SHARED state), then an unordered
        write races with the read set."""
        t = (
            TraceBuilder()
            .acq("t1", "l").write("t1", "x").rel("t1", "l")
            .acq("t2", "l").read("t2", "x").rel("t2", "l")
            .acq("t3", "l").read("t3", "x").rel("t3", "l")
            .write("t4", "x")    # unordered with both reads
            .build()
        )
        res = fasttrack_races(t)
        kinds = {r.kind for r in res.races}
        assert "rw" in kinds

    def test_fork_join_ordering(self):
        t = (
            TraceBuilder()
            .write("m", "x").fork("m", "c").write("c", "x")
            .join("m", "c").write("m", "x")
            .build()
        )
        assert fasttrack_races(t).num_races == 0

    def test_same_thread_never_races(self):
        t = TraceBuilder().write("t1", "x").read("t1", "x").write("t1", "x").build()
        assert fasttrack_races(t).num_races == 0

    def test_epoch_ops_dominate_on_ordered_workload(self):
        """The point of epochs: ordered access patterns use O(1)
        comparisons almost everywhere."""
        b = TraceBuilder()
        for i in range(50):
            t = f"t{i % 2}"
            b.acq(t, "l").write(t, "x").read(t, "x").rel(t, "l")
        res = fasttrack_races(b.build())
        assert res.num_races == 0
        assert res.epoch_ops > res.vector_ops


class TestAgainstFullVC:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), fork_join=st.booleans())
    def test_racy_variable_sets_agree(self, seed, fork_join):
        """Per-variable race existence matches the full-VC detector
        (FastTrack's first-race-per-variable guarantee)."""
        trace = generate_random_trace(
            RandomTraceConfig(seed=seed, num_events=45, num_threads=3,
                              num_vars=3, num_locks=2, acquire_prob=0.3,
                              fork_join=fork_join)
        )
        ft = fasttrack_races(trace).racy_variables()
        full = {r.variable for r in hb_races(trace, first_only_per_site=False).races}
        assert ft == full, trace.name

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_reported_pairs_are_hb_unordered(self, seed):
        from repro.hb.clocks import HBClocks

        trace = generate_random_trace(
            RandomTraceConfig(seed=seed, num_events=40, num_threads=3,
                              num_vars=2, num_locks=2, acquire_prob=0.3)
        )
        hb = HBClocks(trace)
        for race in fasttrack_races(trace).races:
            assert not hb.ordered(race.first_event, race.second_event), (
                trace.name, race,
            )


class TestPostJoinCaveat:
    """The epoch-skip caveat noted in ROADMAP and ``hb/fasttrack.py``:
    ``join`` absorbs the child's clock *at the join event*, so a thread
    that stays active after being joined (lossy loggers can emit this;
    ``corpus/post_join.std`` is the committed exerciser) races with the
    parent even though a join that covered the whole thread would order
    them.  These tests pin the current behavior — FastTrack and the
    full-VC HB reference agree with each other, and the canonicality
    tick in the join handler keeps the epoch fast-path exact — and mark
    the whole-thread-join semantics as the known, expected failure."""

    @staticmethod
    def _load():
        import os

        from repro.trace.parser import load_trace

        path = os.path.join(os.path.dirname(__file__), "..", "corpus",
                            "post_join.std")
        return load_trace(path, name="post_join")

    def test_corpus_trace_has_post_join_activity(self):
        trace = self._load()
        joins = [ev for ev in trace if ev.is_join]
        assert len(joins) == 1
        join = joins[0]
        late = [ev.idx for ev in trace
                if ev.idx > join.idx and ev.thread == join.target]
        assert late, "worker must stay active after the join"

    def test_pinned_post_join_false_race(self):
        """Documented limitation: the post-join write races with main."""
        trace = self._load()
        res = fasttrack_races(trace)
        assert res.racy_variables() == {"y"}
        (race,) = res.races
        assert race.kind == "ww"
        # event 6 is the worker's post-join write, event 8 main's write
        assert (race.first_event, race.second_event) == (6, 8)

    def test_fasttrack_agrees_with_full_vc_reference(self):
        """The epoch fast-path stays exact even on post-join traces:
        the canonicality tick in the join handler (see the acquire
        handler's comment) covers the joined-then-active case."""
        trace = self._load()
        ft = {(r.first_event, r.second_event) for r in fasttrack_races(trace).races}
        hb = hb_races(trace, first_only_per_site=False).race_pairs()
        assert ft == hb == {(6, 8)}

    @pytest.mark.xfail(
        reason="join only absorbs the clock at the join event; under "
               "whole-thread join semantics the post-join write would be "
               "ordered before main's write and y would not be racy "
               "(revisit if a logger with true join coverage feeds the "
               "corpus — see ROADMAP)",
        strict=True,
    )
    def test_whole_thread_join_semantics(self):
        trace = self._load()
        assert fasttrack_races(trace).num_races == 0
