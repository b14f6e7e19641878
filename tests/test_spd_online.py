"""SPDOnline-specific behavior: streaming, incrementality, fork/join."""

import tracemalloc

from repro.core.spd_online import SPDOnline, spd_online
from repro.core.spd_offline import spd_offline
from repro.synth.paper import sigma2, sigma3
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.builder import TraceBuilder
from repro.trace.compiled import compile_trace


class TestStreaming:
    def test_step_returns_new_reports(self):
        t = (
            TraceBuilder()
            .acq("t1", "a").acq("t1", "b").rel("t1", "b").rel("t1", "a")
            .acq("t2", "b").acq("t2", "a")
            .build()
        )
        det = SPDOnline()
        per_step = [det.step(ev) for ev in t]
        # The report fires exactly when the closing acquire arrives.
        assert [len(r) for r in per_step] == [0, 0, 0, 0, 0, 1]

    def test_report_identifies_the_acquire_pair(self):
        t = (
            TraceBuilder()
            .acq("t1", "a").acq("t1", "b", loc="X").rel("t1", "b").rel("t1", "a")
            .acq("t2", "b").acq("t2", "a", loc="Y")
            .build()
        )
        res = spd_online(t)
        assert res.num_reports == 1
        rep = res.reports[0]
        assert rep.first_event == 1 and rep.second_event == 5
        assert set(rep.locations) == {"X", "Y"}
        assert rep.bug_id == ("X", "Y")

    def test_missing_location_reads_as_index(self):
        t = (
            TraceBuilder()
            .acq("t1", "a").acq("t1", "b", loc="X").rel("t1", "b").rel("t1", "a")
            .acq("t2", "b").acq("t2", "a")
            .build()
        )
        rep = spd_online(t).reports[0]
        assert (rep.first_event, rep.second_event) == (1, 5)
        assert rep.locations == ("X", "@5")

    def test_incomplete_trace_still_reports(self):
        """Online must not need the trace to finish (no lookahead)."""
        t = sigma2()
        det = SPDOnline()
        fired_at = None
        for ev in t:
            if det.step(ev) and fired_at is None:
                fired_at = ev.idx
        assert fired_at == 17  # fires at e18, the second pattern acquire

    def test_threads_appearing_late_are_covered(self):
        """A deadlock against a thread created after the first acquire."""
        t = (
            TraceBuilder()
            .acq("t1", "a").acq("t1", "b").rel("t1", "b").rel("t1", "a")
            .write("t1", "spawn")
            .acq("tLate", "b").acq("tLate", "a")
            .build()
        )
        assert spd_online(t).num_reports == 1


class TestSemantics:
    def test_common_held_lock_suppressed(self):
        """Guarded cycles are rejected by the closure even though the
        online pattern scan tracks single held locks."""
        t = (
            TraceBuilder()
            .acq("t1", "g").acq("t1", "a").acq("t1", "b")
            .rel("t1", "b").rel("t1", "a").rel("t1", "g")
            .acq("t2", "g").acq("t2", "b").acq("t2", "a")
            .rel("t2", "a").rel("t2", "b").rel("t2", "g")
            .build()
        )
        assert spd_online(t).num_reports == 0

    def test_rf_dependency_suppresses(self):
        from repro.synth.paper import sigma1

        assert spd_online(sigma1()).num_reports == 0

    def test_fork_join_ordering_respected(self):
        """Inverse-order CSes serialized by join cannot deadlock."""
        t = (
            TraceBuilder()
            .fork("main", "t1")
            .acq("t1", "a").acq("t1", "b").rel("t1", "b").rel("t1", "a")
            .join("main", "t1")
            .fork("main", "t2")
            .acq("t2", "b").acq("t2", "a").rel("t2", "a").rel("t2", "b")
            .join("main", "t2")
            .build()
        )
        assert spd_online(t).num_reports == 0

    def test_fork_join_through_main_memory(self):
        """Same shape but threads overlap: deadlock reported."""
        t = (
            TraceBuilder()
            .fork("main", "t1").fork("main", "t2")
            .acq("t1", "a").acq("t1", "b").rel("t1", "b").rel("t1", "a")
            .acq("t2", "b").acq("t2", "a").rel("t2", "a").rel("t2", "b")
            .join("main", "t1").join("main", "t2")
            .build()
        )
        assert spd_online(t).num_reports == 1

    def test_sigma3_reports_d5_context(self):
        res = spd_online(sigma3())
        assert res.deadlock_pairs() == {(15, 28)}


class TestScalability:
    def test_linear_on_long_clean_trace(self):
        """No quadratic blowup on pattern-free traces."""
        cfg = RandomTraceConfig(seed=0, num_events=5000, num_threads=4,
                                num_locks=4, max_nesting=1)
        t = generate_random_trace(cfg)
        res = spd_online(t)
        assert res.num_reports == 0
        assert res.elapsed < 10.0

    def test_matches_offline_on_batch(self):
        for seed in range(30):
            t = generate_random_trace(
                RandomTraceConfig(seed=seed, num_events=60, acquire_prob=0.4,
                                  max_nesting=3, num_threads=4)
            )
            assert (spd_online(t).num_reports > 0) == (
                spd_offline(t, max_size=2).num_deadlocks > 0
            ), t.name

    def test_wide_stream_heap_ceiling(self):
        """Closure state lives per thread, so an exact run over a
        6k-event 16-thread x 24-lock stream peaks at about 1.8 MB of
        traced allocations (keeping a persistent closure for each of its
        1,549 contexts peaked at 16 MB).  Allocation sizes do not depend
        on the machine's speed or load, so the ceiling is asserted as
        is."""
        comp = compile_trace(generate_random_trace(RandomTraceConfig(
            num_threads=16, num_locks=24, num_vars=16, num_events=6000,
            acquire_prob=0.35, max_nesting=3, seed=7)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            res = SPDOnline().run(comp)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert res.stats["contexts"] > 1000 and res.num_reports > 100
        assert peak < 5_000_000, f"peak {peak / 1e6:.1f} MB"
