"""SPDOnline-K: streaming any-size deadlock detection (extension)."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spd_offline import spd_offline
from repro.core.spd_online_k import SPDOnlineK, spd_online_k
from repro.synth.paper import sigma2, sigma3
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.synth.templates import dining_philosophers_trace
from repro.trace.builder import TraceBuilder
from repro.trace.compiled import compile_trace


class TestSizeTwoUnchanged:
    def test_sigma2_still_reported_by_inherited_path(self):
        det = spd_online_k(sigma2(), max_size=3)
        assert det.reports  # size-2 machinery intact
        assert not det.k_reports

    def test_sigma3_matches_size2(self):
        det = spd_online_k(sigma3(), max_size=4)
        assert len(det.reports) == 1
        assert not det.k_reports

    def test_max_size_validation(self):
        with pytest.raises(ValueError):
            SPDOnlineK(max_size=1)


class TestLargerCycles:
    def test_dining_three_found_online(self):
        det = spd_online_k(dining_philosophers_trace(3), max_size=3)
        assert len(det.k_reports) == 1
        rep = det.k_reports[0]
        assert rep.size == 3
        threads = {s[0] for s in rep.signatures}
        assert threads == {"phil0", "phil1", "phil2"}

    def test_dining_five_needs_max_size_five(self):
        t = dining_philosophers_trace(5)
        assert not spd_online_k(t, max_size=4).k_reports
        det = spd_online_k(t, max_size=5)
        assert len(det.k_reports) == 1
        assert det.k_reports[0].size == 5

    def test_missing_locations_read_as_indices(self):
        """Acquires that carry no location are named ``@idx`` in K
        reports, as in size-2 reports."""
        t = (
            TraceBuilder()
            .acq("t1", "a").acq("t1", "b", loc="X").rel("t1", "b").rel("t1", "a")
            .acq("t2", "b").acq("t2", "c").rel("t2", "c").rel("t2", "b")
            .acq("t3", "c").acq("t3", "a")
            .build()
        )
        det = spd_online_k(t, max_size=3)
        assert [(r.events, r.locations) for r in det.k_reports] == \
            [((9, 1, 5), ("@9", "X", "@5"))]

    def test_report_fires_at_last_acquire(self):
        """Streaming: the size-3 report fires the moment the closing
        acquire of the cycle arrives, not at end of trace."""
        t = dining_philosophers_trace(3)
        det = SPDOnlineK(max_size=3)
        fired_at = None
        for ev in t:
            det.step(ev)
            if det.k_reports and fired_at is None:
                fired_at = ev.idx
        # The cycle completes when phil2 acquires fork0 (its right
        # fork); that acquire is the last pattern event in trace order.
        assert fired_at == max(det.k_reports[0].events)

    def test_rounds_report_once_per_context(self):
        t = dining_philosophers_trace(3, rounds=4)
        det = spd_online_k(t, max_size=3)
        assert len(det.k_reports) == 1

    def test_guarded_three_cycle_rejected(self):
        """A size-3 cyclic acquisition under a common gate lock never
        becomes a context (held sets intersect)."""
        b = TraceBuilder()
        for i, (first, second) in enumerate([("a", "b"), ("b", "c"), ("c", "a")]):
            b.acq(f"t{i}", "gate").acq(f"t{i}", first).acq(f"t{i}", second)
            b.rel(f"t{i}", second).rel(f"t{i}", first).rel(f"t{i}", "gate")
        det = spd_online_k(b.build(), max_size=3)
        assert not det.k_reports

    def test_rf_blocked_three_cycle_rejected(self):
        """Cyclic acquisition serialized by data flow is not reported."""
        b = TraceBuilder()
        b.acq("t0", "a").acq("t0", "b").write("t0", "h0")
        b.rel("t0", "b").rel("t0", "a")
        b.read("t1", "h0")
        b.acq("t1", "b").acq("t1", "c").write("t1", "h1")
        b.rel("t1", "c").rel("t1", "b")
        b.read("t2", "h1")
        b.acq("t2", "c").acq("t2", "a")
        b.rel("t2", "a").rel("t2", "c")
        det = spd_online_k(b.build(), max_size=3)
        assert not det.k_reports
        assert spd_offline(b.build()).num_deadlocks == 0


class TestAgainstOffline:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 200_000))
    def test_same_verdict_as_offline_capped(self, seed):
        trace = generate_random_trace(
            RandomTraceConfig(seed=seed, num_threads=4, num_locks=4,
                              num_events=40, acquire_prob=0.5,
                              release_prob=0.25, max_nesting=3)
        )
        offline = spd_offline(trace, max_size=3)
        det = spd_online_k(trace, max_size=3)
        online_total = len(det.reports) + len(det.k_reports)
        assert (online_total > 0) == (offline.num_deadlocks > 0), trace.name

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 200_000))
    def test_k_reports_are_sound(self, seed):
        from repro.reorder.exhaustive import ExhaustivePredictor

        trace = generate_random_trace(
            RandomTraceConfig(seed=seed, num_threads=4, num_locks=4,
                              num_events=36, acquire_prob=0.5,
                              release_prob=0.25, max_nesting=3)
        )
        det = spd_online_k(trace, max_size=3)
        oracle = ExhaustivePredictor(trace, sync_preserving=True)
        for rep in det.k_reports:
            assert oracle.is_predictable_deadlock(rep.events), (
                trace.name, rep.events,
            )


class TestScalability:
    def test_wide_stream_heap_ceiling(self):
        """K-contexts keep only cursors and each check computes on a
        transient clone of the pinned acquire's prefix closure, so an
        exact K = 3 run over a 2k-event 8-thread x 12-lock stream (4,931
        K-contexts) peaks at about 2.6 MB of traced allocations (keeping a
        persistent closure per K-context peaked at 22 MB).  Allocation
        sizes do not depend on the machine's speed or load, so the
        ceiling is asserted as is."""
        comp = compile_trace(generate_random_trace(RandomTraceConfig(
            num_threads=8, num_locks=12, num_vars=16, num_events=2000,
            acquire_prob=0.35, max_nesting=3, seed=7)))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            det = SPDOnlineK(max_size=3)
            det.run(comp)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(det._contexts) > 4000 and len(det.k_reports) > 40
        assert peak < 8_000_000, f"peak {peak / 1e6:.1f} MB"
