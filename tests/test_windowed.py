"""Windowed (bounded-memory) offline analysis."""

import pytest

from repro.core.spd_offline import spd_offline
from repro.stream.windowed import spd_offline_windowed
from repro.synth.paper import sigma2
from repro.synth.suite import SUITE_BY_NAME, build_benchmark
from repro.synth.templates import simple_deadlock_trace


class TestWindowedBasics:
    def test_single_window_matches_full_analysis(self):
        t = sigma2()
        full = spd_offline(t)
        windowed = spd_offline_windowed(t, window=len(t))
        assert windowed.num_deadlocks == full.num_deadlocks == 1
        assert windowed.windows == 1

    def test_pattern_within_one_window_found(self):
        t = simple_deadlock_trace(padding=10)
        res = spd_offline_windowed(t, window=len(t), overlap=0.0)
        assert res.num_deadlocks == 1

    def test_cross_window_pattern_missed_without_overlap(self):
        """The documented loss: a pattern spanning > window events."""
        t = simple_deadlock_trace(padding=40)
        # The two halves are ~44 events apart; a tiny window misses.
        res = spd_offline_windowed(t, window=10, overlap=0.0)
        assert res.num_deadlocks == 0

    def test_overlap_recovers_near_boundary_patterns(self):
        t = simple_deadlock_trace(padding=0)  # 8 adjacent events
        found_somewhere = False
        for window in (8, 12, 16):
            res = spd_offline_windowed(t, window=window, overlap=0.5)
            if res.num_deadlocks == 1:
                found_somewhere = True
        assert found_somewhere

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError):
            spd_offline_windowed(sigma2(), window=10, overlap=1.0)

    def test_deduplicates_across_overlapping_windows(self):
        t = simple_deadlock_trace(padding=0)
        res = spd_offline_windowed(t, window=len(t), overlap=0.9)
        assert res.num_deadlocks == 1  # not once per window

    def test_reports_are_sound_for_the_full_trace(self):
        """Windowed reports remain real deadlocks of the whole trace."""
        from repro.reorder.exhaustive import ExhaustivePredictor

        t = simple_deadlock_trace(padding=6)
        res = spd_offline_windowed(t, window=12, overlap=0.5)
        oracle = ExhaustivePredictor(t, sync_preserving=True)
        for rep in res.reports:
            assert oracle.is_predictable_deadlock(rep.pattern.events)


class TestWindowedOnSuite:
    def test_matches_full_on_replica_with_local_bugs(self):
        spec = SUITE_BY_NAME["Dbcp1"]
        trace = build_benchmark(spec)
        full = spd_offline(trace)
        windowed = spd_offline_windowed(trace, window=1_000, overlap=0.5)
        assert windowed.unique_bugs() == full.unique_bugs()

    def test_memory_proxy_many_windows(self):
        spec = SUITE_BY_NAME["JDBCMySQL-4"]
        trace = build_benchmark(spec)
        res = spd_offline_windowed(trace, window=2_000, overlap=0.25)
        assert res.windows > 5
        # Bugs are template-local (~40 events), so none are lost.
        assert len(res.unique_bugs()) == spec.expected_spd
