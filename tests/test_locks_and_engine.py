"""Unit tests for the lock-history and closure-engine internals."""

import pytest

from repro.core.closure import SPClosure, SPClosureEngine
from repro.locks.history import CSHistories
from repro.trace.builder import TraceBuilder
from repro.vc.clock import VectorClock
from repro.vc.timestamps import TRFTimestamps


@pytest.fixture
def two_cs_trace():
    """Two critical sections on one lock, two threads."""
    return (
        TraceBuilder()
        .acq("t1", "l").write("t1", "x").rel("t1", "l")    # 0 1 2
        .acq("t2", "l").write("t2", "y").rel("t2", "l")    # 3 4 5
        .build("two_cs")
    )


def lock_id(trace, name):
    """CSHistories keys critical sections by interned lock id."""
    return trace.compiled.locks_tab.get(name)


class TestCSHistories:
    """The history built up front, read by the one Algorithm 1 engine."""

    @staticmethod
    def closure_over(trace, ts):
        return SPClosure(CSHistories.from_trace(trace, ts))

    def test_entries_carry_release_timestamps(self, two_cs_trace):
        ts = TRFTimestamps(two_cs_trace)
        hist = CSHistories.from_trace(two_cs_trace, ts)
        lid = lock_id(two_cs_trace, "l")
        (slot1, rec1), = [(s, r) for (s, l), rs in hist.records.items()
                          if l == lid for r in rs if r.acq_idx == 0]
        assert (rec1.slot, rec1.acq_val) == (slot1, 1)
        assert rec1.rel_val == 3
        # The full release clock is built at the first join needing it.
        assert rec1.rel_ts is None
        assert hist.release_ts(rec1) == ts.of(2)
        assert rec1.rel_ts == ts.of(2)
        # Both acquires are inside; earlier CS (t1's) must close; its
        # release timestamp is already ⊑ the query clock, so no growth.
        assert SPClosure(hist).compute(ts.of(5)) == ts.of(5)

    def test_earlier_release_forced(self, two_cs_trace):
        ts = TRFTimestamps(two_cs_trace)
        # Clock covering both acquires but not t1's release: join of
        # acq timestamps.
        clock = ts.of(0).join(ts.of(3))
        out = self.closure_over(two_cs_trace, ts).compute(clock)
        assert out != clock
        assert ts.of(2).leq(out)  # t1's release must enter
        assert not ts.of(5).leq(out)  # the latest section stays open

    def test_single_acquire_never_forces(self):
        t = TraceBuilder().acq("t1", "l").write("t1", "x").build()
        ts = TRFTimestamps(t)
        assert self.closure_over(t, ts).compute(ts.of(1)) == ts.of(1)

    def test_cursor_persistence(self, two_cs_trace):
        """Cursors never rewind within a check; reset() restarts them."""
        ts = TRFTimestamps(two_cs_trace)
        engine = SPClosureEngine(two_cs_trace, ts)
        lid = lock_id(two_cs_trace, "l")
        small = ts.of(0)
        assert engine.compute(small) == small
        row = engine._closure._by_lock[lid]
        assert row[0::2] == [1, 0]   # t1's cursor moved past its acquire
        # Larger query later sees the same (persisted) last entries.
        big = ts.of(0).join(ts.of(3))
        assert ts.of(2).leq(engine.compute(big))
        assert engine._closure._by_lock[lid] is row
        assert row[0::2] == [1, 1]
        engine.reset()
        assert engine._closure._by_lock == {}
        assert engine.compute(small) == small  # one acquire only

    def test_locks_listing(self, two_cs_trace):
        ts = TRFTimestamps(two_cs_trace)
        hist = CSHistories.from_trace(two_cs_trace, ts)
        assert hist.locks == [lock_id(two_cs_trace, "l")]


class TestEngineMembers:
    def test_members_empty_for_bottom(self, two_cs_trace):
        engine = SPClosureEngine(two_cs_trace)
        bottom = VectorClock.bottom(2)
        assert engine.members(bottom) == set()

    def test_members_full_for_top(self, two_cs_trace):
        engine = SPClosureEngine(two_cs_trace)
        top = engine.timestamp_of_events(range(len(two_cs_trace)))
        assert engine.members(top) == set(range(len(two_cs_trace)))

    def test_timestamp_of_events_is_join(self, two_cs_trace):
        engine = SPClosureEngine(two_cs_trace)
        ts = engine.timestamps
        joined = engine.timestamp_of_events([1, 4])
        assert ts.of(1).leq(joined) and ts.of(4).leq(joined)

    def test_pred_timestamp_of_first_events_is_bottom(self, two_cs_trace):
        engine = SPClosureEngine(two_cs_trace)
        assert engine.pred_timestamp_of_events([0, 3]) == VectorClock.bottom(2)

    def test_shared_timestamps_between_engines(self, two_cs_trace):
        ts = TRFTimestamps(two_cs_trace)
        e1 = SPClosureEngine(two_cs_trace, ts)
        e2 = SPClosureEngine(two_cs_trace, ts)
        c1 = e1.compute(ts.of(4).copy())
        c2 = e2.compute(ts.of(4).copy())
        assert e1.members(c1) == e2.members(c2)


class TestSPDOfflineOptions:
    def test_max_size_two_skips_dining(self):
        from repro.core.spd_offline import spd_offline
        from repro.synth.templates import dining_philosophers_trace

        t = dining_philosophers_trace(4)
        assert spd_offline(t).num_deadlocks == 1
        assert spd_offline(t, max_size=2).num_deadlocks == 0
        assert spd_offline(t, max_size=4).num_deadlocks == 1

    def test_max_cycles_caps_enumeration(self):
        from repro.core.spd_offline import spd_offline
        from repro.synth.templates import simple_deadlock_trace

        t = simple_deadlock_trace()
        res = spd_offline(t, max_cycles=0)
        assert res.num_cycles == 0 and res.num_deadlocks == 0

    def test_result_unique_bugs(self):
        from repro.core.spd_offline import spd_offline
        from repro.synth.templates import stringbuffer_trace

        res = spd_offline(stringbuffer_trace())
        assert len(res.unique_bugs()) == res.num_deadlocks == 2

    def test_elapsed_recorded(self):
        from repro.core.spd_offline import spd_offline
        from repro.synth.paper import sigma2

        assert spd_offline(sigma2()).elapsed >= 0.0

    def test_empty_trace(self):
        from repro.core.spd_offline import spd_offline
        from repro.trace.trace import Trace

        res = spd_offline(Trace([], name="empty"))
        assert res.num_deadlocks == 0 and res.num_cycles == 0

    def test_trace_without_locks(self):
        from repro.core.spd_offline import spd_offline

        t = TraceBuilder().write("t1", "x").read("t2", "x").build()
        assert spd_offline(t).num_deadlocks == 0


class TestAlgorithm2PointerBehavior:
    def test_corollary_4_5_skips_instantiations(self):
        """On σ3, Algorithm 2 explicitly enumerates only D1 and D5
        (Example 4): the closure computed for D1 swallows D2-D4."""
        from repro.core.alg import abstract_deadlock_patterns
        from repro.core.closure import SPClosureEngine
        from repro.synth.paper import sigma3

        trace = sigma3()
        _, (abstract,) = abstract_deadlock_patterns(trace)
        engine = SPClosureEngine(trace)
        engine.reset()
        ts = engine.timestamps

        # Replicate Algorithm 2's walk, recording visited instantiations.
        visited = []
        sequences = tuple(a.events for a in abstract.acquires)
        pointers = [0, 0]
        clock = VectorClock.bottom(len(ts.universe))
        while all(pointers[j] < len(sequences[j]) for j in range(2)):
            current = tuple(sequences[j][pointers[j]] for j in range(2))
            visited.append(current)
            for idx in current:
                clock.join_with(ts.pred_timestamp(idx))
            clock = engine.compute(clock)
            if all(not ts.of(e).leq(clock) for e in current):
                break
            for j in range(2):
                seq, i = sequences[j], pointers[j]
                while i < len(seq) and ts.of(seq[i]).leq(clock):
                    i += 1
                pointers[j] = i
        # 0-based: D1 = (1, 15), D5 = (28, 15).
        assert visited == [(1, 15), (28, 15)]
