"""Sync-preserving closure: Definition 3 laws and Algorithm 1 behavior."""

from hypothesis import given, settings, strategies as st

from repro.core.closure import SPClosureEngine, sp_closure_events
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.builder import TraceBuilder
from repro.vc.timestamps import TRFTimestamps, trf_reachable_set


def reference_closure(trace, seed):
    """Direct fix-point over event sets (the Definition 3 statement)."""
    current = set(trf_reachable_set(trace, list(seed)))
    changed = True
    while changed:
        changed = False
        for lock in trace.locks:
            acqs = [i for i in trace.acquires_of_lock(lock) if i in current]
            if len(acqs) < 2:
                continue
            latest = max(acqs)
            for a in acqs:
                if a == latest:
                    continue
                rel = trace.match(a)
                if rel is not None and rel not in current:
                    current |= trf_reachable_set(trace, [rel])
                    changed = True
    return current


traces = st.builds(
    lambda seed, t, l: generate_random_trace(
        RandomTraceConfig(seed=seed, num_threads=t, num_locks=l, num_events=50)
    ),
    seed=st.integers(0, 100_000),
    t=st.integers(2, 4),
    l=st.integers(1, 4),
)


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(trace=traces, data=st.data())
    def test_matches_setwise_fixpoint(self, trace, data):
        if len(trace) == 0:
            return
        k = data.draw(st.integers(1, min(4, len(trace))))
        seed = data.draw(
            st.lists(
                st.integers(0, len(trace) - 1), min_size=k, max_size=k, unique=True
            )
        )
        assert sp_closure_events(trace, seed) == reference_closure(trace, seed)


class TestClosureOperatorLaws:
    @settings(max_examples=25, deadline=None)
    @given(trace=traces, data=st.data())
    def test_extensive(self, trace, data):
        if len(trace) == 0:
            return
        seed = data.draw(st.sets(st.integers(0, len(trace) - 1), min_size=1, max_size=4))
        assert seed <= sp_closure_events(trace, seed)

    @settings(max_examples=25, deadline=None)
    @given(trace=traces, data=st.data())
    def test_idempotent(self, trace, data):
        if len(trace) == 0:
            return
        seed = data.draw(st.sets(st.integers(0, len(trace) - 1), min_size=1, max_size=4))
        once = sp_closure_events(trace, seed)
        assert sp_closure_events(trace, once) == once

    @settings(max_examples=25, deadline=None)
    @given(trace=traces, data=st.data())
    def test_monotone_proposition_4_4(self, trace, data):
        """S ⊆ S' (up to TO-domination) ⇒ closure(S) ⊆ closure(S')."""
        if len(trace) == 0:
            return
        small = data.draw(st.sets(st.integers(0, len(trace) - 1), min_size=1, max_size=3))
        extra = data.draw(st.sets(st.integers(0, len(trace) - 1), min_size=0, max_size=3))
        assert sp_closure_events(trace, small) <= sp_closure_events(trace, small | extra)

    @settings(max_examples=25, deadline=None)
    @given(trace=traces, data=st.data())
    def test_closed_under_to_and_rf(self, trace, data):
        if len(trace) == 0:
            return
        seed = data.draw(st.sets(st.integers(0, len(trace) - 1), min_size=1, max_size=4))
        closure = sp_closure_events(trace, seed)
        for idx in closure:
            pred = trace.thread_predecessor(idx)
            if pred is not None:
                assert pred in closure
            if trace[idx].is_read and trace.rf(idx) is not None:
                assert trace.rf(idx) in closure

    @settings(max_examples=25, deadline=None)
    @given(trace=traces, data=st.data())
    def test_lock_rule(self, trace, data):
        """Definition 3(c): earlier of two same-lock acquires closes."""
        if len(trace) == 0:
            return
        seed = data.draw(st.sets(st.integers(0, len(trace) - 1), min_size=1, max_size=4))
        closure = sp_closure_events(trace, seed)
        for lock in trace.locks:
            acqs = [i for i in trace.acquires_of_lock(lock) if i in closure]
            for a in acqs[:-1]:  # all but the trace-latest in the closure
                rel = trace.match(a)
                assert rel is None or rel in closure


class TestEngineIncrementalReuse:
    def test_growing_timestamps_reuse_cursors(self):
        """Computing closure(S1) then closure(S1 ∪ S2) with one engine
        equals computing closure(S1 ∪ S2) fresh (Proposition 4.4)."""
        trace = generate_random_trace(RandomTraceConfig(seed=7, num_events=60))
        engine = SPClosureEngine(trace)
        t1 = engine.compute(engine.timestamp_of_events([5, 10]))
        t2 = engine.compute(t1.join(engine.timestamp_of_events([20, 40])))
        fresh = SPClosureEngine(trace)
        expected = fresh.compute(fresh.timestamp_of_events([5, 10, 20, 40]))
        assert engine.members(t2) == fresh.members(expected)

    def test_reset_restores_fresh_state(self):
        trace = generate_random_trace(RandomTraceConfig(seed=9, num_events=60))
        engine = SPClosureEngine(trace)
        big = engine.compute(engine.timestamp_of_events(range(0, 50, 7)))
        engine.reset()
        small = engine.compute(engine.timestamp_of_events([3]))
        fresh = SPClosureEngine(trace)
        assert engine.members(small) == fresh.members(
            fresh.compute(fresh.timestamp_of_events([3]))
        )

    def test_members_denotes_timestamp(self):
        trace = generate_random_trace(RandomTraceConfig(seed=3, num_events=50))
        engine = SPClosureEngine(trace)
        ts = TRFTimestamps(trace)
        t_clock = engine.compute(engine.timestamp_of_events([10, 30]))
        members = engine.members(t_clock)
        for e in range(len(trace)):
            assert (e in members) == ts.of(e).leq(t_clock)


class TestClone:
    def test_advancing_the_clone_leaves_the_original_untouched(self):
        """A clone owns its clock and cursor rows: computing a larger
        seed on it moves its cursors, not the original's, and both then
        reach the fix-point a fresh closure computes (Proposition 4.4)."""
        from repro.core.closure import SPClosure

        trace = generate_random_trace(RandomTraceConfig(
            seed=5, num_threads=4, num_locks=3, num_events=200,
            acquire_prob=0.35, max_nesting=2))
        engine = SPClosureEngine(trace)
        small = engine.timestamp_of_events([40])
        large = engine.timestamp_of_events([40, 120, 190])
        original = SPClosure(engine.histories)
        original.compute(small)

        def state(closure):
            return (closure.clock.values(),
                    {lid: list(row) for lid, row in closure._by_lock.items()},
                    closure._log_pos, set(closure._pending))

        before = state(original)
        twin = original.clone()
        assert state(twin) == before
        got = twin.compute(large).copy()
        assert state(twin) != before
        assert state(original) == before
        want = SPClosure(engine.histories).compute(large)
        assert got == want
        assert original.compute(large) == want


class TestEngineInPlaceJoins:
    """``SPClosureEngine.compute``'s callers that join in place (Algorithm
    2's plain walk, kept as the oracle in ``tests/test_prefix_walk.py``,
    and its race analog in ``core.races``) join predecessor clocks into
    the clock it returned and pass that clock back.  At every such step
    the engine must reach the exact fix-point of the joined clock: a
    ``compute`` that handed out the closure's own clock would let those
    joins bypass its dirty-lock worklist."""

    @staticmethod
    def walk(trace):
        """The oracle walk over every abstract pattern of ``trace``,
        with each step checked against a fresh engine.  Returns (steps,
        steps whose fix-point grew past the joined clock)."""
        from repro.core.alg import abstract_deadlock_patterns
        from tests.test_prefix_walk import oracle_check_pattern_sequences

        _, abstracts = abstract_deadlock_patterns(trace, max_size=4,
                                                  max_cycles=200)
        engine = SPClosureEngine(trace)
        ts = engine.timestamps
        compute = engine.compute
        counts = [0, 0]

        def checked(t_clock):
            joined = t_clock.copy()
            out = compute(t_clock)
            want = SPClosureEngine(trace, ts).compute(joined.copy())
            assert out == want, trace.name
            counts[0] += 1
            counts[1] += out != joined
            return out

        engine.compute = checked
        for abstract in abstracts:
            oracle_check_pattern_sequences(
                engine, [a.events for a in abstract.acquires])
        return tuple(counts)

    def test_corpus(self):
        import glob
        import os

        from repro.trace.parser import load_trace

        paths = sorted(glob.glob(os.path.join(
            os.path.dirname(__file__), "..", "corpus", "*.std")))
        assert paths
        total = sum(self.walk(load_trace(p))[0] for p in paths)
        assert total > 0

    def test_seeded(self):
        steps = grew = 0
        for seed in range(60):
            trace = generate_random_trace(RandomTraceConfig(
                seed=seed, num_threads=3 + seed % 3, num_locks=3 + seed % 3,
                num_events=120, acquire_prob=0.35, release_prob=0.3,
                max_nesting=3, fork_join=seed % 4 == 0,
                release_any_prob=0.5 if seed % 2 else 0.0))
            s, g = self.walk(trace)
            steps += s
            grew += g
        # Not vacuous: many steps, and the lock rule did work in some.
        assert steps > 200 and grew > 20, (steps, grew)


class TestEdgeCases:
    def test_empty_seed(self):
        trace = TraceBuilder().acq("t1", "l").rel("t1", "l").build()
        assert sp_closure_events(trace, []) == set()

    def test_seed_with_open_critical_section(self):
        # Only one acquire on the lock: no release forced.
        trace = TraceBuilder().acq("t1", "l").write("t1", "x").build()
        assert sp_closure_events(trace, [1]) == {0, 1}

    def test_two_open_critical_sections_force_earlier_release(self):
        trace = (
            TraceBuilder()
            .acq("t1", "l").write("t1", "x").rel("t1", "l")
            .acq("t2", "l").write("t2", "y")
            .build()
        )
        # Seeding both acquires: earlier CS (t1's) must close.
        assert sp_closure_events(trace, [0, 3]) == {0, 1, 2, 3}
