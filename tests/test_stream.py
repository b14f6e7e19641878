"""Streaming-session equivalence and bounded-memory soundness suite.

The contracts under test (ISSUE 5):

- **Session ≡ batch, bit for bit** — feeding any trace through a
  :class:`repro.stream.StreamSession` in chunked batches produces, for
  every ported consumer (SPDOnline, SPDOnlineK, FastTrack, windowed
  SPDOffline), exactly the reports of the batch entry point, for every
  batch size, on the whole corpus and hundreds of seeded random traces.
- **Eviction only misses** — with ``max_memory_events`` set, every
  report the bounded detector still makes is a *true* sync-preserving
  deadlock (verified against the closure oracle); when no sweep fired,
  reports are bit-identical to the exact detector's; tracked state
  stays bounded.
- **Checkpoints resume exactly** — a detector checkpointed mid-stream
  and restored produces the same remaining reports.

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=N pytest -m fuzz
tests/test_stream.py`` (nightly-style, same knob as the chaos and
kernel fuzz loops).
"""

from __future__ import annotations

import glob
import os
from bisect import bisect_left

import pytest

from repro.core.patterns import DeadlockPattern, DeadlockReport
from repro.core.spd_offline import spd_offline
from repro.core.spd_online import SPDOnline, spd_online
from repro.core.spd_online_k import SPDOnlineK, spd_online_k
from repro.hb.fasttrack import FastTrack, fasttrack_races
from repro.stream import StreamSession, WindowedSessionClient
from repro.stream.windowed import spd_offline_windowed
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.events import OP_RELEASE
from repro.trace.index import TraceIndex
from repro.trace.parser import load_trace
from repro.trace.trace import as_trace

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                       "corpus", "*.std")))

#: quick-slice size; the acceptance bar is >= 200 seeded configs.
QUICK_ITERS = 200

#: batch sizes swept by the equivalence checks (1 = the monitor's
#: per-event flush; primes exercise misaligned chunk boundaries).
BATCHES = (1, 7, 64, 100_000)


def config_for(seed: int) -> RandomTraceConfig:
    """Deterministic varied generator config."""
    return RandomTraceConfig(
        num_threads=2 + seed % 5,
        num_locks=2 + (seed * 7) % 6,
        num_vars=1 + seed % 4,
        num_events=30 + (seed * 13) % 111,
        acquire_prob=0.25 + 0.05 * (seed % 4),
        release_prob=0.2 + 0.05 * (seed % 3),
        write_prob=0.3 + 0.1 * (seed % 5),
        max_nesting=1 + seed % 4,
        fork_join=seed % 3 == 0,
        release_any_prob=0.5 if seed % 2 else 0.0,
        seed=seed,
    )


def online_key(reports):
    return [(r.first_event, r.second_event, r.context, r.locations)
            for r in reports]


def online_k_key(reports):
    return [(r.events, r.locations, r.signatures) for r in reports]


def fasttrack_key(result):
    return [(r.first_event, r.second_event, r.variable, r.kind)
            for r in result.races]


def windowed_key(result):
    return [(r.pattern.events, r.locations) for r in result.reports]


def session_fed(compiled, batch, max_memory_events=None, window=None,
                overlap=0.5, max_size=None, with_k=True):
    """Feed ``compiled`` through a session; returns the consumer dict."""
    session = StreamSession(name="s", batch_size=batch,
                            max_memory_events=max_memory_events)
    out = {"session": session}
    out["online"] = SPDOnline(max_memory_events=max_memory_events)
    session.attach(out["online"])
    if with_k and max_memory_events is None:
        out["k"] = SPDOnlineK(max_size=3)
        session.attach(out["k"])
        out["fasttrack"] = FastTrack()
        session.attach(out["fasttrack"])
    if window is not None:
        out["windowed"] = WindowedSessionClient(
            session, window=window, overlap=overlap, max_size=max_size)
    session.feed_compiled(compiled, batch_size=batch)
    session.close()
    return out


def legacy_windowed(trace, window, overlap, max_size=None):
    """The pre-streaming batch implementation, kept as the reference."""
    trace = as_trace(trace)
    step = max(1, int(window * (1 - overlap)))
    seen = set()
    reports = []
    windows = 0
    location_of = trace.compiled.location_of
    ops = trace.compiled.ops
    match = trace.index.match
    lo = 0
    while lo < len(trace):
        hi = min(lo + window, len(trace))
        # drop releases whose acquire precedes the window
        back = [i for i in range(lo, hi)
                if not (ops[i] == OP_RELEASE and match[i] < lo)]
        sub = trace.project(back)
        windows += 1
        inner = spd_offline(sub, max_size=max_size)
        for report in inner.reports:
            original = tuple(sorted(back[e] for e in report.pattern.events))
            bug = tuple(sorted(location_of(i) for i in original))
            if bug in seen:
                continue
            seen.add(bug)
            reports.append(
                DeadlockReport.from_pattern(trace, DeadlockPattern(original)))
        if hi == len(trace):
            break
        lo += step
    return reports, windows


class TestIncrementalIndex:
    """extend() over any batch partition ≡ the one-shot pass."""

    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    def test_corpus_partitions(self, path):
        full = as_trace(load_trace(path))
        ref = full.index
        compiled = full.compiled
        for batch in (1, 3, 17):
            session = StreamSession(name="s", batch_size=batch)
            session.feed_compiled(compiled, batch_size=batch)
            inc = session.index
            assert inc.rf == ref.rf
            assert inc.match == ref.match
            assert inc.thread_pos == ref.thread_pos
            assert inc.thread_pred == ref.thread_pred
            assert inc.held_id == ref.held_id
            assert inc.held_pool == ref.held_pool
            assert inc.held_offsets == ref.held_offsets
            assert inc.thread_order == ref.thread_order
            assert inc.lock_order == ref.lock_order
            assert inc.var_order == ref.var_order
            assert inc.events_by_thread == ref.events_by_thread
            assert inc.acquires_by_lock == ref.acquires_by_lock
            assert inc.fork_of == ref.fork_of
            assert inc.num_acquires == ref.num_acquires
            assert inc.lock_nesting_depth == ref.lock_nesting_depth

    def test_as_trace_view_is_live(self):
        session = StreamSession(name="s", batch_size=2)
        session.append("t1", "acq", "l1")
        session.append("t1", "acq", "l2")
        view = session.as_trace()
        assert len(view) == 2
        assert view.held_locks(1) == ("l1",)
        session.append("t1", "rel", "l2")
        session.append("t1", "rel", "l1")
        session.flush()
        assert len(view) == 4
        assert view.match(1) == 2

    def test_incremental_matches_one_shot_type(self):
        session = StreamSession(name="s")
        assert isinstance(session.index, TraceIndex)


class TestSessionDetectorEquivalence:
    """Session-fed streaming detectors ≡ their batch entry points."""

    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_corpus(self, path, batch):
        compiled = as_trace(load_trace(path)).compiled
        fed = session_fed(compiled, batch)
        assert online_key(fed["online"].reports) == \
            online_key(spd_online(compiled).reports)
        assert online_k_key(fed["k"].k_reports) == \
            online_k_key(spd_online_k(compiled, max_size=3).k_reports)
        assert fasttrack_key(fed["fasttrack"].result) == \
            fasttrack_key(fasttrack_races(compiled))

    def test_random_sweep(self):
        """>= 200 seeded configs; batch size varies with the seed."""
        deadlocks = 0
        for seed in range(QUICK_ITERS):
            compiled = as_trace(generate_random_trace(config_for(seed))).compiled
            batch = BATCHES[seed % len(BATCHES)]
            fed = session_fed(compiled, batch)
            batch_reports = spd_online(compiled).reports
            assert online_key(fed["online"].reports) == \
                online_key(batch_reports), f"seed={seed}"
            assert online_k_key(fed["k"].k_reports) == \
                online_k_key(spd_online_k(compiled, max_size=3).k_reports), \
                f"seed={seed}"
            assert fasttrack_key(fed["fasttrack"].result) == \
                fasttrack_key(fasttrack_races(compiled)), f"seed={seed}"
            deadlocks += len(batch_reports)
        assert deadlocks > 0, "vacuous sweep: no deadlock was ever found"

    def test_string_fallback_consumer(self):
        """A detector that saw other events before it was attached reads
        the session's columns through its own names and reports exactly
        what stepping every event into it reports."""
        compiled = as_trace(load_trace(CORPUS[0])).compiled
        det = SPDOnline()
        det.step(as_trace(load_trace(CORPUS[0]))[0])  # desync the tables
        session = StreamSession(name="s", batch_size=3)
        session.attach(det)
        session.feed_compiled(compiled, batch_size=3)
        session.close()
        # the duplicated first event shifts indices by one
        ref = SPDOnline()
        ref.step(as_trace(load_trace(CORPUS[0]))[0])
        for ev in load_trace(CORPUS[0]):
            ref.step(ev)
        assert online_key(det.reports) == online_key(ref.reports)


class TestWindowedEquivalence:
    """Session windowed client ≡ the historical batch implementation."""

    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    def test_corpus(self, path):
        trace = as_trace(load_trace(path))
        for window, overlap in ((40, 0.5), (17, 0.0), (10 ** 6, 0.5)):
            got = spd_offline_windowed(trace, window=window, overlap=overlap)
            ref_reports, ref_windows = legacy_windowed(trace, window, overlap)
            assert got.windows == ref_windows, (path, window, overlap)
            assert windowed_key(got) == [
                (r.pattern.events, r.locations) for r in ref_reports
            ], (path, window, overlap)

    def test_random_sweep(self):
        for seed in range(0, QUICK_ITERS, 5):
            trace = as_trace(generate_random_trace(config_for(seed)))
            window = 10 + seed % 40
            overlap = (seed % 3) * 0.25
            got = spd_offline_windowed(trace, window=window, overlap=overlap,
                                       max_size=2)
            ref_reports, ref_windows = legacy_windowed(
                trace, window, overlap, max_size=2)
            assert got.windows == ref_windows, f"seed={seed}"
            assert windowed_key(got) == [
                (r.pattern.events, r.locations) for r in ref_reports
            ], f"seed={seed}"

    def test_bounded_session_windowed_identical(self):
        """Eviction behind the open window never changes windowed
        reports — bounded streaming ≡ batch."""
        evicted_sessions = 0
        for seed in range(0, QUICK_ITERS, 9):
            trace = as_trace(generate_random_trace(config_for(seed)))
            window = 16
            session = StreamSession(name="s", batch_size=8,
                                    max_memory_events=window)
            client = WindowedSessionClient(session, window=window,
                                           overlap=0.5, max_size=2)
            session.feed_compiled(trace.compiled, batch_size=8)
            session.close()
            batch = spd_offline_windowed(trace, window=window, overlap=0.5,
                                         max_size=2)
            assert windowed_key(client.result) == windowed_key(batch), \
                f"seed={seed}"
            assert client.result.windows == batch.windows
            if session.base > 0:
                evicted_sessions += 1
        assert evicted_sessions > 0, "eviction never fired; sweep is vacuous"

    def test_bounded_session_rejects_views_and_late_consumers(self):
        session = StreamSession(name="s", batch_size=4, max_memory_events=8)
        client = WindowedSessionClient(session, window=8, overlap=0.5)
        big = generate_random_trace(config_for(1))
        session.feed_compiled(as_trace(big).compiled, batch_size=4)
        assert session.base > 0
        with pytest.raises(ValueError):
            session.as_trace()
        with pytest.raises(ValueError):
            session.attach(SPDOnline())
        session.close()
        assert client.result.windows > 0


def assert_eviction_sound(trace, det, exact_reports, label=""):
    """The bounded-memory guarantee: reports are *true* sync-preserving
    deadlocks (never fabricated); when no eviction sweep fired, reports
    equal the exact detector's bit for bit.  Relative to the exact
    first-hit detector, eviction may lose a report or surface a later
    true representative of the same context (when the earlier entry was
    evicted) — both are misses of the exact report, never false bugs.
    """
    from repro.analysis.explain import explain_pattern

    got = online_key(det.reports)
    ref = online_key(exact_reports)
    if det.stats()["evictions"] == 0:
        assert got == ref, f"{label}: no eviction fired yet reports differ"
        return
    exact_pairs = {(r.first_event, r.second_event) for r in exact_reports}
    for r in det.reports:
        pair = (r.first_event, r.second_event)
        if pair in exact_pairs:
            continue
        assert explain_pattern(trace,
                               tuple(sorted(pair))).is_deadlock, \
            f"{label}: fabricated non-deadlock {pair}"


def closure_cursors(det):
    """Each prefix closure row's (cursor, last-consumed record), keyed
    by (closure, lock, row position)."""
    out = {}
    for closure in det._prefixes.values():
        for lid, row in closure._by_lock.items():
            for i in range(0, len(row), 2):
                out[(id(closure), lid, i)] = (row[i], row[i + 1])
    return out


def assert_sweep_invariants(det, before):
    """After an eviction sweep: every value column equals its records'
    acquire values (the per-lock index shares those lists), and every
    prefix closure cursor was rebased onto the trimmed history — it
    names its last-consumed record's new position, or 0 once that was
    evicted.  Returns the number of rows checked."""
    hist = det.histories
    for key, records in hist.records.items():
        assert hist.cols[key] == [rec.acq_val for rec in records], key
    for lid, hists in hist.by_lock.items():
        assert [h[0] for h in hists] == \
            [tid for (tid, l) in hist.records if l == lid]
        for tid, records, col in hists:
            assert records is hist.records[(tid, lid)]
            assert col is hist.cols[(tid, lid)]
    rows = 0
    for closure in det._prefixes.values():
        for lid, row in closure._by_lock.items():
            hists = hist.by_lock[lid]
            for i in range(0, len(row), 2):
                rows += 1
                tid, records, col = hists[i // 2]
                old_cursor, last = before.get((id(closure), lid, i),
                                              (0, None))
                want = 0
                if old_cursor:
                    j = bisect_left(col, last.acq_val)
                    if j < len(col) and records[j] is last:
                        want = j + 1
                assert row[i] == want, (tid, lid, old_cursor, row[i])
                if want:
                    assert row[i + 1] is records[want - 1]
    return rows


def checked_sweeps(det):
    """Make ``det`` assert :func:`assert_sweep_invariants` after every
    eviction sweep; ``det.sweeps_checked`` counts them and
    ``det.rows_checked`` the prefix closure rows they checked."""
    sweep = det._evict_stale
    det.sweeps_checked = det.rows_checked = 0

    def checked():
        before = closure_cursors(det)
        sweep()
        det.rows_checked += assert_sweep_invariants(det, before)
        det.sweeps_checked += 1

    det._evict_stale = checked
    return det


class TestEvictionSoundness:
    """Bounded-memory mode only ever misses, never fabricates."""

    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    def test_corpus_sound(self, path):
        trace = as_trace(load_trace(path))
        exact = spd_online(trace.compiled).reports
        for horizon in (8, 32, 128):
            det = checked_sweeps(SPDOnline(max_memory_events=horizon))
            det.run(trace.compiled)
            assert_eviction_sound(trace, det, exact, f"{path}@{horizon}")

    def test_random_sound_and_bounded_state(self):
        fired = kept = rows = 0
        for seed in range(QUICK_ITERS):
            trace = as_trace(generate_random_trace(config_for(seed)))
            exact = spd_online(trace.compiled).reports
            horizon = 16 + seed % 48
            det = checked_sweeps(SPDOnline(max_memory_events=horizon))
            det.run(trace.compiled)
            assert_eviction_sound(trace, det, exact, f"seed={seed}")
            assert det.sweeps_checked == det.stats()["evictions"]
            if det.stats()["evictions"]:
                fired += 1
            kept += len(det.reports)
            rows += det.rows_checked
        assert fired > 0, "eviction never fired; sweep is vacuous"
        assert kept > 0, "bounded mode found nothing; sweep is vacuous"
        assert rows > 0, "no prefix closure row was rebased"

    def test_tracked_state_is_bounded(self):
        """On a long lock-heavy stream, tracked entries stay O(horizon)
        while the exact detector's grow with the trace."""
        cfg = RandomTraceConfig(num_threads=4, num_locks=4, num_vars=2,
                                num_events=6000, acquire_prob=0.4,
                                release_prob=0.45, max_nesting=2, seed=42)
        compiled = as_trace(generate_random_trace(cfg)).compiled
        exact = SPDOnline()
        exact.run(compiled)
        horizon = 256
        bounded = checked_sweeps(SPDOnline(max_memory_events=horizon))
        bounded.run(compiled)
        exact_entries = exact.stats()["tracked_entries"]
        bounded_entries = bounded.stats()["tracked_entries"]
        assert bounded.stats()["evictions"] > 0
        assert bounded_entries < exact_entries / 4
        # O(horizon + entities): generous constant, but orders below N.
        assert bounded_entries <= 8 * horizon

    def test_reports_remain_true_deadlocks(self):
        """Soundness end-to-end: every bounded-mode report passes the
        closure oracle (a true sync-preserving deadlock of the trace)."""
        from repro.analysis.explain import explain_pattern

        checked = 0
        for seed in range(0, QUICK_ITERS, 11):
            trace = as_trace(generate_random_trace(config_for(seed)))
            det = SPDOnline(max_memory_events=24)
            det.run(trace.compiled)
            for r in det.reports:
                pair = tuple(sorted((r.first_event, r.second_event)))
                assert explain_pattern(trace, pair).is_deadlock, \
                    f"seed={seed}: {pair}"
                checked += 1
        assert checked > 0


class TestCheckpointRestore:
    """checkpoint()/restore() resumes detectors exactly."""

    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    def test_spd_online_resume(self, path):
        compiled = as_trace(load_trace(path)).compiled
        n = len(compiled)
        ref = spd_online(compiled)
        det = SPDOnline()
        det.feed_batch(compiled, 0, n // 2)
        blob = det.checkpoint()
        resumed = SPDOnline.restore(blob)
        resumed.feed_batch(compiled, n // 2, n)
        assert online_key(resumed.reports) == online_key(ref.reports)
        # the original, still holding its table link, agrees too
        det.feed_batch(compiled, n // 2, n)
        assert online_key(det.reports) == online_key(ref.reports)

    def test_restore_rebinds_closure_owners(self):
        """Regression: closures must read the *restored* detector's
        history — with bounded-memory compaction a stale one freezes
        the log base and desynchronizes the dirty-tracking, so a
        resumed bounded run must stay identical to an uninterrupted
        one."""
        rebound = 0
        for seed in range(0, QUICK_ITERS, 13):
            compiled = as_trace(generate_random_trace(config_for(seed))).compiled
            n = len(compiled)
            horizon = 16 + seed % 32
            straight = SPDOnline(max_memory_events=horizon)
            straight.run(compiled)
            det = SPDOnline(max_memory_events=horizon)
            det.feed_batch(compiled, 0, n // 2)
            resumed = SPDOnline.restore(det.checkpoint())
            for closure in resumed._prefixes.values():
                assert closure._hist is resumed.histories
                rebound += 1
            resumed.feed_batch(compiled, n // 2, n)
            assert online_key(resumed.reports) == \
                online_key(straight.reports), f"seed={seed}"
            assert resumed.histories.log_base == \
                straight.histories.log_base, f"seed={seed}"
        assert rebound > 0, "no prefix closure was restored"

    def test_blob_pickles_canonical_state_only(self):
        """The value columns and the per-lock history index derive from
        the history's records: blobs leave them out, so every blob
        pickles the same state keys, and restore rebuilds them equal to
        the live detector's."""
        import pickle

        keys = {
            "_acq_seq", "_clocks", "_ctx_cursor",
            "_deadlock_checks", "_events_seen", "_evict_period",
            "_evictions", "_held", "_last_write", "_next_evict",
            "_open_cs", "_pair_threads", "_prefixes", "histories",
            "max_memory_events", "names", "reports",
        }
        history_keys = {"records", "log", "log_base", "evicted"}
        k_keys = keys | {"_contexts", "_sig_entries", "_sigs", "_succ",
                         "k_reports", "max_size"}
        compiled = as_trace(generate_random_trace(RandomTraceConfig(
            num_threads=5, num_locks=4, num_events=600, max_nesting=3,
            acquire_prob=0.3, release_prob=0.3, seed=3))).compiled
        for det, want in ((SPDOnline(), keys),
                          (SPDOnline(max_memory_events=32), keys),
                          (SPDOnlineK(max_size=3), k_keys)):
            det.run(compiled)
            blob = det.checkpoint()
            assert set(pickle.loads(blob)[1]) == want, type(det).__name__
            assert set(det.histories.__getstate__()) == history_keys
            out = type(det).restore(blob)
            assert out.histories.cols == det.histories.cols
            assert out.histories.locks_of_thread == \
                det.histories.locks_of_thread
            for lid, hists in det.histories.by_lock.items():
                assert [(tid, col) for tid, _, col in hists] == \
                    [(tid, col) for tid, _, col in out.histories.by_lock[lid]]
                for tid, records, _ in out.histories.by_lock[lid]:
                    assert records is out.histories.records[(tid, lid)]

    def test_restore_keeps_cycle_search_order(self):
        """SPDOnlineK registers contexts, and so fires K reports, in the
        iteration order of its successor sets, which a plain pickle
        round trip does not keep.  A restored detector iterates them as
        the live one does, and a run resumed from a blob reports in the
        order of an uninterrupted run."""
        import pickle

        compiled = as_trace(generate_random_trace(RandomTraceConfig(
            num_threads=16, num_locks=24, num_vars=4, num_events=500,
            max_nesting=3, acquire_prob=0.35, release_prob=0.3,
            seed=3))).compiled
        straight = SPDOnlineK(max_size=4)
        straight.run(compiled)
        succ = straight._succ
        assert any(list(pickle.loads(pickle.dumps(s))) != list(s)
                   for s in succ.values())
        restored = SPDOnlineK.restore(straight.checkpoint())
        assert [list(s) for s in restored._succ.values()] == \
            [list(s) for s in succ.values()]
        n = len(compiled)
        det = SPDOnlineK(max_size=4)
        det.feed_batch(compiled, 0, n // 4)
        det = SPDOnlineK.restore(det.checkpoint())
        det.feed_batch(compiled, n // 4, n)
        assert len(straight.k_reports) > 5
        assert [r.events for r in det.k_reports] == \
            [r.events for r in straight.k_reports]

    def test_restore_rejects_other_detector_kind(self):
        det = SPDOnlineK(max_size=3)
        blob = det.checkpoint()
        with pytest.raises(ValueError):
            SPDOnline.restore(blob)
        assert isinstance(SPDOnlineK.restore(blob), SPDOnlineK)

    def test_restore_rejects_stale_blobs(self, monkeypatch):
        """Blobs that keep a closure per size-2 context (the layout
        before closures were kept per thread), that pickled K-context
        objects (the format before canonical clocks), that keep a
        closure clock per K-context (the layout before K-contexts kept
        only cursors), or that keep the critical-section history in flat
        detector fields (the layout before ``CSHistories``), are refused
        as stale, not rebound."""
        import importlib
        import pickle

        import repro.kernels as kernels
        from repro.core.closure import SPClosure

        trace = as_trace(load_trace(os.path.join(
            os.path.dirname(CORPUS[0]), "sigma2.std")))
        with kernels.use("python"):   # old blobs predate the numpy mirrors
            det = SPDOnline()
            det.run(trace.compiled)
            kind, state = pickle.loads(det.checkpoint())
            assert state["_ctx_cursor"]
            state["_closures"] = {ctx: SPClosure(det.histories)
                                  for ctx in state["_ctx_cursor"]}
            with pytest.raises(ValueError, match="stale SPDOnline "):
                SPDOnline.restore(pickle.dumps((kind, state)))

            # The flat layout: the history's fields as top-level keys.
            kind, state = pickle.loads(det.checkpoint())
            hist = state.pop("histories")
            threads_with_lock = {}
            for tid, lid in hist.records:
                threads_with_lock.setdefault(lid, []).append(tid)
            state.update(
                cs_history=hist.records, cs_log=hist.log,
                cs_log_base=hist.log_base, _evicted_rel=hist.evicted,
                _evicted_counts={}, _closure_iterations=0,
                threads_with_lock=threads_with_lock,
                locks_of_thread=hist.locks_of_thread)
            with pytest.raises(ValueError, match="stale SPDOnline "):
                SPDOnline.restore(pickle.dumps((kind, state)))

            # ...whose records were instances of a class that is gone:
            # unpickling fails on the class lookup, reported as stale.
            spd_mod = importlib.import_module("repro.core.spd_online")

            class _CSRecord:
                __slots__ = ("acq_idx", "tid", "acq_val", "rel_val",
                             "rel_ts")

            _CSRecord.__module__ = spd_mod.__name__
            _CSRecord.__qualname__ = "_CSRecord"
            monkeypatch.setattr(spd_mod, "_CSRecord", _CSRecord,
                                raising=False)
            for records in state["cs_history"].values():
                for i, rec in enumerate(records):
                    old = records[i] = _CSRecord()
                    old.acq_idx, old.tid, old.acq_val = \
                        rec.acq_idx, rec.slot, rec.acq_val
                    old.rel_val, old.rel_ts = rec.rel_val, rec.rel_ts
            blob = pickle.dumps((kind, state))
            monkeypatch.delattr(spd_mod, "_CSRecord")
            with pytest.raises(ValueError, match="stale SPDOnline "):
                SPDOnline.restore(blob)

            det = SPDOnlineK(max_size=3)
            det.run(generate_random_trace(RandomTraceConfig(
                num_threads=5, num_locks=4, num_events=600, max_nesting=3,
                acquire_prob=0.3, release_prob=0.3, seed=3)))
            kind, state = pickle.loads(det.checkpoint())
            assert state["_contexts"]
            state["_contexts"] = list(det._contexts)
            with pytest.raises(ValueError, match="stale SPDOnlineK "):
                SPDOnlineK.restore(pickle.dumps((kind, state)))

            # The clocked form: (signatures, cursors, clock, reported).
            kind, state = pickle.loads(det.checkpoint())
            state["_contexts"] = [
                (signatures, cursors, [0] * len(det._clocks), reported)
                for signatures, cursors, reported in state["_contexts"]]
            with pytest.raises(ValueError, match="stale SPDOnlineK "):
                SPDOnlineK.restore(pickle.dumps((kind, state)))


class TestMonitorSession:
    """The runtime monitor rides the session layer."""

    def test_monitor_exposes_session_trace(self):
        from repro.runtime.monitor import run_with_monitor
        from repro.runtime.programs import inverse_order_program

        out = run_with_monitor(inverse_order_program("Mon"), max_steps=10_000)
        assert out.session is not None
        view = out.session.as_trace()
        assert len(view) == len(out.execution.trace)
        assert [e.op for e in view] == [e.op for e in out.execution.trace]

    def test_monitor_bounded_memory(self):
        from repro.runtime.monitor import run_with_monitor
        from repro.runtime.programs import inverse_order_program

        out = run_with_monitor(inverse_order_program("Mon"), max_steps=10_000,
                               max_memory_events=64)
        assert out.session.bounded
        exact = run_with_monitor(inverse_order_program("Mon"), max_steps=10_000)
        assert {r.bug_id for r in out.predictions} <= \
            {r.bug_id for r in exact.predictions} | \
            ({exact.execution.deadlock_bug_id}
             if exact.execution.deadlocked else set())


class TestFileFeeds:
    """Incremental file parsing matches the one-shot loader."""

    @pytest.mark.parametrize("path", CORPUS[:4], ids=os.path.basename)
    def test_feed_file_identical(self, path):
        from repro.trace.compiled import load_compiled_trace

        ref = load_compiled_trace(path)
        session = StreamSession(name=path, batch_size=13)
        det = SPDOnline()
        session.attach(det)
        session.feed_file(path, batch_size=13)
        session.close()
        assert session.compiled.ops == ref.ops
        assert session.compiled.thread_ids == ref.thread_ids
        assert session.compiled.target_ids == ref.target_ids
        assert session.compiled.locs == ref.locs
        assert online_key(det.reports) == online_key(spd_online(ref).reports)

    def test_feed_gz(self, tmp_path):
        import gzip

        src = CORPUS[0]
        gz = str(tmp_path / "t.std.gz")
        with open(src, "rb") as fin, gzip.open(gz, "wb") as fout:
            fout.write(fin.read())
        session = StreamSession(name="gz", batch_size=5)
        session.feed_file(gz, batch_size=5)
        session.close()
        from repro.trace.compiled import load_compiled_trace

        assert session.compiled.ops == load_compiled_trace(src).ops


class TestStreamFuzz:
    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        raw = os.environ.get("REPRO_FUZZ_ITERS", "0")
        iters = int(raw) if raw.isdigit() else 0
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to a positive integer "
                        "to run the long fuzz loop")
        for seed in range(QUICK_ITERS, QUICK_ITERS + iters):
            trace = as_trace(generate_random_trace(config_for(seed)))
            fed = session_fed(trace.compiled, BATCHES[seed % len(BATCHES)])
            exact = spd_online(trace.compiled).reports
            assert online_key(fed["online"].reports) == online_key(exact), \
                f"seed={seed}"
            det = checked_sweeps(SPDOnline(max_memory_events=16 + seed % 64))
            det.run(trace.compiled)
            assert_eviction_sound(trace, det, exact, f"seed={seed}")
