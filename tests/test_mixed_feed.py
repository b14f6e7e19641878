"""Mixed-source differential for the streaming detectors.

SPDOnline, SPDOnlineK and FastTrack each own their names and take
events through one path (:class:`repro.trace.compiled.DetectorFeed`):
``step()`` interns a string event into the detector's names, and
``feed_batch`` reads any source's columns through maps from the
source's ids into those names.  A detector may therefore mix sources
freely.  This suite feeds each detector the events of a seeded trace
from three sources at once:

- a :class:`~repro.stream.StreamSession` it is attached to (batch 1, 3
  or 16),
- ``step()`` with string events,
- ``feed_batch`` over a second :class:`~repro.trace.compiled.CompiledTrace`
  that grows as it is fed,

delivering each source's pending events before the next source's, so
events arrive in trace order; SPDOnline and SPDOnlineK are also
checkpointed and restored at a random cut.  Every run must report what
the same events ``step()``ped into one fresh detector report, each
event named by its arrival index: SPDOnline and SPDOnlineK by event
pair, context and locations (plus ``stats()``), FastTrack by event
pair, variable and kind (plus its operation counts).

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_mixed_feed.py``.
"""

import os
import pickle
import random

import pytest

from repro.core.spd_online import SPDOnline, spd_online
from repro.core.spd_online_k import SPDOnlineK
from repro.hb.fasttrack import FastTrack, fasttrack_races
from repro.stream import StreamSession
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.compiled import CompiledTrace
from repro.trace.events import Event
from repro.trace.parser import load_trace

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def online_sig(det):
    out = [[(r.first_event, r.second_event, r.context, r.locations)
            for r in det.reports], det.stats()]
    if isinstance(det, SPDOnlineK):
        out.append([(r.events, r.locations, r.signatures)
                    for r in det.k_reports])
    return out


def fasttrack_sig(det):
    res = det.result
    return ([(r.first_event, r.second_event, r.variable, r.kind)
             for r in res.races], res.epoch_ops, res.vector_ops)


#: (name, factory, signature, whether it checkpoints)
DETECTORS = (
    ("SPDOnline", SPDOnline, online_sig, True),
    ("SPDOnline-bounded", lambda: SPDOnline(max_memory_events=24),
     online_sig, True),
    ("SPDOnlineK", lambda: SPDOnlineK(max_size=3), online_sig, True),
    ("FastTrack", FastTrack, fasttrack_sig, False),
)


class Slot:
    """Session consumer forwarding to a detector that a checkpoint
    round trip may replace."""

    def __init__(self, det):
        self.det = det

    def feed_batch(self, compiled, lo, hi, base=0):
        self.det.feed_batch(compiled, lo, hi, base)


def mixed(make, events, sources, batch=1, cut=None):
    """``make()`` fed ``events``, event ``i`` through ``sources[i]``:
    ``"s"`` the session, ``"d"`` ``step()``, ``"c"`` the second compiled
    trace.  With ``cut``, the detector is checkpointed and restored
    right after event ``cut``."""
    session = StreamSession("s", batch_size=batch)
    slot = Slot(make())
    session.attach(slot)
    other = CompiledTrace("other")
    other_fed = 0
    for i, (ev, src) in enumerate(zip(events, sources)):
        if src != "s":
            session.flush()
        if src != "c" and other_fed < len(other):
            slot.det.feed_batch(other, other_fed, len(other))
            other_fed = len(other)
        if src == "s":
            session.append(ev.thread, ev.op, ev.target, ev.loc)
        elif src == "d":
            slot.det.step(ev)
        else:
            other.append(ev.thread, ev.op, ev.target, ev.loc)
        if i == cut:
            slot.det = type(slot.det).restore(slot.det.checkpoint())
    if other_fed < len(other):
        slot.det.feed_batch(other, other_fed, len(other))
    session.close()
    return slot.det


def stepped(make, events):
    det = make()
    for ev in events:
        det.step(ev)
    return det


def seeded_config(seed):
    return RandomTraceConfig(
        num_threads=2 + seed % 5,
        num_locks=2 + (seed * 7) % 5,
        num_vars=1 + seed % 4,
        num_events=60 + (seed * 13) % 100,
        acquire_prob=0.3 + 0.05 * (seed % 3),
        release_prob=0.25,
        write_prob=0.3 + 0.1 * (seed % 4),
        max_nesting=1 + seed % 3,
        fork_join=seed % 3 == 0,
        release_any_prob=0.4 if seed % 4 == 1 else 0.0,
        seed=seed,
    )


def check_seed(seed):
    """Assert every detector's mixed feed matches its stepped run;
    returns how many size-2 reports and races the stepped runs made."""
    comp = generate_random_trace(seeded_config(seed)).compiled
    events = [comp.event(i) for i in range(len(comp))]
    rng = random.Random(seed)
    sources = rng.choices("sdc", weights=(2, 1, 1), k=len(events))
    batch = (1, 3, 16)[seed % 3]
    made = 0
    for name, make, sig, checkpoints in DETECTORS:
        cut = rng.randrange(len(events)) if checkpoints else None
        want = stepped(make, events)
        got = mixed(make, events, sources, batch, cut)
        assert sig(got) == sig(want), (seed, name, batch, cut)
        if name in ("SPDOnline", "FastTrack"):
            made += len(want.reports if name == "SPDOnline"
                        else want.result.races)
    return made


class TestSeeded:
    @pytest.mark.parametrize("chunk", range(5))
    def test_mixed_sources(self, chunk):
        made = sum(check_seed(seed)
                   for seed in range(chunk * 50, chunk * 50 + 50))
        assert made > 0, "no seed of this chunk reported anything"

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(250, 250 + iters):
            check_seed(seed)


def plan(*items):
    """Events from ``(source, thread, op, target)`` tuples."""
    events = [Event(i, t, op, target) for i, (_, t, op, target)
              in enumerate(items)]
    return events, [src for src, *_ in items]


class TestHandCases:
    def test_online_reports_only_what_threads_did(self):
        """``t2`` nests ``l`` in ``m`` by ``step()``; the session then
        names a thread ``x`` and a lock ``y`` it never saw ``t2`` or
        ``m`` under.  ``t3`` nests ``y`` in ``l``: there is no
        deadlock, yet reading the session's ids as the detector's own
        made SPDOnline report ``('t2', 'l', 't3', 'm')``."""
        events, sources = plan(
            ("s", "t1", "acq", "l"), ("s", "t1", "rel", "l"),
            ("d", "t2", "acq", "m"), ("d", "t2", "acq", "l"),
            ("d", "t2", "rel", "l"), ("d", "t2", "rel", "m"),
            ("s", "x", "w", "v"),
            ("s", "t3", "acq", "l"), ("s", "t3", "acq", "y"),
            ("s", "t3", "rel", "y"), ("s", "t3", "rel", "l"),
        )
        for make in (SPDOnline, lambda: SPDOnlineK(max_size=3)):
            det = mixed(make, events, sources)
            assert det.reports == []
            assert online_sig(det) == online_sig(stepped(make, events))

    def test_fasttrack_ww_race_on_the_right_variable(self):
        """``t1`` and ``t2`` write ``z`` unordered, one through the
        session and one by ``step()``: a ``ww`` race on ``z`` between
        the third and fourth arrivals, which FastTrack missed (and
        blamed on ``b``) when it read the session's ids as its own."""
        events, sources = plan(
            ("s", "t1", "w", "a"),
            ("d", "t2", "w", "b"),
            ("s", "t1", "w", "z"),
            ("d", "t2", "w", "z"),
        )
        det = mixed(FastTrack, events, sources)
        assert fasttrack_sig(det)[0] == [(2, 3, "z", "ww")]
        assert fasttrack_sig(det) == fasttrack_sig(stepped(FastTrack, events))


class TestOnePath:
    def test_trace_runs_build_no_events(self):
        """``run()`` on a ``Trace`` feeds its columns: no ``Event`` is
        materialized."""
        path = os.path.join(CORPUS, "sigma2.std")
        trace = load_trace(path)
        assert spd_online(trace).num_reports == 1
        assert fasttrack_races(trace).num_races == 2
        assert trace._events is None

    def test_one_source_needs_no_maps(self):
        """A detector fed one session, or restored and fed a trace whose
        names come in the same order, reads the source's ids as they
        are; a detector stepped with other names first translates."""
        comp = load_trace(os.path.join(CORPUS, "sigma2.std")).compiled
        session = StreamSession("s", batch_size=2)
        dets = [SPDOnline(), FastTrack()]
        for det in dets:
            session.attach(det)
        session.feed_compiled(comp)
        session.close()
        assert all(det._maps.identity for det in dets)

        det = SPDOnline()
        det.feed_batch(comp, 0, len(comp) // 2)
        det = SPDOnline.restore(det.checkpoint())
        assert det._maps is None
        det.feed_batch(comp, len(comp) // 2, len(comp))
        assert det._maps.identity
        assert det.reports == spd_online(comp).reports

        det = SPDOnline()
        det.step(Event(0, "other", "w", "v"))
        det.feed_batch(comp, 0, len(comp))
        assert not det._maps.identity

    def test_restore_rejects_blobs_with_name_dicts(self):
        """A blob that keeps its names in per-kind dicts (the layout
        before detectors owned a ``CompiledTrace`` of names) is refused
        as stale."""
        comp = load_trace(os.path.join(CORPUS, "sigma2.std")).compiled
        det = SPDOnline()
        det.run(comp)
        kind, state = pickle.loads(det.checkpoint())
        names = state.pop("names")
        state.update(_tid=dict(names.threads_tab._ids),
                     _thread_names=list(names.threads_tab.names),
                     _lid=dict(names.locks_tab._ids),
                     _lock_names=list(names.locks_tab.names),
                     _vid=dict(names.vars_tab._ids))
        with pytest.raises(ValueError, match="stale SPDOnline "):
            SPDOnline.restore(pickle.dumps((kind, state)))
