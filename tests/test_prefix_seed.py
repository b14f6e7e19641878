"""SPDOnline's per-thread check against per-context closures.

SPDOnline keeps closure state per thread: at a guarded acquire ``new``
it swallows each queued opposing entry inside ``new``'s predecessor
clock ``c_pred`` or else inside ``P[new]`` (the thread's prefix
closure, brought there at most once per acquire) with one epoch test,
and decides the rest with one joint fix-point per (acquire, context),
a transient clone of the prefix closure (``SPDOnline._check_deadlock``).
The
module docstring of :mod:`repro.core.spd_online` argues that every
report is then exactly the one Algorithm 4's persistent per-context
closures make.  The oracles :class:`PerContextOnline` and
:class:`PerContextOnlineK` keep those closures: one :class:`SPClosure`
per context, started empty, seeded at every check and never dropped,
walked as Algorithm 4's ``checkDeadlock`` walks them (an empty start
equals a start from the thread's prefix closure, which was SPDOnline's
per-context form before it kept closures per thread).  This suite
compares reports (pairs, contexts, locations) and ``stats()`` on

- the corpus,
- 400 seeded random traces, with fork/join on some seeds and short wide
  shapes up to 16 threads x 24 locks,

each fed three ways: event by event through ``step()``, through
``run()`` over the compiled trace, and in ``feed_batch`` slices with a
``checkpoint()``/``restore()`` round trip at random cuts.  SPDOnlineK
(K = 3), whose size-2 contexts are SPDOnline's, is compared the same
way, its K reports included.

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_prefix_seed.py``.
"""

import collections
import os
import random

import pytest

from repro.core.closure import SPClosure
from repro.core.spd_online import OnlineReport, SPDOnline
from repro.core.spd_online_k import SPDOnlineK
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.builder import TraceBuilder
from repro.trace.parser import load_trace
from repro.trace.trace import as_trace

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_TRACES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".std"))


class PerContextOnline(SPDOnline):
    """The oracle: a persistent closure per context, as in Algorithm 4.

    Each context's closure starts empty and takes the new acquire's
    predecessor clock, then each examined entry's, as seeds; it is
    never dropped.  No prefix closure is computed or read.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.context_closures = {}

    def _check_deadlock(self, queue, cursor, prefix, ctx, new):
        closure = self.context_closures.get(ctx)
        if closure is None:
            closure = self.context_closures[ctx] = SPClosure(self.histories)
        closure.join_seed(new.pred_ts)
        while cursor < len(queue):
            old = queue[cursor]
            self._deadlock_checks += 1
            t_clock = closure.compute(old.pred_ts)
            if old.acq_val > t_clock.component(old.slot):
                threads = self.names.threads_tab.names
                locks = self.names.locks_tab.names
                u, l2, t, lock = ctx
                self.reports.append(OnlineReport(
                    first_event=old.acq_idx, second_event=new.acq_idx,
                    context=(threads[u], locks[l2], threads[t], locks[lock]),
                    locations=tuple(
                        rec.loc if rec.loc is not None else f"@{rec.acq_idx}"
                        for rec in (old, new))))
                break
            cursor += 1
        self._ctx_cursor[ctx] = cursor
        return prefix


class PerContextOnlineK(PerContextOnline, SPDOnlineK):
    """SPDOnlineK whose size-2 contexts keep per-context closures."""


class Counted:
    """A prefix or joint closure that counts the checks read from it:
    ``P[new]`` tests through ``clock``, joint ones through
    ``compute``."""

    def __init__(self, closure, tally, key):
        self.closure = closure
        self.tally = tally
        self.key = key

    @property
    def clock(self):
        self.tally[self.key] += 1
        return self.closure.clock

    def compute(self, seed):
        self.tally[self.key] += 1
        return self.closure.compute(seed)


class TalliedOnline(SPDOnline):
    """SPDOnline that tallies the checks that reached ``P[new]``
    (``"prefix"``) and those that reached a joint fix-point
    (``"joint"``); every other check was decided by ``c_pred``."""

    def __init__(self):
        super().__init__()
        self.tally = collections.Counter()

    def _prefix_closure(self, tid, c_pred):
        return Counted(super()._prefix_closure(tid, c_pred), self.tally,
                       "prefix")

    def _joint_closure(self, prefix):
        return Counted(super()._joint_closure(prefix.closure), self.tally,
                       "joint")


#: (detector, its per-context oracle), each built with no arguments
DETECTORS = (
    (SPDOnline, PerContextOnline),
    (lambda: SPDOnlineK(max_size=3), lambda: PerContextOnlineK(max_size=3)),
)


def sig(det):
    """Everything a run reports: size-2 reports, stats, K reports."""
    out = [[(r.first_event, r.second_event, r.context, r.locations)
            for r in det.reports], det.stats()]
    if isinstance(det, SPDOnlineK):
        out.append([(r.events, r.locations, r.signatures)
                    for r in det.k_reports])
    return out


def stepped(make, comp):
    det = make()
    for i in range(len(comp)):
        det.step(comp.event(i))
    return det


def run(make, comp):
    det = make()
    det.run(comp)
    return det


def resumed(make, comp, rng):
    """Fed in ``feed_batch`` slices, checkpointed and restored at two
    random cuts."""
    n = len(comp)
    cuts = sorted(rng.sample(range(1, n), 2)) if n > 2 else []
    det = make()
    lo = 0
    for hi in cuts + [n]:
        det.feed_batch(comp, lo, hi)
        if hi < n:
            det = type(det).restore(det.checkpoint())
        lo = hi
    return det


def compare(trace, seed=0):
    """Assert that each feeding of each detector matches its oracle;
    return the SPDOnline run's (reports, checks decided by ``c_pred``,
    by ``P[new]``, by a joint fix-point)."""
    comp = as_trace(trace).compiled
    rng = random.Random(seed)
    for make, oracle in DETECTORS:
        want = sig(run(oracle, comp))
        for feed in ("run", "step", "resume"):
            if feed == "run":
                det = run(make, comp)
            elif feed == "step":
                det = stepped(make, comp)
            else:
                det = resumed(make, comp, rng)
            assert sig(det) == want, (comp.name, seed, type(det).__name__,
                                      feed)
    det = run(TalliedOnline, comp)
    assert sig(det)[0] == sig(run(SPDOnline, comp))[0]
    prefix, joint = det.tally["prefix"], det.tally["joint"]
    return (len(det.reports), det.stats()["deadlock_checks"] - prefix,
            prefix - joint, joint)


#: (threads, locks) of the seeded traces, narrow to wide
SHAPES = ((2, 2), (3, 3), (4, 5), (6, 4), (8, 12), (16, 8), (16, 24))


def seeded_config(seed):
    threads, locks = SHAPES[seed % len(SHAPES)]
    return RandomTraceConfig(
        num_threads=threads,
        num_locks=locks,
        num_vars=1 + seed % 8,
        num_events=150 + (seed // len(SHAPES)) % 4 * 100,
        max_nesting=2 + seed % 3,
        acquire_prob=0.3 + (seed % 3) * 0.05,
        release_prob=0.3,
        write_prob=0.3 + (seed % 4) * 0.1,
        fork_join=seed % 3 == 0,
        release_any_prob=0.4 if seed % 4 == 1 else 0.0,
        seed=seed,
    )


def check_seed(seed):
    return compare(generate_random_trace(seeded_config(seed)), seed)


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_online(self, name):
        compare(load_trace(os.path.join(CORPUS, name)))


class TestHandCases:
    def test_guarded_acquire_right_after_a_fork(self):
        """``u`` forks ``t`` and then acquires ``n`` holding ``m``, so
        the ``c_pred`` of ``t``'s acquire of ``m`` holding ``n`` stops
        one event short of ``u``'s queued acquire: the entry lies just
        outside ``c_pred`` and ``P[new]``, and the pair is a deadlock."""
        trace = (TraceBuilder()
                 .acq("u", "m").fork("u", "t").acq("u", "n")
                 .rel("u", "n").rel("u", "m")
                 .acq("t", "n").acq("t", "m").rel("t", "m").rel("t", "n")
                 .build())
        assert compare(trace) == (1, 0, 0, 1)


class TestSeeded:
    @pytest.mark.parametrize("chunk", range(8))
    def test_seeded_traces(self, chunk):
        for seed in range(chunk * 50, chunk * 50 + 50):
            check_seed(seed)

    def test_not_vacuous(self):
        """Over the first 28 seeds (each shape four times) reports exist,
        and ``c_pred``, ``P[new]`` and the joint fix-points each decided
        checks."""
        totals = [0, 0, 0, 0]
        for seed in range(28):
            totals = [a + b for a, b in zip(totals, check_seed(seed))]
        reports, by_cpred, by_prefix, by_joint = totals
        assert reports > 50
        assert by_cpred > 0 and by_prefix > 0 and by_joint > 0

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(400, 400 + iters):
            check_seed(seed)
