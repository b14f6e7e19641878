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
(K = 3 and 4), whose size-2 contexts are SPDOnline's, is compared the
same way, its K reports included.  Its K-contexts (size >= 3) keep no
closure either: a check moves the pinned coordinate's cursor to the new
acquire and walks on a transient clone of ``P[new]``
(:mod:`repro.core.spd_online_k` argues that this is exact), while
:class:`PerContextOnlineK` walks each on a persistent closure as
before.  :class:`TestSeededK` adds longer, lock-denser traces fed
through ``run()`` and checkpoint cuts, where the pinned coordinate's
cursor most often lags behind the new acquire.

The long fuzz loops are opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_prefix_seed.py``.
"""

import collections
import functools
import os
import random

import pytest

from repro.core.closure import SPClosure
from repro.core.spd_online import OnlineReport, SPDOnline
from repro.core.spd_online_k import OnlineKReport, SPDOnlineK
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
    """SPDOnlineK whose contexts of every size keep a persistent
    closure, started empty.  A K-context's closure takes the pinned
    acquire's predecessor clock, then every candidate's at each compute
    of the walk, as seeds; the pinned coordinate's cursor stays where
    it is, since the persistent closure needs no pin rule."""

    def _check_context(self, ctx, pin, new, prefix):
        closure = self.context_closures.get(ctx.signatures)
        if closure is None:
            closure = self.context_closures[ctx.signatures] = \
                SPClosure(self.histories)
        k = len(ctx.signatures)
        closure.join_seed(new.pred_ts)
        while True:
            candidate = [None] * k
            candidate[pin] = new
            for j in range(k):
                if j == pin:
                    continue
                queue = self._sig_entries[ctx.signatures[j]]
                if ctx.cursors[j] >= len(queue):
                    return prefix
                candidate[j] = queue[ctx.cursors[j]]
            seed = candidate[0].pred_ts.copy()
            for entry in candidate[1:]:
                seed.join_with(entry.pred_ts)
            t_clock = closure.compute(seed)
            swallowed = False
            for j in range(k):
                if j == pin:
                    continue
                queue = self._sig_entries[ctx.signatures[j]]
                i = ctx.cursors[j]
                while i < len(queue) and (
                        queue[i].acq_val <= t_clock.component(queue[i].slot)):
                    i += 1
                if i != ctx.cursors[j]:
                    swallowed = True
                ctx.cursors[j] = i
            if not swallowed:
                if all(e.acq_val > t_clock.component(e.slot)
                       for e in candidate):
                    ctx.reported = True
                    self.k_reports.append(OnlineKReport(
                        events=tuple(e.acq_idx for e in candidate),
                        locations=tuple(
                            e.loc if e.loc is not None else f"@{e.acq_idx}"
                            for e in candidate),
                        signatures=tuple(self._named_signature(s)
                                         for s in ctx.signatures)))
                return prefix


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
    (functools.partial(SPDOnlineK, max_size=3),
     functools.partial(PerContextOnlineK, max_size=3)),
    (functools.partial(SPDOnlineK, max_size=4),
     functools.partial(PerContextOnlineK, max_size=4)),
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
    by ``P[new]``, by a joint fix-point) and the K reports at K = 3
    and 4."""
    comp = as_trace(trace).compiled
    rng = random.Random(seed)
    k_reports = 0
    for make, oracle in DETECTORS:
        want = sig(run(oracle, comp))
        if len(want) > 2:
            k_reports += len(want[2])
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
            prefix - joint, joint, k_reports)


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


def k_config(seed):
    """Longer, lock-denser traces for the K-contexts: 600-1,400 events,
    3-6 threads x 3-8 locks, nesting 2-4, fork/join on every third
    seed."""
    rng = random.Random(seed)
    return RandomTraceConfig(
        num_threads=rng.randint(3, 6),
        num_locks=rng.randint(3, 8),
        num_vars=rng.randint(1, 8),
        num_events=rng.randrange(600, 1401, 100),
        max_nesting=rng.randint(2, 4),
        acquire_prob=rng.choice((0.3, 0.35, 0.4)),
        release_prob=0.3,
        write_prob=rng.choice((0.3, 0.4, 0.5)),
        fork_join=seed % 3 == 0,
        seed=seed,
    )


def check_k_seed(seed):
    """Assert that SPDOnlineK at K = 3 and 4, fed by ``run()`` and with
    checkpoint/restore cuts, matches its oracle on ``k_config(seed)``;
    return the K reports."""
    comp = as_trace(generate_random_trace(k_config(seed))).compiled
    rng = random.Random(seed)
    k_reports = 0
    for size in (3, 4):
        want = sig(run(functools.partial(PerContextOnlineK, max_size=size),
                       comp))
        make = functools.partial(SPDOnlineK, max_size=size)
        for feed, det in (("run", run(make, comp)),
                          ("resume", resumed(make, comp, rng))):
            assert sig(det) == want, (comp.name, seed, size, feed)
        k_reports += len(want[2])
    return k_reports


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
        assert compare(trace) == (1, 0, 0, 1, 0)


class TestSeeded:
    @pytest.mark.parametrize("chunk", range(8))
    def test_seeded_traces(self, chunk):
        for seed in range(chunk * 50, chunk * 50 + 50):
            check_seed(seed)

    def test_not_vacuous(self):
        """Over the first 28 seeds (each shape four times) reports and K
        reports exist, and ``c_pred``, ``P[new]`` and the joint
        fix-points each decided checks."""
        totals = [0, 0, 0, 0, 0]
        for seed in range(28):
            totals = [a + b for a, b in zip(totals, check_seed(seed))]
        reports, by_cpred, by_prefix, by_joint, k_reports = totals
        assert reports > 50 and k_reports > 0
        assert by_cpred > 0 and by_prefix > 0 and by_joint > 0

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(400, 400 + iters):
            check_seed(seed)


class TestSeededK:
    """The K-contexts on :func:`k_config` traces, where a check pins an
    acquire whose queue holds earlier entries past the cursor far more
    often than on the short seeded traces."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_seeded_traces(self, chunk):
        """Every chunk of eight seeds makes K reports."""
        seeds = range(chunk * 8, chunk * 8 + 8)
        assert sum(check_k_seed(seed) for seed in seeds) > 0

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(32, 32 + iters):
            check_k_seed(seed)
