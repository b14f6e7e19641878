"""SPDOnline's prefix-seeded contexts against fresh context closures.

SPDOnline starts each new context from a clone of its thread's prefix
closure (``SPDOnline._context_closure``); the module docstring of
:mod:`repro.core.spd_online` argues that every report is then exactly
the one a context starting from an empty closure makes.  The oracles
:class:`FreshOnline` and :class:`FreshOnlineK` keep that fresh start,
and this suite compares reports (pairs, contexts, locations) and
``stats()`` on

- the corpus,
- 400 seeded random traces, with fork/join on some seeds and short wide
  shapes up to 16 threads x 24 locks,

each fed three ways: event by event through ``step()``, through
``run()`` over the compiled trace, and in ``feed_batch`` slices with a
``checkpoint()``/``restore()`` round trip at random cuts.  SPDOnlineK
(K = 3), whose size-2 contexts are SPDOnline's, is compared the same
way.

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_prefix_seed.py``.
"""

import os
import random

import pytest

from repro.core.closure import SPClosure
from repro.core.spd_online import SPDOnline
from repro.core.spd_online_k import SPDOnlineK
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.parser import load_trace
from repro.trace.trace import as_trace

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_TRACES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".std"))


class FreshOnline(SPDOnline):
    """The oracle: every new context starts from an empty closure."""

    def _context_closure(self, prefix):
        return SPClosure(self.histories)


class FreshOnlineK(SPDOnlineK):
    """SPDOnlineK whose size-2 contexts start from an empty closure."""

    def _context_closure(self, prefix):
        return SPClosure(self.histories)


#: (detector, its fresh-closure oracle), each built with no arguments
DETECTORS = (
    (SPDOnline, FreshOnline),
    (lambda: SPDOnlineK(max_size=3), lambda: FreshOnlineK(max_size=3)),
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
    return the exact SPDOnline run's (reports, contexts, threads with a
    prefix closure)."""
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
    det = run(SPDOnline, comp)
    return (len(det.reports), det.stats()["contexts"], len(det._prefixes))


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


class TestSeeded:
    @pytest.mark.parametrize("chunk", range(8))
    def test_seeded_traces(self, chunk):
        for seed in range(chunk * 50, chunk * 50 + 50):
            check_seed(seed)

    def test_not_vacuous(self):
        """Over the first 28 seeds (each shape four times) reports exist
        and contexts outnumber the prefix closures they cloned."""
        reports = contexts = prefixes = 0
        for seed in range(28):
            r, c, p = check_seed(seed)
            reports, contexts, prefixes = (reports + r, contexts + c,
                                           prefixes + p)
        assert reports > 50
        assert contexts > 2 * prefixes > 0

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(400, 400 + iters):
            check_seed(seed)
