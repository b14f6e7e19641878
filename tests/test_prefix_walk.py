"""Algorithm 2's prefix-closure walk against its plain pointer walk.

:func:`repro.core.spd_offline.check_pattern_sequences` decides most
instantiations from the prefix closures ``P[e] = SPClosure(pred(e))``
and runs an exact fix-point only for the rest; the module docstring of
:mod:`repro.core.spd_offline` argues that its witnesses are exactly
those of Algorithm 2's plain walk.  That walk lives on here, verbatim,
as :func:`oracle_check_pattern_sequences` (as ``tests/test_parser.py``
keeps the old regex parser), and this suite compares every abstract
pattern's witness tuple on

- the corpus at sizes 2-4,
- 400 seeded random traces with fork/join and non-well-nested locking,

each time both the way ``spd_offline`` runs the walk (acquires named up
front, patterns in order) and the way a caller arriving one pattern at
a time does (``check_abstract_pattern`` in reverse pattern order on an
engine told nothing up front, so thread sweeps restart).

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_prefix_walk.py``.
"""

import os

import pytest

from repro.core.alg import abstract_deadlock_patterns
from repro.core.closure import SPClosureEngine
from repro.core.spd_offline import (
    check_abstract_pattern,
    check_pattern_sequences,
)
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.parser import load_trace
from repro.vc.clock import VectorClock
from repro.vc.timestamps import TRFTimestamps

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_TRACES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".std"))


def oracle_check_pattern_sequences(engine, sequences):
    """Algorithm 2 without prefix closures: one closure per check,
    seeded with the predecessors of each visited instantiation.

    Returns the first sync-preserving instantiation (one event per
    sequence, in sequence order), or ``None``.  The engine is reset on
    entry — cursor state is shared within a single check only.
    """
    engine.reset()
    ts = engine.timestamps
    k = len(sequences)
    pointers = [0] * k
    t_clock = VectorClock.bottom(len(ts.universe))

    leq_clock = ts.leq_clock
    while all(pointers[j] < len(sequences[j]) for j in range(k)):
        current = [sequences[j][pointers[j]] for j in range(k)]
        # Closure of the thread-local predecessors of the instantiation,
        # joined into the monotonically growing timestamp.
        for idx in current:
            t_clock.join_with(ts.pred_timestamp(idx))
        t_clock = engine.compute(t_clock)
        if all(not leq_clock(e, t_clock) for e in current):
            return tuple(current)
        # Corollary 4.5: skip every instantiation whose events are
        # already inside the closure — they can never succeed.
        for j in range(k):
            seq = sequences[j]
            i = pointers[j]
            while i < len(seq) and leq_clock(seq[i], t_clock):
                i += 1
            pointers[j] = i
    return None


def compare(trace, **phase1):
    """Witness tuples of every abstract pattern: oracle against the
    prefix walk run both ways.  Returns the named engine's tallies."""
    _, abstracts = abstract_deadlock_patterns(trace, **phase1)
    sequences = [tuple(a.events for a in ab.acquires) for ab in abstracts]
    ts = TRFTimestamps(trace)
    oracle = SPClosureEngine(trace, ts)
    want = [oracle_check_pattern_sequences(oracle, s) for s in sequences]

    named = SPClosureEngine(trace, ts)
    named.name_acquires(e for s in sequences for seq in s for e in seq)
    got = [check_pattern_sequences(named, s) for s in sequences]
    assert got == want, (trace.name, phase1)

    lone = SPClosureEngine(trace, ts)
    late = [check_abstract_pattern(lone, ab) for ab in reversed(abstracts)]
    late = [None if w is None else w.events for w in reversed(late)]
    assert late == want, (trace.name, phase1, "one pattern at a time")
    for e, p in lone.prefixes.items():
        assert p == named.prefixes[e], (trace.name, e)
    return (sum(w is not None for w in want), named.prefiltered, named.exact,
            len(named.prefixes))


def seeded_config(seed):
    return RandomTraceConfig(
        num_threads=2 + seed % 6,
        num_locks=2 + seed % 5,
        num_vars=1 + seed % 6,
        num_events=120 + (seed % 5) * 80,
        max_nesting=2 + seed % 3,
        acquire_prob=0.3 + (seed % 3) * 0.1,
        release_prob=0.3,
        fork_join=seed % 2 == 0,
        release_any_prob=0.5 if seed % 3 else 0.0,
        seed=seed,
    )


def check_seed(seed):
    trace = generate_random_trace(seeded_config(seed))
    out = compare(trace, max_size=2)
    if seed % 4 == 0:
        out = [a + b for a, b in zip(
            out, compare(trace, max_size=4, max_cycles=300))]
    return out


class TestCorpus:
    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_sizes_2_to_4(self, name):
        trace = load_trace(os.path.join(CORPUS, name))
        for max_size in (2, 3, 4):
            compare(trace, max_size=max_size)

    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_prefix_closures_are_fresh_fix_points(self, name):
        """Every ``P[e]`` a sweep memoized is the closure of ``pred(e)``
        computed on its own."""
        trace = load_trace(os.path.join(CORPUS, name))
        engine = SPClosureEngine(trace)
        _, abstracts = abstract_deadlock_patterns(trace)
        engine.name_acquires(e for ab in abstracts for a in ab.acquires
                             for e in a.events)
        for ab in abstracts:
            check_abstract_pattern(engine, ab)
        ts = engine.timestamps
        for e, p in engine.prefixes.items():
            fresh = SPClosureEngine(trace, ts)
            assert p == fresh.compute(ts.pred_timestamp(e)), (name, e)


class TestSeeded:
    @pytest.mark.parametrize("chunk", range(8))
    def test_seeded_traces(self, chunk):
        for seed in range(chunk * 50, chunk * 50 + 50):
            check_seed(seed)

    def test_not_vacuous(self):
        """Over the first 40 seeds both branches run and reports exist."""
        totals = [0, 0, 0, 0]
        for seed in range(40):
            totals = [a + b for a, b in zip(totals, check_seed(seed))]
        witnesses, prefiltered, exact, prefixes = totals
        assert witnesses > 10 and prefiltered > 10 and exact > 10
        assert prefixes > 10

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(400, 400 + iters):
            check_seed(seed)
