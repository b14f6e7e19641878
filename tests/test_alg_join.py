"""ALG's 2-cycles by a direct join against Johnson's algorithm.

For ``max_size <= 2`` :func:`repro.core.alg.abstract_deadlock_patterns`
skips the abstract lock graph and joins abstract acquires on (lock,
held lock).  The oracle here is the graph path it replaced:
``simple_cycles(_build_alg_edges(...), max_length=2)`` filtered by
:func:`cycle_is_abstract_pattern`.  Both must give the same cycle
count and the same patterns in the same order, whole and cut at any
``max_cycles``, on the corpus and on seeded random traces.
"""

import os

import pytest

from repro.core.alg import (
    _build_alg_edges,
    _two_cycles,
    abstract_deadlock_patterns,
    cycle_is_abstract_pattern,
)
from repro.core.patterns import AbstractDeadlockPattern
from repro.graph.johnson import simple_cycles
from repro.locks.abstract import collect_abstract_acquire_ids
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.parser import load_trace
from repro.trace.trace import as_trace

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_TRACES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".std"))


def graph_phase1(trace, max_cycles=None):
    """Phase 1 at ``max_size=2`` through ALG and Johnson's algorithm."""
    trace = as_trace(trace)
    acquires = collect_abstract_acquire_ids(trace)
    cycles = list(simple_cycles(_build_alg_edges(acquires), max_length=2,
                                max_cycles=max_cycles))
    patterns = [
        AbstractDeadlockPattern(tuple(
            acquires[i].to_named(trace.compiled) for i in c)).canonical()
        for c in cycles
        if cycle_is_abstract_pattern([acquires[i] for i in c])]
    return len(cycles), patterns


def sig(result):
    """Cycle count and patterns, member events included (``==`` on an
    abstract acquire ignores its events)."""
    num_cycles, patterns = result
    return num_cycles, [[(a.signature, a.events) for a in p.acquires]
                        for p in patterns]


def check(trace):
    """Whole, cut at 0, 1, mid-list and past the end, and at size 1."""
    trace = as_trace(trace)
    whole = graph_phase1(trace)
    assert sig(abstract_deadlock_patterns(trace, max_size=2)) == sig(whole)
    n = whole[0]
    for cap in sorted({0, 1, n // 2, n, n + 1}):
        got = abstract_deadlock_patterns(trace, max_size=2, max_cycles=cap)
        assert sig(got) == sig(graph_phase1(trace, max_cycles=cap)), cap
    assert abstract_deadlock_patterns(trace, max_size=1) == (0, [])
    acquires = collect_abstract_acquire_ids(trace)
    assert (list(_two_cycles(acquires))
            == [tuple(c) for c in simple_cycles(
                _build_alg_edges(acquires), max_length=2)])
    return n


@pytest.mark.parametrize("name", CORPUS_TRACES)
def test_corpus(name):
    check(load_trace(os.path.join(CORPUS, name)))


@pytest.mark.parametrize("chunk", range(5))
def test_seeded_random_traces(chunk):
    found = 0
    for seed in range(chunk * 20, chunk * 20 + 20):
        found += check(generate_random_trace(RandomTraceConfig(
            num_threads=2 + seed % 7, num_locks=2 + seed % 6,
            num_vars=4, num_events=300 + (seed % 5) * 150,
            max_nesting=1 + seed % 4, acquire_prob=0.25 + (seed % 3) * 0.1,
            release_prob=0.3, release_any_prob=0.4 if seed % 3 == 0 else 0.0,
            fork_join=seed % 2 == 0, seed=seed)))
    assert found, "no 2-cycles: the equality is vacuous"


def test_dense_trace_every_cut():
    """A lock-dense trace with hundreds of 2-cycles, cut everywhere."""
    trace = as_trace(generate_random_trace(RandomTraceConfig(
        num_threads=6, num_locks=8, num_vars=8, num_events=1500,
        acquire_prob=0.35, max_nesting=3, seed=2)))
    n = check(trace)
    assert n >= 100
    whole = sig(graph_phase1(trace))
    for cap in range(0, n + 2, 7):
        got = sig(abstract_deadlock_patterns(trace, max_size=2,
                                             max_cycles=cap))
        assert got == (min(cap, n), whole[1][:cap]), cap
