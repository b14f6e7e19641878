"""Round-2 kernel differential suite (`kernels/alg_np.py`, incremental
SCC) and the detectors that run on them.

Same contract as :mod:`tests.test_kernels`: the pure-python paths are
the canonical semantics and every numpy kernel must be *bit-identical*
to them — same reports, same counts, same checkpoint round-trips, same
pinned cycle order.  SPDOnlineK, Goodlock, UNDEAD and the naive checker
have no kernels of their own, but under numpy they run on the index
and ALG kernels, so their outputs are compared across backends too.
Proven corpus-wide, over 200+ seeded random traces, and with numpy
mocked away.

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_kernels_round2.py``.
"""

import os
import random

import pytest

import repro.kernels as kernels
from repro.baselines.goodlock import goodlock
from repro.baselines.naive import naive_sp_detector
from repro.baselines.undead import undead
from repro.core.spd_online_k import SPDOnlineK
from repro.graph.digraph import DiGraph
from repro.graph.johnson import _cycles_from, simple_cycles
from repro.graph.scc import strongly_connected_components
from repro.hb.fasttrack import FastTrack
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.parser import load_trace
from repro.trace.trace import as_trace

from tests.test_kernels import (
    both_backends,
    needs_numpy,
    no_numpy,  # noqa: F401  (fixture)
)

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_TRACES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".std"))


# -- signatures: everything observable about a run ---------------------------


def k_sig(trace, max_size):
    det = SPDOnlineK(max_size=max_size)
    det.run(as_trace(trace).compiled)
    return (
        [(r.events, r.locations, r.signatures) for r in det.k_reports],
        [(r.first_event, r.second_event, r.context, r.locations)
         for r in det.reports],
        det.stats(),
    )


def goodlock_sig(trace, **kw):
    res = goodlock(trace, **kw)
    return ([w.events for w in res.warnings], res.num_cycles)


def naive_sig(trace, **kw):
    res = naive_sp_detector(trace, **kw)
    return ([(r.pattern.events, r.locations) for r in res.reports],
            res.patterns_checked)


def undead_sig(trace, **kw):
    res = undead(trace, **kw)
    return (
        [tuple((a.thread, a.lock, tuple(sorted(a.held)), a.events)
               for a in w.acquires) for w in res.warnings],
        res.num_dependencies,
    )


def k_config(seed):
    """A deterministic, varied generator config for one fuzz iteration."""
    return RandomTraceConfig(
        num_threads=4 + seed % 5,
        num_locks=3 + seed % 4,
        num_events=400 + (seed % 5) * 50,
        max_nesting=2 + seed % 3,
        acquire_prob=0.25 + (seed % 3) * 0.05,
        release_prob=0.3,
        seed=seed,
    )


def check_seed(seed):
    trace = as_trace(generate_random_trace(k_config(seed)))
    max_size = 3 + seed % 2
    checks = [
        (k_sig, (trace, max_size), {}),
        (goodlock_sig, (trace,), {"max_cycles": 300}),
        (undead_sig, (trace,), {"max_size": 3, "max_cycles": 300}),
        (naive_sig, (trace,),
         {"max_size": 3, "max_patterns": 60,
          "first_hit_per_abstract": seed % 2 == 0}),
    ]
    for fn, args, kw in checks:
        ref, got = both_backends(fn, *args, **kw)
        assert ref == got, (
            f"seed {seed}: {fn.__name__} {kw} differs between backends")
    if seed % 10 == 0:
        check_k_checkpoint(trace, max_size, seed)


def check_k_checkpoint(trace, max_size, seed):
    """Save under either backend, restore under either: all four
    combinations equal the uninterrupted python run."""
    comp = trace.compiled
    n = len(comp)
    cut = n // 2
    with kernels.use("python"):
        ref = k_sig(trace, max_size)
    for b_save in ("python", "numpy"):
        with kernels.use(b_save):
            det = SPDOnlineK(max_size=max_size)
            det.feed_batch(comp, 0, cut)
            blob = det.checkpoint()
        for b_load in ("python", "numpy"):
            with kernels.use(b_load):
                out = SPDOnlineK.restore(blob)
                out.feed_batch(comp, cut, n)
                got = (
                    [(r.events, r.locations, r.signatures)
                     for r in out.k_reports],
                    [(r.first_event, r.second_event, r.context, r.locations)
                     for r in out.reports],
                    out.stats(),
                )
            assert got == ref, (
                f"seed {seed}: save={b_save} load={b_load} diverges")


# -- corpus-wide bit-identity ------------------------------------------------


@needs_numpy
class TestCorpusDifferential:
    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_spd_online_k(self, name):
        trace = load_trace(os.path.join(CORPUS, name))
        for max_size in (3, 4):
            ref, got = both_backends(k_sig, trace, max_size)
            assert ref == got, f"{name} max_size={max_size}"

    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_baselines(self, name):
        trace = load_trace(os.path.join(CORPUS, name))
        for fn, kw in (
            (goodlock_sig, {"max_cycles": 500}),
            (undead_sig, {"max_size": 3}),
            (naive_sig, {"max_size": 3, "max_patterns": 200}),
        ):
            ref, got = both_backends(fn, trace, **kw)
            assert ref == got, f"{name}: {fn.__name__}"


# -- seeded random-trace differential (200 base cases) -----------------------


@needs_numpy
class TestRandomDifferential:
    @pytest.mark.parametrize("chunk", range(20))
    def test_seeded_configs(self, chunk):
        for seed in range(chunk * 10, chunk * 10 + 10):
            check_seed(seed)

    @pytest.mark.fuzz
    def test_fuzz_long_loop(self):
        """Nightly-style loop: REPRO_FUZZ_ITERS=N pytest -m fuzz ..."""
        iters = int(os.environ.get("REPRO_FUZZ_ITERS", "0"))
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to run the long fuzz loop")
        for seed in range(200, 200 + iters):
            check_seed(seed)


# -- incremental SCC vs the per-start recomputation --------------------------


def reference_simple_cycles(graph, max_length=None, max_cycles=None):
    """The pre-round-2 Johnson sweep: full SCC recomputation after
    every start-node deletion.  Defines the pinned canonical order the
    incremental path must reproduce exactly."""
    adjacency = graph.adjacency()
    succ_sorted = graph.sorted_adjacency()
    n = graph.num_nodes
    emitted = 0
    if max_cycles is not None and max_cycles <= 0:
        return
    remaining = set(range(n))
    while remaining:
        sccs = [c for c in strongly_connected_components(adjacency, remaining)
                if c]
        candidates = []
        for comp in sccs:
            if len(comp) > 1:
                candidates.append(comp)
            elif comp[0] in adjacency[comp[0]]:
                candidates.append(comp)
        if not candidates:
            break
        comp = min(candidates, key=min)
        start = min(comp)
        for cycle in _cycles_from(start, succ_sorted, set(comp), max_length):
            yield cycle
            emitted += 1
            if max_cycles is not None and emitted >= max_cycles:
                return
        remaining.discard(start)


def random_digraph(rng, n, p):
    g = DiGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


class TestIncrementalSCC:
    def test_matches_reference_order(self):
        """Exact sequence equality (not just set equality) against the
        per-start recomputation, across sparse and dense graphs."""
        rng = random.Random(29)
        shapes = [(60, 0.03), (40, 0.05), (12, 0.25), (8, 0.4), (25, 0.08)]
        for trial in range(30):
            n, p = shapes[trial % len(shapes)]
            g = random_digraph(rng, n, p)
            assert (list(simple_cycles(g, max_length=6, max_cycles=3000))
                    == list(reference_simple_cycles(g, 6, 3000))), \
                f"trial {trial}"

    def test_unbounded_and_caps(self):
        rng = random.Random(7)
        for trial in range(15):
            g = random_digraph(rng, 14, 0.18)
            ref = list(reference_simple_cycles(g))
            assert list(simple_cycles(g)) == ref, f"trial {trial}"
            for cap in (0, 1, 3, len(ref)):
                assert (list(simple_cycles(g, max_cycles=cap))
                        == ref[:cap]), f"trial {trial} cap={cap}"
            assert (list(simple_cycles(g, max_length=3))
                    == list(reference_simple_cycles(g, max_length=3)))

    def test_disconnected_components(self):
        """Deleting a start never disturbs sibling SCCs: two disjoint
        cycle clusters enumerate exactly as the reference does."""
        g = DiGraph()
        for i in range(8):
            g.add_node(i)
        for a, b in ((0, 1), (1, 2), (2, 0), (4, 5), (5, 4),
                     (6, 7), (7, 6), (2, 4)):
            g.add_edge(a, b)
        assert list(simple_cycles(g)) == list(reference_simple_cycles(g))


# -- dispatch accounting ------------------------------------------------------


#: Dispatch areas whose numpy kernels were removed: no run records them.
REMOVED_AREAS = ("kernels.fasttrack_runs.", "kernels.spdk.",
                 "kernels.goodlock.", "kernels.naive.",
                 "kernels.online_closure.", "kernels.online_microbatch.",
                 "kernels.offline_check.")


def assert_no_removed_areas(counters):
    stale = sorted(k for k in counters if k.startswith(REMOVED_AREAS))
    assert not stale, stale


@needs_numpy
class TestDispatchAccounting:
    """Bit-identity alone could pass with kernels that never engage;
    pin that the round-2 numpy paths actually run."""

    def test_round2_areas_dispatch(self):
        cfg = RandomTraceConfig(num_threads=16, num_locks=8, num_events=1500,
                                max_nesting=3, acquire_prob=0.3,
                                release_prob=0.3, seed=11)
        trace = as_trace(generate_random_trace(cfg))
        before = kernels.counters()
        with kernels.use("numpy"):
            det = SPDOnlineK(max_size=4)
            det.run(trace.compiled)
            undead(trace, max_size=3, max_cycles=300)
            goodlock(trace, max_cycles=300)
            naive_sp_detector(trace, max_size=3, max_patterns=60)
            FastTrack().run(trace.compiled)
        after = kernels.counters()

        def grew(key):
            return after.get(key, 0) > before.get(key, 0)

        assert grew("kernels.alg_edges.numpy")
        assert grew("kernels.johnson_scc.incremental")
        assert_no_removed_areas(after)

    def test_python_backend_counts_python(self):
        trace = as_trace(generate_random_trace(k_config(5)))
        before = kernels.counters()
        with kernels.use("python"):
            det = SPDOnlineK(max_size=3)
            det.run(trace.compiled)
            undead(trace, max_size=3, max_cycles=200)
        after = kernels.counters()

        def grew(key):
            return after.get(key, 0) > before.get(key, 0)

        assert grew("kernels.alg_edges.python")
        assert grew("kernels.johnson_scc.incremental")
        assert not grew("kernels.alg_edges.numpy")
        assert_no_removed_areas(after)


# -- forced fallback: numpy absent -------------------------------------------


class TestNumpyAbsentRound2:
    """The round-2 integration sites must run cleanly with numpy
    mocked away as uninstalled (auto resolves to python)."""

    def test_round2_paths_run_without_numpy(self, no_numpy):
        trace = load_trace(os.path.join(CORPUS, "sigma2.std"))
        with kernels.use("auto"):
            assert kernels.backend() == "python"
            k_sig(trace, 3)
            goodlock_sig(trace)
            undead_sig(trace, max_size=3)
            naive_sig(trace, max_size=3, max_patterns=50)
