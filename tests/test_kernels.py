"""Kernel-vs-python differential suite (:mod:`repro.kernels`).

The pure-python implementations are the canonical semantics; the numpy
kernels must be *bit-identical* to them — same reports, same stats,
same derived columns, same checkpoint round-trips.  This suite proves
it corpus-wide and over seeded random traces, and separately proves
the python path works with numpy absent or broken (its spec and import
are mocked), so numpy stays an optional extra rather than a hard
dependency.  Fresh interpreters pin when numpy gets imported: at the
first dispatch that takes a numpy path, not when ``auto`` resolves.

SPDOnline has no numpy kernel: its closures are python under every
backend, and ``tests/test_prefix_seed.py`` holds its differential.

The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=2000 pytest -m fuzz
tests/test_kernels.py``.
"""

import os
import random

import pytest

import repro.kernels as kernels
from repro.core.spd_offline import spd_offline
from repro.core.spd_online import SPDOnline
from repro.hb.fasttrack import FastTrack
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.compiled import CompiledTrace, compile_trace
from repro.trace.index import TraceIndex
from repro.trace.parser import load_trace

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_TRACES = sorted(f for f in os.listdir(CORPUS) if f.endswith(".std"))

HAVE_NUMPY = kernels._import_numpy() is not None

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="differential needs the numpy backend")


# -- signatures: everything observable about a run ---------------------------


def offline_sig(trace, **kw):
    res = spd_offline(trace, **kw)
    return (
        res.num_cycles, res.num_abstract_patterns, res.num_concrete_patterns,
        [(r.pattern.events, r.locations, r.bug_id) for r in res.reports],
    )


def online_sig(trace):
    det = SPDOnline()
    det.run(trace)
    return ([(r.first_event, r.second_event, r.context, r.locations)
             for r in det.reports], det.stats())


def fasttrack_sig(trace):
    ft = FastTrack()
    res = ft.run(trace)
    vars_fp = [
        ((vs.write.clock, vs.write.slot), vs.write_event,
         (vs.read.clock, vs.read.slot), vs.read_event,
         tuple(vs.shared_reads._v) if vs.shared_reads is not None else None,
         tuple(sorted(vs.shared_events.items())))
        for vs in ft._vars
    ]
    return (res.races, res.epoch_ops, res.vector_ops,
            [tuple(c._v) for c in ft._clocks], vars_fp)


def index_sig(compiled):
    ix = TraceIndex(compiled)
    return dict(
        rf=list(ix.rf), match=list(ix.match),
        thread_pos=list(ix.thread_pos), thread_pred=list(ix.thread_pred),
        held_id=list(ix.held_id), held_pool=list(ix.held_pool),
        held_offsets=list(ix.held_offsets),
        held_lengths=list(ix.held_lengths),
        thread_order=ix.thread_order, lock_order=ix.lock_order,
        var_order=ix.var_order, events_by_thread=ix.events_by_thread,
        acquires_by_lock=[list(a) for a in ix.acquires_by_lock],
        fork_of=ix.fork_of,
        num_acquires=ix.num_acquires, num_requests=ix.num_requests,
        nesting=ix.lock_nesting_depth, pool_ids=dict(ix._pool_ids),
        open_acq={k: list(v) for k, v in ix._open_acq.items()},
        held_stack=[list(s) for s in ix._held_stack],
        cur_held=list(ix._cur_held), last_write=list(ix._last_write),
    )


def both_backends(fn, *args, **kw):
    with kernels.use("python"):
        ref = fn(*args, **kw)
    with kernels.use("numpy"):
        got = fn(*args, **kw)
    return ref, got


def fuzz_config(seed):
    """A deterministic, varied generator config for one fuzz iteration."""
    return RandomTraceConfig(
        num_threads=1 + seed % 7,
        num_locks=1 + seed % 5,
        num_vars=1 + seed % 9,
        num_events=200 + (seed % 4) * 150,
        max_nesting=1 + seed % 4,
        acquire_prob=0.25 + (seed % 3) * 0.1,
        release_prob=0.3,
        write_prob=0.3 + (seed % 4) * 0.15,
        fork_join=(seed % 2 == 0),
        release_any_prob=0.4 if seed % 3 == 0 else 0.0,
        seed=seed,
    )


def check_seed(seed):
    trace = generate_random_trace(fuzz_config(seed))
    comp = compile_trace(trace)
    # Unbounded cycle enumeration is exponential on dense random ALGs
    # (Theorem 3.1), so most seeds check the size-2 scope and every
    # fifth seed additionally checks all sizes under a cycle cap.
    checks = [
        (index_sig, (comp,), {}),
        (offline_sig, (trace,), {"max_size": 2}),
    ]
    if seed % 5 == 0:
        checks.append((offline_sig, (trace,), {"max_cycles": 2000}))
    for fn, args, kw in checks:
        ref, got = both_backends(fn, *args, **kw)
        assert ref == got, (
            f"seed {seed}: {fn.__name__} {kw} differs between backends")


# -- corpus-wide bit-identity ------------------------------------------------


@needs_numpy
class TestCorpusDifferential:
    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_offline_all_sizes(self, name):
        trace = load_trace(os.path.join(CORPUS, name))
        for max_size in (None, 2, 3):
            ref, got = both_backends(offline_sig, trace, max_size=max_size)
            assert ref == got, f"{name} max_size={max_size}"

    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_fasttrack(self, name):
        comp = compile_trace(load_trace(os.path.join(CORPUS, name)))
        ref, got = both_backends(fasttrack_sig, comp)
        assert ref == got, name

    @pytest.mark.parametrize("name", CORPUS_TRACES)
    def test_index(self, name):
        comp = compile_trace(load_trace(os.path.join(CORPUS, name)))
        ref, got = both_backends(index_sig, comp)
        assert ref == got, name


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


# -- incremental / streaming paths -------------------------------------------


@needs_numpy
class TestIncrementalDifferential:
    def test_index_extend_batch_split(self):
        """Chunked extend() ≡ one-shot, across chunk-size mixes."""
        cfg = RandomTraceConfig(num_threads=6, num_locks=8, num_vars=10,
                                num_events=4000, max_nesting=3,
                                acquire_prob=0.3, release_prob=0.3, seed=3)
        comp = compile_trace(generate_random_trace(cfg))
        with kernels.use("python"):
            ref = index_sig(comp)
        with kernels.use("numpy"):
            grow = CompiledTrace()
            ix = TraceIndex(grow)
            rng = random.Random(0)
            i, n = 0, len(comp)
            while i < n:
                step = rng.choice([1, 7, 100, 513, 2000])
                for j in range(i, min(i + step, n)):
                    ev = comp.event(j)
                    grow.append(ev.thread, ev.op, ev.target)
                ix.extend()
                i += step
            with kernels.use("python"):
                got = index_sig(comp)     # fresh reference object
        assert ref == got


# -- dispatch accounting ------------------------------------------------------


@needs_numpy
class TestDispatchAccounting:
    """Bit-identity alone could pass with kernels that never engage;
    pin that the numpy paths actually run."""

    def test_detectors_dispatch_numpy(self):
        cfg = RandomTraceConfig(num_threads=16, num_locks=8, num_vars=10,
                                num_events=2000, max_nesting=3,
                                acquire_prob=0.35, release_prob=0.3, seed=11)
        trace = generate_random_trace(cfg)
        comp = compile_trace(trace)
        before = kernels.counters()
        with kernels.use("numpy"):
            TraceIndex(comp)
            SPDOnline().run(trace)
            spd_offline(trace, max_size=2)
        after = kernels.counters()

        def grew(key):
            return after.get(key, 0) > before.get(key, 0)

        assert grew("kernels.index_extend.numpy")


# -- offline run: numpy kernels without numpy.ma ---------------------------


@needs_numpy
class TestOfflineSortedUnique:
    """A numpy-backed ``spd_offline`` run never imports ``numpy.ma``
    (``np.unique`` does since numpy 2.3), which would cost every
    offline process its import time and memory."""

    def test_spd_offline_leaves_numpy_ma_unloaded(self):
        """Fresh interpreter: a numpy-backed ``spd_offline`` run that
        checks at least one pattern never imports ``numpy.ma``.  The
        input is above the index and ALG size floors, so both numpy
        kernels run."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.kernels as kernels\n"
            "from repro.core.spd_offline import spd_offline\n"
            "from repro.synth.random_traces import (\n"
            "    RandomTraceConfig, generate_random_trace)\n"
            "kernels.set_backend('numpy')\n"
            "trace = generate_random_trace(RandomTraceConfig(\n"
            "    num_threads=6, num_locks=8, num_vars=8, num_events=600,\n"
            "    acquire_prob=0.35, max_nesting=3, seed=2))\n"
            "res = spd_offline(trace, max_size=2)\n"
            "assert res.num_abstract_patterns >= 1\n"
            "c = kernels.counters()\n"
            "assert c.get('kernels.index_extend.numpy')\n"
            "assert c.get('kernels.alg_edges.numpy')\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# -- forced fallback: numpy absent or broken ---------------------------------


def _is_numpy(name):
    return name == "numpy" or name.startswith("numpy.")


def _block_numpy_import(monkeypatch):
    import builtins

    real_import = builtins.__import__

    def blocked(name, *args, **kw):
        if _is_numpy(name):
            raise ImportError("numpy is mocked away")
        return real_import(name, *args, **kw)

    monkeypatch.setattr(builtins, "__import__", blocked)


def _fake_numpy_spec(monkeypatch, spec):
    """``importlib.util.find_spec`` answers ``spec(name)`` for numpy,
    and resets the kernels' memoized numpy probes (the patches and
    ``monkeypatch`` restore them afterwards)."""
    import importlib.util

    real_find_spec = importlib.util.find_spec

    def find_spec(name, *args, **kw):
        if _is_numpy(name):
            return spec(name)
        return real_find_spec(name, *args, **kw)

    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    monkeypatch.setattr(kernels, "_NUMPY", None)
    monkeypatch.setattr(kernels, "_HAVE_NUMPY", None)


@pytest.fixture()
def no_numpy(monkeypatch):
    """numpy as an uninstalled package looks: no spec, no import."""
    _block_numpy_import(monkeypatch)
    _fake_numpy_spec(monkeypatch, lambda name: None)


@pytest.fixture()
def broken_numpy(monkeypatch):
    """numpy installed but broken: its spec is found, its import raises."""
    from importlib.machinery import ModuleSpec

    _block_numpy_import(monkeypatch)
    _fake_numpy_spec(monkeypatch, lambda name: ModuleSpec(name, None))


class TestNumpyAbsent:
    """REPRO_KERNELS=python and auto-without-numpy must work with numpy
    uninstalled; an explicit numpy request must fail loudly."""

    def test_auto_resolves_to_python(self, no_numpy):
        with kernels.use("auto"):
            assert kernels.backend() == "python"
            assert kernels.numpy_or_none() is None

    def test_explicit_numpy_request_raises(self, no_numpy):
        with kernels.use("numpy"):
            with pytest.raises(kernels.KernelsError):
                kernels.backend()

    def test_detectors_run_without_numpy(self, no_numpy):
        trace = load_trace(os.path.join(CORPUS, "sigma2.std"))
        comp = compile_trace(trace)
        from repro.vc.clock import VectorClock

        with kernels.use("auto"):
            assert offline_sig(trace)[3], "sigma2 has a deadlock"
            online_sig(trace)
            fasttrack_sig(comp)
            index_sig(comp)
            out = VectorClock(4)
            out.join_many([VectorClock([i, 2 * i, 0, 1])
                           for i in range(10)])
        assert out.values() == (9, 18, 0, 1)

    def test_auto_fallback_matches_forced_python(self, no_numpy):
        # auto-without-numpy goes through every dispatch site with
        # numpy_or_none() == None; forced python short-circuits before
        # the probe.  Both must land on the identical canonical result.
        trace = load_trace(os.path.join(CORPUS, "transfer.std"))
        with kernels.use("auto"):
            fell_back = offline_sig(trace)
        with kernels.use("python"):
            assert offline_sig(trace) == fell_back


def wide_trace():
    """16 threads x 8 locks, ~1.5k events: past every numpy size floor
    (index batch, ALG nodes)."""
    return generate_random_trace(RandomTraceConfig(
        num_threads=16, num_locks=8, num_vars=10, num_events=1500,
        max_nesting=3, acquire_prob=0.35, release_prob=0.3, seed=11))


class TestNumpyBroken:
    """numpy installed but failing to import: ``auto`` reads numpy until
    the first dispatch past a size floor tries the import, and python
    from then on; every result equals forced python."""

    def test_backend_turns_python_at_the_first_dispatch(self, broken_numpy):
        comp = compile_trace(wide_trace())
        assert len(comp) >= 256
        before = kernels.counters()
        with kernels.use("auto"):
            assert kernels.backend() == "numpy"
            TraceIndex(comp)
            assert kernels.backend() == "python"
            assert kernels.numpy_or_none() is None
        after = kernels.counters()
        key = "kernels.index_extend."
        assert after.get(key + "python", 0) > before.get(key + "python", 0)
        assert after.get(key + "numpy", 0) == before.get(key + "numpy", 0)

    @pytest.mark.parametrize("sig", ["offline", "online", "fasttrack",
                                     "index"])
    def test_results_match_forced_python(self, broken_numpy, sig):
        trace = wide_trace()
        run = {
            "offline": lambda: offline_sig(trace, max_size=2),
            "online": lambda: online_sig(trace),
            "fasttrack": lambda: fasttrack_sig(compile_trace(trace)),
            "index": lambda: index_sig(compile_trace(trace)),
        }[sig]
        with kernels.use("auto"):
            got = run()
        with kernels.use("python"):
            assert run() == got


# -- lazy import, probed from fresh interpreters -----------------------------


def fresh_json(body, env=None):
    """Run ``body`` in a fresh interpreter (pytest has numpy loaded
    already) and return the JSON its last stdout line prints."""
    import json
    import subprocess
    import sys
    import textwrap

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    full_env = dict(os.environ, PYTHONPATH=src)
    full_env.pop("REPRO_KERNELS", None)
    full_env.update(env or {})
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True, text=True, env=full_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_numpy
class TestLazyNumpyImport:
    """Under ``auto`` numpy is imported at the first dispatch whose size
    floor says the numpy path runs, not when the backend resolves."""

    def test_resolving_auto_leaves_numpy_unloaded(self):
        out = fresh_json("""
            import json, sys
            import repro.kernels as kernels
            print(json.dumps([kernels.backend(), "numpy" in sys.modules]))
        """)
        assert out == ["numpy", False]

    def test_narrow_stream_sessions_never_load_numpy(self):
        """live_sessions' shape: an exact and a bounded StreamSession,
        each with SPDOnline and FastTrack, over a 4 x 5 stream of 1,536
        events; reports equal forced python's."""
        out = fresh_json("""
            import json, sys
            import repro.kernels as kernels
            from repro.core import SPDOnline
            from repro.hb.fasttrack import FastTrack
            from repro.stream import StreamSession
            from repro.synth.random_traces import (
                RandomTraceConfig, generate_random_trace)

            events = list(generate_random_trace(RandomTraceConfig(
                num_threads=4, num_locks=5, num_vars=8, num_events=1536,
                acquire_prob=0.25, max_nesting=2, seed=3)))

            def run():
                sigs = []
                for horizon in (None, 256):
                    session = StreamSession("s", batch_size=32,
                                            max_memory_events=horizon)
                    spd = SPDOnline(max_memory_events=horizon)
                    ft = FastTrack()
                    session.attach(spd)
                    session.attach(ft)
                    for ev in events:
                        session.append(ev.thread, ev.op, ev.target, ev.loc)
                    session.close()
                    sigs.append([
                        [[r.first_event, r.second_event, list(r.locations)]
                         for r in spd.reports],
                        [[r.first_event, r.second_event, r.variable, r.kind]
                         for r in ft.result.races]])
                return sigs

            auto = run()
            backend, loaded = kernels.backend(), "numpy" in sys.modules
            with kernels.use("python"):
                python = run()
            print(json.dumps({"events": len(events), "backend": backend,
                              "numpy_loaded": loaded,
                              "same": auto == python,
                              "found": [[len(d), len(r)] for d, r in auto]}))
        """)
        assert out["events"] >= 1536
        assert out["backend"] == "numpy"
        assert out["numpy_loaded"] is False
        assert out["same"] is True
        # deadlocks and races in both sessions: the equality is not vacuous
        assert all(n > 0 for found in out["found"] for n in found)

    def test_wide_stream_leaves_numpy_unloaded(self):
        """SPDOnline has no numpy kernel at any width: an exact
        SPDOnline and an SPDOnlineK over a 16 x 8 stream of 2,000
        events run without loading numpy, and their reports equal
        forced python's."""
        out = fresh_json("""
            import json, sys
            import repro.kernels as kernels
            from repro.core.spd_online import SPDOnline
            from repro.core.spd_online_k import SPDOnlineK
            from repro.synth.random_traces import (
                RandomTraceConfig, generate_random_trace)

            events = list(generate_random_trace(RandomTraceConfig(
                num_threads=16, num_locks=8, num_vars=10, num_events=2000,
                max_nesting=3, acquire_prob=0.35, release_prob=0.3,
                seed=11)))

            def run():
                online, k = SPDOnline(), SPDOnlineK(max_size=3)
                for ev in events:
                    online.step(ev)
                    k.step(ev)
                return [[[r.first_event, r.second_event]
                         for r in online.reports],
                        [list(r.events) for r in k.k_reports]]

            auto = run()
            backend, loaded = kernels.backend(), "numpy" in sys.modules
            with kernels.use("python"):
                python = run()
            print(json.dumps({"backend": backend, "numpy_loaded": loaded,
                              "same": auto == python,
                              "found": [len(x) for x in auto]}))
        """)
        assert out["backend"] == "numpy"
        assert out["numpy_loaded"] is False
        assert out["same"] is True
        assert all(n > 0 for n in out["found"])

    def test_offline_loads_numpy_for_its_index(self):
        out = fresh_json("""
            import json, sys
            import repro.kernels as kernels
            from repro.core.spd_offline import spd_offline
            from repro.synth.random_traces import (
                RandomTraceConfig, generate_random_trace)
            from repro.trace.compiled import compile_trace

            comp = compile_trace(generate_random_trace(RandomTraceConfig(
                num_threads=6, num_locks=8, num_vars=8, num_events=600,
                acquire_prob=0.35, max_nesting=3, seed=2)))
            before = "numpy" in sys.modules
            spd_offline(comp, max_size=2)
            print(json.dumps({
                "events": len(comp), "before": before,
                "after": "numpy" in sys.modules,
                "index_numpy": kernels.counters().get(
                    "kernels.index_extend.numpy", 0)}))
        """)
        assert out["events"] >= 256
        assert out["before"] is False
        assert out["after"] is True
        assert out["index_numpy"] >= 1

    def test_explicit_numpy_request_imports_at_resolution(self):
        out = fresh_json("""
            import json, sys
            import repro.kernels as kernels
            before = "numpy" in sys.modules
            backend = kernels.backend()
            print(json.dumps([before, backend, "numpy" in sys.modules]))
        """, env={"REPRO_KERNELS": "numpy"})
        assert out == [False, "numpy", True]


# -- vc bulk join ------------------------------------------------------------


class TestJoinMany:
    def test_matches_fold(self):
        from repro.vc.clock import VectorClock

        rng = random.Random(5)
        for trial in range(50):
            width = rng.randint(1, 6)
            clocks = [VectorClock([rng.randint(0, 9)
                                   for _ in range(rng.randint(0, width))])
                      for _ in range(rng.randint(0, 12))]
            base = [rng.randint(0, 9) for _ in range(width)]
            a = VectorClock(list(base))
            changed_fold = False
            for c in clocks:
                changed_fold = a.join_with(c) or changed_fold
            b = VectorClock(list(base))
            changed_many = b.join_many(clocks)
            assert a.values() == b.values()
            assert changed_fold == changed_many
