"""Randomized differential harness for the shard-and-merge pipeline.

The contract under test: for every trace, ``spd_offline_sharded`` is
**bit-identical** to the serial ``spd_offline`` — same cycle and
pattern counts, same reports in the same order, same event indices and
locations — and the process-pool execution (``jobs=2``) is identical to
the in-process one.  In the spirit of PaC-trees' parallel/sequential
equivalence proofs, the evidence here is differential: hundreds of
seeded random traces sweeping thread/lock counts, nesting depth,
fork/join structure, non-well-nested critical sections
(``release_any_prob``), and initial reads, plus the whole ``corpus/``.

The quick slice (~200 configs) runs in tier-1 CI via ``scripts/ci.sh``.
The long fuzz loop is opt-in: ``REPRO_FUZZ_ITERS=5000 pytest -m fuzz
tests/test_shard_differential.py`` (nightly-style).
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.core.spd_offline import spd_offline
from repro.exp.cache import ResultCache
from repro.exp.runner import ProcessPoolRunner
from repro.exp.shard import ShardError, spd_offline_sharded, split_trace
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.events import OP_ACQUIRE, OP_READ, OP_RELEASE, OP_REQUEST, OP_WRITE
from repro.trace.parser import load_trace
from repro.trace.shard import build_spine, load_spine, save_spine, shared_lock_ids
from repro.trace.trace import as_trace

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                       "corpus", "*.std")))

#: quick-slice size; the ISSUE-4 acceptance bar is >= 200 seeded configs.
QUICK_ITERS = 200


def result_key(res):
    """The full comparable fingerprint of an SPDOffline result."""
    return {
        "cycles": res.num_cycles,
        "abstract": res.num_abstract_patterns,
        "concrete": res.num_concrete_patterns,
        "reports": [
            (r.pattern.events, r.locations, r.bug_id, str(r.abstract))
            for r in res.reports
        ],
    }


def config_for(seed: int) -> RandomTraceConfig:
    """A deterministic, varied generator config for one fuzz iteration.

    Sweeps universe sizes, nesting depth, fork/join structure, and —
    every other seed — non-well-nested release order.  Small variable
    pools guarantee reads-from edges; reads of never-written variables
    (initial reads) occur naturally early in each trace.
    """
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


def _assert_identical(trace, max_size=None, jobs=1, runner=None, label=""):
    serial = spd_offline(trace, max_size=max_size)
    sharded = spd_offline_sharded(trace, max_size=max_size, jobs=jobs,
                                  runner=runner)
    assert result_key(serial) == result_key(sharded), label
    return serial


class TestCorpusDifferential:
    @pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
    @pytest.mark.parametrize("max_size", [None, 2])
    def test_corpus_bit_identical(self, path, max_size):
        _assert_identical(load_trace(path), max_size=max_size, label=path)


class TestRandomDifferential:
    def test_quick_slice_bit_identical(self):
        """>= 200 seeded configs, sharded ≡ serial (inline execution)."""
        deadlocks = 0
        nonwellnested = 0
        for seed in range(QUICK_ITERS):
            cfg = config_for(seed)
            trace = as_trace(generate_random_trace(cfg))
            max_size = 2 if seed % 4 == 0 else None
            serial = _assert_identical(trace, max_size=max_size,
                                       label=f"seed={seed}")
            deadlocks += serial.num_deadlocks
            if cfg.release_any_prob:
                nonwellnested += 1
        # The sweep must actually exercise the interesting regimes.
        assert deadlocks > 0, "vacuous sweep: no deadlock was ever found"
        assert nonwellnested >= QUICK_ITERS // 2 - 1

    def test_initial_reads_and_unobserved_writes_are_covered(self):
        """The sweep produces traces whose spine drops rf-free accesses."""
        dropped_reads = dropped_writes = 0
        for seed in range(0, QUICK_ITERS, 7):
            trace = as_trace(generate_random_trace(config_for(seed)))
            index = trace.index
            spine = build_spine(index)
            kept = set(spine.to_orig)
            ops = trace.compiled.ops
            for i in range(len(ops)):
                if i in kept:
                    continue
                if ops[i] == OP_READ:
                    dropped_reads += 1
                elif ops[i] == OP_WRITE:
                    dropped_writes += 1
        assert dropped_reads > 0 and dropped_writes > 0

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
            _assert_identical(trace, max_size=None if seed % 3 else 2,
                              label=f"seed={seed}")


class TestProcessPoolDifferential:
    def test_j2_matches_inline_and_serial(self):
        """-j2 ≡ inline ≡ serial on a mixed slice (real processes)."""
        pool = ProcessPoolRunner(jobs=2)
        paths = ["picklock.std", "fig6.std", "sigma3.std", "non_well_nested.std"]
        traces = [
            load_trace(os.path.join(os.path.dirname(__file__), "..",
                                    "corpus", p))
            for p in paths
        ] + [as_trace(generate_random_trace(config_for(s))) for s in (3, 17, 42)]
        for trace in traces:
            serial = spd_offline(trace)
            inline = spd_offline_sharded(trace, jobs=1)
            pooled = spd_offline_sharded(trace, jobs=2, runner=pool)
            assert result_key(serial) == result_key(inline) == result_key(pooled)

    def test_shard_cells_cache_and_replay(self, tmp_path):
        trace = as_trace(generate_random_trace(config_for(11)))
        cache = ResultCache(str(tmp_path / "cache"))
        cold = spd_offline_sharded(trace, jobs=1, cache=cache)
        assert len(cache) > 0
        hits = []
        warm = spd_offline_sharded(trace, jobs=1, cache=cache,
                                   progress=lambda r: hits.append(r.cached))
        assert hits and all(hits), "second run must be served from cache"
        assert result_key(cold) == result_key(warm)


class TestShardedSemantics:
    def test_max_cycles_prefix_matches_serial(self):
        """The global enumeration-prefix cap, distributed: workers
        report per-start cycle counts, the merge cuts the prefix —
        bit-identical to the serial cap for every cap value (Table-1
        ``|Cyc|`` cells can shard)."""
        for seed in (3, 17, 42):
            trace = as_trace(generate_random_trace(config_for(seed)))
            total = spd_offline(trace).num_cycles
            for cap in (0, 1, 2, max(total - 1, 0), total, total + 5):
                serial = spd_offline(trace, max_cycles=cap)
                sharded = spd_offline_sharded(trace, max_cycles=cap)
                assert result_key(serial) == result_key(sharded), (seed, cap)

    def test_max_cycles_composes_with_max_size(self):
        trace = load_trace(os.path.join(os.path.dirname(__file__), "..",
                                        "corpus", "picklock.std"))
        for cap in (0, 1, 3):
            serial = spd_offline(trace, max_size=2, max_cycles=cap)
            sharded = spd_offline_sharded(trace, max_size=2, max_cycles=cap)
            assert result_key(serial) == result_key(sharded), cap

    def test_with_witnesses_matches_serial(self):
        trace = load_trace(os.path.join(os.path.dirname(__file__), "..",
                                        "corpus", "picklock.std"))
        serial = spd_offline(trace, with_witnesses=True)
        sharded = spd_offline_sharded(trace, jobs=1, with_witnesses=True)
        assert serial.witnesses == sharded.witnesses
        assert sharded.witnesses  # picklock has a deadlock

    def test_no_context_trace_short_circuits(self):
        # A trace with no nested acquires has an empty ALG: no shards.
        trace = as_trace(generate_random_trace(RandomTraceConfig(
            num_threads=3, num_locks=3, num_events=60, max_nesting=1, seed=5)))
        plan = split_trace(trace)
        assert plan.num_contexts == 0
        _assert_identical(trace)


class TestCausalityComponents:
    @staticmethod
    def _two_groups(link_with_rf: bool):
        from repro.trace.builder import TraceBuilder

        b = TraceBuilder()
        for g, (t0, t1) in enumerate((("a0", "a1"), ("b0", "b1"))):
            x, y = f"X{g}", f"Y{g}"
            for thread, (first, second) in ((t0, (x, y)), (t1, (y, x))):
                b.acq(thread, first)
                b.acq(thread, second)
                b.rel(thread, second)
                b.rel(thread, first)
            b.write(t0, f"v{g}")
        if link_with_rf:
            b.write("a0", "shared_var")
            b.read("b0", "shared_var")
        return as_trace(b.build("two-groups"))

    def test_disjoint_groups_split_into_separate_spines(self):
        trace = self._two_groups(link_with_rf=False)
        plan = split_trace(trace)
        assert plan.num_contexts == 2
        assert plan.num_components == 2
        # Each sub-spine holds only its own group's threads.
        thread_sets = sorted(
            sorted({s.compiled.threads_tab.names[t]
                    for t in s.compiled.thread_ids})
            for s in plan.spines.values()
        )
        assert thread_sets == [["a0", "a1"], ["b0", "b1"]]
        _assert_identical(trace)

    def test_rf_edge_merges_components(self):
        trace = self._two_groups(link_with_rf=True)
        plan = split_trace(trace)
        assert plan.num_contexts == 2
        assert plan.num_components == 1
        _assert_identical(trace)

    def test_jobs_batching_groups_contexts_per_component(self):
        trace = self._two_groups(link_with_rf=True)
        # One component, two contexts: jobs=1 packs both into one cell.
        assert len(split_trace(trace, jobs=1).cells) == 1
        assert len(split_trace(trace, jobs=4).cells) == 2
        _assert_identical(trace, jobs=1)


class TestShardedCampaignRunner:
    def test_matches_plain_runner_cell_for_cell(self):
        from repro.exp.campaign import Campaign, DetectorSpec, TraceSource
        from repro.exp.runner import InlineRunner
        from repro.exp.shard import ShardedCampaignRunner

        corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
        campaign = Campaign(
            name="shard-vs-plain",
            traces=[
                TraceSource(kind="file", name=n,
                            path=os.path.join(corpus, f"{n}.std"))
                for n in ("picklock", "fig6", "non_well_nested")
            ],
            detectors=[
                DetectorSpec(name="spd_offline"),
                DetectorSpec(name="spd_offline", id="spd_offline_sz2",
                             config={"max_size": 2}),
                DetectorSpec(name="goodlock"),
            ],
        )
        plain = InlineRunner().run(campaign)
        sharded = ShardedCampaignRunner(jobs=1).run(campaign)
        assert ([r.comparable() for r in plain.results]
                == [r.comparable() for r in sharded.results])

    def test_max_cycles_cells_shard_and_match_serial(self):
        from repro.exp.campaign import Campaign, DetectorSpec, TraceSource
        from repro.exp.runner import InlineRunner
        from repro.exp.shard import ShardedCampaignRunner

        corpus = os.path.join(os.path.dirname(__file__), "..", "corpus")
        campaign = Campaign(
            name="capped-shards",
            traces=[TraceSource(kind="file", name="picklock",
                                path=os.path.join(corpus, "picklock.std"))],
            detectors=[DetectorSpec(name="spd_offline",
                                    config={"max_cycles": 1})],
        )
        plain = InlineRunner().run(campaign)
        seen = []
        sharded = ShardedCampaignRunner(jobs=1).run(
            campaign, progress=lambda r: seen.append(r.detector_id))
        assert ([r.comparable() for r in plain.results]
                == [r.comparable() for r in sharded.results])
        assert all(r.status == "ok" for r in sharded.results)
        # the capped cell really went through the shard pipeline
        assert any(d.startswith("shard") for d in seen)

    def test_shard_timeout_surfaces(self):
        # A shard cell that cannot finish inside the budget must come
        # back as a timeout, not hang or crash the run.
        trace = as_trace(generate_random_trace(RandomTraceConfig(
            num_threads=6, num_locks=8, num_vars=10, num_events=30_000,
            max_nesting=3, acquire_prob=0.35, release_prob=0.3, seed=99)))
        pool = ProcessPoolRunner(jobs=2)
        with pytest.raises(ShardError) as exc_info:
            spd_offline_sharded(trace, jobs=2, runner=pool, timeout=0.01)
        assert exc_info.value.timed_out


class TestSpine:
    def test_projection_keeps_exactly_the_spine(self):
        trace = as_trace(generate_random_trace(config_for(23)))
        index = trace.index
        spine = build_spine(index)
        ops, _, targs = trace.compiled.columns()
        shared = set(shared_lock_ids(index))
        rf = index.rf
        observed = {rf[i] for i in range(len(ops))
                    if ops[i] == OP_READ and rf[i] >= 0}
        kept = set(spine.to_orig)
        for i in range(len(ops)):
            op = ops[i]
            if op == OP_READ:
                expect = rf[i] >= 0
            elif op == OP_WRITE:
                expect = i in observed
            elif op in (OP_ACQUIRE, OP_RELEASE):
                expect = targs[i] in shared
            elif op == OP_REQUEST:
                expect = False
            else:  # fork/join
                expect = True
            assert (i in kept) == expect, (i, op)
        # to_orig is strictly increasing: projection preserves order.
        assert all(a < b for a, b in zip(spine.to_orig, spine.to_orig[1:]))

    def test_save_load_roundtrip(self, tmp_path):
        trace = as_trace(generate_random_trace(config_for(31)))
        spine = build_spine(trace.index)
        path = str(tmp_path / "spine.bin")
        save_spine(spine, path)
        loaded = load_spine(path)
        assert list(loaded.to_orig) == list(spine.to_orig)
        assert loaded.orig_len == spine.orig_len
        a, b = loaded.compiled, spine.compiled
        assert list(a.ops) == list(b.ops)
        assert list(a.thread_ids) == list(b.thread_ids)
        assert list(a.target_ids) == list(b.target_ids)
        assert a.threads_tab.names == b.threads_tab.names
        assert a.locks_tab.names == b.locks_tab.names
        assert a.vars_tab.names == b.vars_tab.names
        assert a.locs == b.locs
        # Determinism: the bytes (and hence the cache digest) are stable.
        save_spine(spine, str(tmp_path / "spine2.bin"))
        with open(path, "rb") as f1, open(str(tmp_path / "spine2.bin"), "rb") as f2:
            assert f1.read() == f2.read()

    def test_bitflipped_spine_detected(self, tmp_path):
        """A flipped payload byte fails the checksum, never loads as
        silently corrupt columns."""
        import repro.faults as faults

        spine = build_spine(as_trace(generate_random_trace(config_for(31))).index)
        path = str(tmp_path / "spine.bin")
        save_spine(spine, path)
        header_len = open(path, "rb").readline().__len__()
        faults.flip_byte(path, offset=header_len + 5)
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_spine(path)

    def test_truncated_spine_detected(self, tmp_path):
        import repro.faults as faults

        spine = build_spine(as_trace(generate_random_trace(config_for(31))).index)
        path = str(tmp_path / "spine.bin")
        save_spine(spine, path)
        faults.truncate_file(path, seed=3)
        with pytest.raises(ValueError,
                           match="truncated|corrupt spine header"):
            load_spine(path)

    def test_stale_spine_format_rejected(self, tmp_path):
        path = str(tmp_path / "spine.bin")
        with open(path, "wb") as fh:
            fh.write(b'{"format": "repro-spine-v1"}\n' + b"junk")
        with pytest.raises(ValueError, match="stale spine format"):
            load_spine(path)


class TestCheckpointVersioning:
    """Engine checkpoints (.ckpt beside the spine): stale or corrupt
    blobs are detected, logged, and recomputed bit-identically."""

    def _spine_on_disk(self, tmp_path, seed=11):
        trace = as_trace(generate_random_trace(config_for(seed)))
        spine = build_spine(trace.index)
        path = str(tmp_path / "spine.bin")
        save_spine(spine, path)
        loaded = load_spine(path)
        return loaded, as_trace(loaded.compiled)

    def test_bitflipped_ckpt_logged_and_recomputed(self, tmp_path, caplog):
        import logging

        import repro.faults as faults
        from repro.exp.shard import _component_engine

        spine, strace = self._spine_on_disk(tmp_path)
        first = _component_engine(spine, strace)     # derives, writes .ckpt
        ckpt = spine.path + ".ckpt"
        assert os.path.exists(ckpt)
        blob = first.checkpoint()

        header_len = len(open(ckpt, "rb").readline())
        faults.flip_byte(ckpt, offset=header_len + 2)
        with caplog.at_level(logging.WARNING, logger="repro.exp.shard"):
            second = _component_engine(spine, strace)
        assert "discarding unusable engine checkpoint" in caplog.text
        assert second.checkpoint() == blob           # bit-identical recompute

        # the recompute re-wrote a valid checkpoint: a third engine
        # restores silently
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.exp.shard"):
            third = _component_engine(spine, strace)
        assert "discarding" not in caplog.text
        assert third.checkpoint() == blob

    def test_stale_ckpt_version_logged_and_recomputed(self, tmp_path, caplog):
        import logging

        from repro.exp.shard import _component_engine

        spine, strace = self._spine_on_disk(tmp_path, seed=13)
        blob = _component_engine(spine, strace).checkpoint()
        for stale in (b"repro-trf-v1", b"repro-trf-v2"):
            caplog.clear()
            with open(spine.path + ".ckpt", "wb") as fh:
                fh.write(b'{"format": "%s"}\n' % stale + b"old payload")
            with caplog.at_level(logging.WARNING, logger="repro.exp.shard"):
                engine = _component_engine(spine, strace)
            assert "discarding unusable engine checkpoint" in caplog.text
            assert "stale TRF checkpoint" in caplog.text
            assert engine.checkpoint() == blob

    def test_shard_run_recomputes_v2_ckpt_and_matches_serial(
            self, monkeypatch, caplog):
        """A v2 (dense) checkpoint found beside a spine mid-run is
        discarded and recomputed; the sharded result still equals the
        serial one."""
        import logging

        import repro.exp.shard as shard_mod

        real_save = shard_mod.save_spine

        def save_with_v2_ckpt(spine, path):
            real_save(spine, path)
            with open(path + ".ckpt", "wb") as fh:
                fh.write(b'{"format": "repro-trf-v2"}\n' + b"dense payload")

        monkeypatch.setattr(shard_mod, "save_spine", save_with_v2_ckpt)
        trace = load_trace(os.path.join(os.path.dirname(__file__), "..",
                                        "corpus", "dining_phil5.std"))
        with caplog.at_level(logging.WARNING, logger="repro.exp.shard"):
            sharded = spd_offline_sharded(trace, jobs=1)
        assert "stale TRF checkpoint version 'repro-trf-v2'" in caplog.text
        serial = spd_offline(trace)
        assert serial.num_deadlocks > 0
        assert result_key(sharded) == result_key(serial)
