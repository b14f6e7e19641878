"""The telemetry subsystem (repro.obs): disabled-mode no-op semantics,
span-tree well-formedness under exceptions, per-cell rollups riding the
runner result channel (inline and pool identically), Chrome trace-event
export validity, and the CLI surface (--obs / obs export / bench
profile)."""

import inspect
import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.exp.campaign import Campaign, CampaignError, DetectorSpec, TraceSource
from repro.exp.report import (
    PROFILE_COLUMNS,
    has_telemetry,
    profile_markdown,
    run_to_json,
)
from repro.exp.runner import InlineRunner, ProcessPoolRunner, run_cell
from repro.obs.export import export_chrome, load_records, to_chrome

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


@pytest.fixture(autouse=True)
def _obs_clean():
    """Telemetry is process-global; never leak activation across tests."""
    obs.disable()
    os.environ.pop(obs.ENV_VAR, None)
    yield
    obs.disable()
    os.environ.pop(obs.ENV_VAR, None)


def corpus_source(name: str) -> TraceSource:
    return TraceSource(kind="file", name=name,
                       path=os.path.join(CORPUS, f"{name}.std"))


def tiny_campaign(**kwargs):
    return Campaign(
        name="obs-test",
        traces=[corpus_source("sigma2"), corpus_source("sigma3")],
        detectors=[DetectorSpec(name="spd_offline")],
        include_stats=kwargs.pop("include_stats", False),
        **kwargs,
    )


# -- disabled mode -------------------------------------------------------


class TestDisabledNoop:
    def test_disabled_is_default(self):
        assert not obs.enabled()

    def test_span_returns_shared_null_singleton(self):
        assert obs.span("a") is obs.span("b", cat="x", arg=1)
        with obs.span("a"):
            pass                                 # no error, no state

    def test_metrics_are_noops(self):
        obs.count("c", 5)
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)
        obs.event("e")
        obs.record_span("r", 0, 10)
        snap = obs.snapshot()
        assert snap == {"enabled": False, "counters": {}, "gauges": {},
                        "histograms": {}}
        assert obs.drain_spans() == []
        assert obs.finish() is None

    def test_cell_scope_rollup_is_none(self):
        with obs.cell_scope(index=0) as scope:
            pass
        assert scope.rollup is None

    def test_env_off_values(self, monkeypatch):
        for val in ("", "0", "false", "no", "off"):
            monkeypatch.setenv(obs.ENV_VAR, val)
            assert not obs.maybe_enable_from_env()
            assert not obs.enabled()

    def test_patch_on_enable_leaves_disabled_hot_path_untouched(self):
        from repro.vc.clock import VectorClock

        orig = VectorClock.join_with
        obs.enable(None)
        patched = VectorClock.join_with
        assert patched is not orig
        obs.disable()
        assert VectorClock.join_with is orig
        # re-enable re-patches; idempotent enable does not stack
        # wrappers, so a single disable unwinds all the way back
        obs.enable(None)
        obs.enable(None)
        assert VectorClock.join_with is not orig
        obs.disable()
        assert VectorClock.join_with is orig


# -- span trees ----------------------------------------------------------


class TestSpanTree:
    def test_nested_paths(self):
        obs.enable(None)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = [r for r in obs.drain_spans() if r["k"] == "span"]
        assert [s["path"] for s in spans] == ["outer/inner", "outer"]
        assert all(s["dur"] >= 0 for s in spans)

    def test_balanced_under_exceptions(self):
        obs.enable(None)
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("inner"):
                    raise ValueError("boom")
        spans = obs.drain_spans()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["error"] == "ValueError"
        assert spans[1]["error"] == "ValueError"
        # the per-thread stack unwound fully: a fresh span is a root
        with obs.span("fresh"):
            pass
        assert obs.drain_spans()[0]["path"] == "fresh"

    def test_counters_gauges_histograms(self):
        obs.enable(None)
        obs.count("c")
        obs.count("c", 4)
        obs.gauge("g", 7.5)
        for v in (3.0, 1.0, 2.0):
            obs.observe("h", v)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"] == {"count": 3, "sum": 6.0,
                                           "min": 1.0, "max": 3.0}

    def test_engine_counters_flow_from_a_detector_run(self):
        from repro.core.spd_offline import spd_offline
        from repro.trace.parser import load_trace

        obs.enable(None)
        spd_offline(load_trace(os.path.join(CORPUS, "sigma2.std")))
        c = obs.snapshot()["counters"]
        assert c["vc.trf.anchors"] > 0
        assert c["vc.trf.joins"] > 0
        assert c["closure.compute"] >= 1
        assert c["index.events"] > 0
        obs.disable()
        # after disable the probes are unregistered from the totals
        assert obs.snapshot()["counters"] == {}

    def test_closure_counters_follow_the_one_engine(self):
        """``cs.*`` wrap the closure both detectors run: an online run
        reports advances too, an offline one its per-check resets, and
        disable unwinds both wrappers."""
        import repro.kernels as kernels
        from repro.core.closure import SPClosure, SPClosureEngine
        from repro.core.spd_offline import spd_offline
        from repro.core.spd_online import spd_online
        from repro.trace.parser import load_trace

        trace = load_trace(os.path.join(CORPUS, "sigma2.std"))
        orig = (SPClosure._advance_lock, SPClosureEngine.reset)
        obs.enable(None)
        before = obs.snapshot()["counters"]
        assert spd_online(trace).num_reports == 1
        online = obs.snapshot()["counters"]
        assert online["cs.advance"] > before["cs.advance"]
        assert online["cs.contributions"] > before["cs.contributions"]
        assert online["cs.resets"] == before["cs.resets"]
        with kernels.use("python"):
            assert spd_offline(trace).num_deadlocks == 1
        offline = obs.snapshot()["counters"]
        assert offline["cs.resets"] > online["cs.resets"]
        assert offline["cs.advance"] > online["cs.advance"]
        obs.disable()
        assert (SPClosure._advance_lock, SPClosureEngine.reset) == orig

    def test_offline_phases_are_sibling_spans_with_walk_counters(
            self, monkeypatch):
        """``spd_offline`` opens one span per perfbench layer key, side
        by side, and counts its phase-2 walk once per run: every
        instantiation the walk visits asks for the prefix closures of
        its events, then is decided by them or by an exact fix-point."""
        from repro.core.closure import SPClosureEngine
        from repro.core.spd_offline import spd_offline
        from repro.synth.random_traces import (
            RandomTraceConfig,
            generate_random_trace,
        )

        trace = generate_random_trace(RandomTraceConfig(
            num_threads=4, num_locks=4, num_events=400, max_nesting=3,
            acquire_prob=0.35, seed=3))
        asked = []
        prefix = SPClosureEngine.prefix

        def counted(self, e):
            asked.append(e)
            return prefix(self, e)

        monkeypatch.setattr(SPClosureEngine, "prefix", counted)
        obs.enable(None)
        with obs.span("run"):
            assert spd_offline(trace, max_size=2).num_deadlocks > 0
        paths = [s["path"] for s in obs.drain_spans() if s["k"] == "span"]
        for name in ("alg.phase1", "vc.trf", "offline.phase2"):
            assert paths.count("run/" + name) == 1, (name, paths)
        c = obs.snapshot()["counters"]
        assert c["offline.prefiltered"] > 0 and c["offline.exact"] > 0
        # Size-2 patterns: two prefix closures per visited instantiation.
        assert 2 * (c["offline.prefiltered"] + c["offline.exact"]) \
            == len(asked)
        assert c["offline.exact"] == c["closure.compute"]
        assert c["offline.prefix"] >= len(set(asked))
        obs.disable()
        spd_offline(trace, max_size=2)
        assert obs.drain_spans() == []
        assert obs.snapshot()["counters"] == {}

    def test_online_feed_span_and_prefix_counters(self):
        """SPDOnline opens one ``online.feed`` span per ``feed_batch``
        and counts its prefix-closure computes (``online.prefix``, at
        most one per acquire) and the joint fix-points it starts
        (``online.joint``, at most one per checked context and
        acquire), and FastTrack opens one ``fasttrack.feed`` span per
        ``feed_batch``, only while telemetry is enabled; disable
        restores the original class attributes."""
        from repro.core.spd_online import SPDOnline
        from repro.hb.fasttrack import FastTrack
        from repro.synth.random_traces import (
            RandomTraceConfig,
            generate_random_trace,
        )
        from repro.trace.compiled import compile_trace

        comp = compile_trace(generate_random_trace(RandomTraceConfig(
            num_threads=6, num_locks=6, num_events=600, max_nesting=3,
            acquire_prob=0.35, seed=3)))
        orig = (SPDOnline._prefix_closure, SPDOnline._joint_closure,
                FastTrack.feed_batch)
        assert "feed_batch" not in vars(SPDOnline)
        obs.enable(None)
        with obs.span("run"):
            det = SPDOnline()
            det.feed_batch(comp, 0, 300)
            det.feed_batch(comp, 300, len(comp))
            ft = FastTrack()
            ft.feed_batch(comp, 0, 300)
            ft.feed_batch(comp, 300, len(comp))
        paths = [s["path"] for s in obs.drain_spans() if s["k"] == "span"]
        assert paths.count("run/online.feed") == 2, paths
        assert paths.count("run/fasttrack.feed") == 2, paths
        c = obs.snapshot()["counters"]
        checks = det.stats()["deadlock_checks"]
        assert 0 < len(det._prefixes) <= c["online.prefix"] <= checks
        assert 0 < c["online.joint"] < checks
        obs.disable()
        assert (SPDOnline._prefix_closure, SPDOnline._joint_closure,
                FastTrack.feed_batch) == orig
        assert "feed_batch" not in vars(SPDOnline)
        SPDOnline().run(comp)
        FastTrack().run(comp)
        obs.enable(None)
        assert obs.drain_spans() == []
        assert not any(k.startswith(("online.", "fasttrack."))
                       for k in obs.snapshot()["counters"])


# -- per-cell rollups through the runners -------------------------------


class TestRunnerRollups:
    def _check_run(self, run):
        for res in run.results:
            assert res.obs is not None, res.detector_id
            assert res.obs["wall"] > 0
            assert res.obs["cpu"] >= 0
            assert res.obs["counters"]
            assert any(s["name"] == "detector" for s in res.obs["spans"])
            assert res.cpu_elapsed is not None

    def test_inline_and_pool_rollups_identical_shape(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_VAR, "1")
        inline = InlineRunner().run(tiny_campaign())
        pool = ProcessPoolRunner(jobs=2).run(tiny_campaign())
        self._check_run(inline)
        self._check_run(pool)
        rec_a = run_to_json(inline)
        rec_b = run_to_json(pool)
        assert "obs" in rec_a and "obs" in rec_b
        # the acceptance bar: identical per-cell telemetry columns
        # however the run executed
        assert has_telemetry(rec_a["cells"]) and has_telemetry(rec_b["cells"])
        header_a = profile_markdown(rec_a["cells"]).splitlines()[0]
        header_b = profile_markdown(rec_b["cells"]).splitlines()[0]
        assert header_a == header_b
        assert all(c in header_a for c in PROFILE_COLUMNS)

    def test_worker_counters_fold_into_parent_snapshot(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_VAR, "1")
        obs.maybe_enable_from_env()
        ProcessPoolRunner(jobs=2).run(tiny_campaign())
        c = obs.snapshot()["counters"]
        # TRF passes happen only inside workers; their counters must
        # still reach the parent's run-level totals
        assert c["vc.trf.anchors"] > 0
        assert c["vc.trf.joins"] > 0
        assert c["pool.workers_started"] == 2

    def test_cpu_time_measured_without_telemetry(self):
        tasks = tiny_campaign().cells()
        res = run_cell(tasks[0])
        assert res.obs is None                   # telemetry off
        assert res.cpu_times and res.cpu_elapsed is not None
        assert res.cpu_elapsed >= 0
        rec = res.to_json()
        assert rec["cpu_elapsed"] == round(res.cpu_elapsed, 6)

    def test_rollups_survive_the_cache_round_trip(self, tmp_path, monkeypatch):
        from repro.exp.cache import ResultCache

        monkeypatch.setenv(obs.ENV_VAR, "1")
        cache = ResultCache(str(tmp_path / "cache"))
        first = InlineRunner().run(tiny_campaign(), cache=cache)
        second = InlineRunner().run(tiny_campaign(), cache=cache)
        assert second.cache_hits == second.num_cells
        for before, after in zip(first.results, second.results):
            assert after.cached
            assert after.obs == before.obs
            # cpu_times round-trips through JSON, which rounds
            assert after.cpu_times == [round(t, 6) for t in before.cpu_times]

    def test_reset_for_worker_never_touches_parent_log(self, tmp_path,
                                                       monkeypatch):
        out = str(tmp_path / "obs")
        monkeypatch.setenv(obs.ENV_VAR, out)
        obs.maybe_enable_from_env()
        with obs.span("parent"):
            pass
        with open(os.path.join(out, "spans.jsonl")) as fh:
            before = fh.read()
        obs.reset_for_worker()
        assert obs.enabled()                     # re-armed from the env
        with obs.span("child"):
            pass
        obs.finish()
        with open(os.path.join(out, "spans.jsonl")) as fh:
            after = fh.read()
        assert after == before                   # child collects in memory
        assert any(r["name"] == "child" for r in obs.drain_spans())


# -- chrome export -------------------------------------------------------


class TestChromeExport:
    def test_export_schema(self, tmp_path):
        out = str(tmp_path / "obs")
        obs.enable(out)
        with obs.span("work", cat="test", n=3):
            with obs.span("step"):
                pass
        obs.count("things", 7)
        obs.finish()
        obs.disable()
        doc, path = export_chrome(out)
        assert path == os.path.join(out, "trace_events.json")
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == doc
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        cs = [e for e in events if e["ph"] == "C"]
        assert len(xs) == 2 and cs
        assert len(xs) + len(cs) == len(events)
        for e in xs:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["ts"] >= 0 and e["dur"] >= 0
        step = next(e for e in xs if e["name"] == "step")
        assert step["args"]["path"] == "work/step"
        counter = next(e for e in cs if e["name"] == "things")
        assert counter["args"]["value"] == 7

    def test_run_dir_resolution_skips_the_journal(self, tmp_path):
        # a run directory also holds journal.jsonl (the resilience
        # journal) — export must read obs/spans.jsonl, not that
        run_dir = tmp_path / "run"
        obs_dir = run_dir / "obs"
        obs_dir.mkdir(parents=True)
        (run_dir / "journal.jsonl").write_text(
            '{"kind": "meta", "campaign": "decoy"}\n')
        (obs_dir / "spans.jsonl").write_text(
            json.dumps({"k": "span", "name": "real", "path": "real",
                        "ts": 5, "dur": 2, "pid": 1, "tid": 1}) + "\n")
        doc, path = export_chrome(str(run_dir))
        assert [e["name"] for e in doc["traceEvents"]] == ["real"]
        assert path == str(obs_dir / "trace_events.json")

    def test_torn_tail_tolerated(self, tmp_path):
        log = tmp_path / "spans.jsonl"
        good = json.dumps({"k": "span", "name": "a", "path": "a",
                           "ts": 1, "dur": 1, "pid": 1, "tid": 1})
        log.write_text(good + "\n" + good[: len(good) // 2])
        records = load_records(str(log))
        assert len(records) == 1

    def test_empty_records(self):
        doc = to_chrome([])
        assert doc["traceEvents"] == []


# -- campaign [obs] table ------------------------------------------------


class TestCampaignObs:
    def test_toml_obs_table(self, tmp_path):
        from repro.exp.campaign import load_campaign

        camp = tmp_path / "c.toml"
        camp.write_text(
            'name = "t"\n'
            '[[traces]]\nkind = "synth"\nbenchmark = "Account"\n'
            '[[detectors]]\nname = "spd_offline"\n'
            "[obs]\nenabled = true\n"
        )
        c = load_campaign(str(camp))
        assert c.obs_enabled
        assert c.to_json()["obs"] == {"enabled": True}

    def test_obs_disabled_and_absent(self):
        assert not tiny_campaign().obs_enabled
        assert not tiny_campaign(obs={"enabled": False}).obs_enabled
        assert tiny_campaign(obs={}).obs is not None

    def test_bad_obs_table_rejected(self):
        with pytest.raises(CampaignError, match="unknown .obs. keys"):
            tiny_campaign(obs={"directory": "x"})
        with pytest.raises(CampaignError, match="boolean"):
            tiny_campaign(obs={"enabled": "yes"})


# -- detector wrapper ----------------------------------------------------


class TestDetectorWrapper:
    def test_wrapper_preserves_source_for_cache_versioning(self):
        from repro.exp.detectors import _REGISTRY, get_adapter

        wrapped = get_adapter("spd_offline")
        raw = _REGISTRY["spd_offline"]
        assert wrapped is not raw
        assert inspect.getsource(wrapped) == inspect.getsource(raw)
        assert wrapped.__module__ == raw.__module__
        # memoized: repeated resolution hands back one stable callable
        assert get_adapter("spd_offline") is wrapped

    def test_detector_span_emitted(self):
        from repro.exp.detectors import get_adapter
        from repro.trace.parser import load_trace

        obs.enable(None)
        trace = load_trace(os.path.join(CORPUS, "sigma2.std"))
        out = get_adapter("spd_offline")(trace, {})
        assert out["primary"] >= 0
        spans = obs.drain_spans()
        det = [s for s in spans if s["name"] == "detector"]
        assert len(det) == 1
        assert det[0]["args"]["detector"] == "spd_offline"


# -- CLI surface ---------------------------------------------------------


CLI_CAMPAIGN = """\
name = "obs-cli"
include_stats = false

[[traces]]
kind = "synth"
benchmark = "Account"

[[detectors]]
name = "spd_offline"

[[detectors]]
name = "spd_online"
"""


class TestCLI:
    def _run(self, tmp_path, extra=()):
        camp = tmp_path / "c.toml"
        camp.write_text(CLI_CAMPAIGN)
        out = str(tmp_path / "out")
        rc = main(["bench", "run", "--campaign", str(camp), "--out", out,
                   "--quiet", "--no-cache", *extra])
        assert rc == 0
        return out

    def test_obs_flag_full_loop(self, tmp_path, capsys):
        out = self._run(tmp_path, ("--obs", "-j", "2"))
        assert "## Profile" in capsys.readouterr().out
        # the CLI turned telemetry on for the run and off after it
        assert not obs.enabled()
        assert obs.ENV_VAR not in os.environ
        assert os.path.isfile(os.path.join(out, "obs", "spans.jsonl"))
        assert os.path.isfile(os.path.join(out, "obs", "metrics.json"))
        with open(os.path.join(out, "run.json")) as fh:
            record = json.load(fh)
        assert record["obs"]["counters"]
        assert all(c["obs"] for c in record["cells"])

        rc = main(["obs", "export", out])
        assert rc == 0
        with open(os.path.join(out, "obs", "trace_events.json")) as fh:
            doc = json.load(fh)
        assert doc["traceEvents"]
        assert all(e["ph"] in ("X", "C") for e in doc["traceEvents"])

        capsys.readouterr()
        rc = main(["bench", "profile", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "## span tree" in text and "## counters" in text
        rc = main(["bench", "profile", out,
                   "--trace", "Account", "--detector", "spd_online"])
        assert rc == 0
        cell_text = capsys.readouterr().out
        assert "cell Account x spd_online" in cell_text
        assert "wall" in cell_text and "cpu" in cell_text

    def test_campaign_obs_table_activates(self, tmp_path):
        camp = tmp_path / "c.toml"
        camp.write_text(CLI_CAMPAIGN + "\n[obs]\nenabled = true\n")
        out = str(tmp_path / "out")
        rc = main(["bench", "run", "--campaign", str(camp), "--out", out,
                   "--quiet", "--no-cache"])
        assert rc == 0
        assert os.path.isfile(os.path.join(out, "obs", "spans.jsonl"))
        assert not obs.enabled()

    def test_without_obs_no_telemetry_artifacts(self, tmp_path):
        out = self._run(tmp_path)
        assert not os.path.isdir(os.path.join(out, "obs"))
        with open(os.path.join(out, "run.json")) as fh:
            record = json.load(fh)
        assert "obs" not in record
        assert all("obs" not in c for c in record["cells"])
        # cpu time is measured regardless — it is cheap and always useful
        assert all(c.get("cpu_elapsed") is not None for c in record["cells"])

    def test_profile_cell_flags_must_pair(self, tmp_path, capsys):
        rc = main(["bench", "profile", str(tmp_path), "--trace", "x"])
        assert rc == 2
        assert "go together" in capsys.readouterr().err

    def test_profile_missing_run(self, tmp_path, capsys):
        rc = main(["bench", "profile", str(tmp_path / "nope")])
        assert rc == 2


class TestKernelTelemetryComposition:
    """obs's patch-on-enable wrappers compose with the kernel-backend
    selector: enabling telemetry changes no report under either
    backend, and disabling it unwinds every wrapper."""

    def test_enable_disable_cycle_keeps_kernel_dispatch(self):
        """Lifecycle: enabled -> disabled -> re-enabled, spd_offline
        under the numpy selection reports what the python run does, its
        closure runs through the counting wrapper while enabled, and
        after each disable the original methods are back."""
        import repro.kernels as kernels
        from repro.core.closure import SPClosure, SPClosureEngine
        from repro.core.spd_offline import spd_offline
        from repro.synth.random_traces import (
            RandomTraceConfig,
            generate_random_trace,
        )
        from repro.trace.compiled import compile_trace
        from repro.vc.clock import VectorClock

        # A CompiledTrace input builds its index afresh on every run.
        trace = compile_trace(generate_random_trace(RandomTraceConfig(
            num_threads=16, num_locks=8, num_events=1500, max_nesting=3,
            acquire_prob=0.35, release_prob=0.3, seed=2)))

        def reports(backend):
            with kernels.use(backend):
                res = spd_offline(trace, max_size=2)
            return [(r.pattern.events, r.locations) for r in res.reports]

        def methods():
            return (SPClosure._advance_lock, SPClosureEngine.reset,
                    VectorClock.join_with)

        plain = methods()
        baseline = reports("python")
        assert baseline
        for _cycle in range(2):
            obs.enable(None)
            assert all(m is not p for m, p in zip(methods(), plain))
            advances = obs.snapshot()["counters"].get("cs.advance", 0)
            assert reports("numpy") == baseline
            assert obs.snapshot()["counters"]["cs.advance"] > advances
            obs.disable()
            assert methods() == plain
        # wrappers unwound: one more run, still identical
        assert reports("numpy") == baseline
        assert methods() == plain
