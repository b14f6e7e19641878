"""The ``repro.exp`` campaign subsystem: cache keying, runner
isolation, parallel/serial equivalence, reports, and the CLI front
door."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

from repro.exp.cache import ResultCache, cell_key, code_version
from repro.exp.campaign import (
    Campaign,
    CampaignError,
    DetectorSpec,
    TraceSource,
    load_campaign,
)
from repro.exp.report import diff_runs, render_markdown, run_to_json
from repro.exp.runner import InlineRunner, ProcessPoolRunner

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
REPRO_PKG = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def corpus_source(name: str) -> TraceSource:
    return TraceSource(kind="file", name=name,
                       path=os.path.join(CORPUS, f"{name}.std"))


def tiny_campaign(detectors, traces=("sigma2",), **kwargs) -> Campaign:
    return Campaign(
        name="t",
        traces=[corpus_source(n) for n in traces],
        detectors=detectors,
        **kwargs,
    )


class TestCacheKeying:
    def test_key_is_deterministic(self):
        k1 = cell_key("d" * 64, "spd_offline", {"max_size": 2}, 60.0, 1)
        k2 = cell_key("d" * 64, "spd_offline", {"max_size": 2}, 60.0, 1)
        assert k1 == k2

    def test_key_covers_every_input(self):
        base = dict(trace_digest="d" * 64, detector_name="spd_offline",
                    config={"max_size": 2}, timeout=60.0, repeats=1)
        k = cell_key(**base)
        for change in (
            dict(trace_digest="e" * 64),
            dict(detector_name="spd_online"),
            dict(config={"max_size": 3}),
            dict(config={}),
            dict(timeout=30.0),
            dict(repeats=2),
        ):
            assert cell_key(**{**base, **change}) != k, change

    def test_key_covers_code_version(self):
        k1 = cell_key("d" * 64, "spd_offline", {}, None, 1, version="aaaa")
        k2 = cell_key("d" * 64, "spd_offline", {}, None, 1, version="bbbb")
        assert k1 != k2

    def test_trace_digest_tracks_content(self, tmp_path):
        p = tmp_path / "a.std"
        p.write_text("t1|acq(l)\nt1|rel(l)\n")
        s = TraceSource(kind="file", name="a", path=str(p))
        d1 = s.digest()
        assert d1 == s.digest()
        p.write_text("t1|acq(l)\nt1|w(x)\nt1|rel(l)\n")
        assert s.digest() != d1

    def test_synth_digest_tracks_scaling_caps(self, monkeypatch):
        s = TraceSource(kind="synth", name="Picklock", benchmark="Picklock")
        d1 = s.digest()
        monkeypatch.setenv("REPRO_SUITE_MAX_EVENTS", "123")
        assert s.digest() != d1

    def test_code_version_is_memoized_hex(self):
        v = code_version()
        assert v == code_version()
        int(v, 16)


class TestPackageCodeVersion:
    """Every cell is keyed by the digest of the whole ``repro`` package:
    any module can change a cell's output, so any source edit changes
    every cell key."""

    def test_every_detector_keys_by_package_digest(self):
        from repro.exp.cache import detector_code_version
        from repro.exp.detectors import detector_names

        for name in detector_names() + ["no-such-detector"]:
            assert detector_code_version(name) == code_version(), name

    def test_cell_key_uses_package_digest(self):
        from repro.exp.runner import CellTask

        task = CellTask(index=0, trace=corpus_source("sigma2"),
                        trace_digest="d" * 64,
                        detector=DetectorSpec(name="fasttrack"),
                        timeout=None, repeats=1)
        assert task.key() == cell_key("d" * 64, "fasttrack", {}, None, 1,
                                      version=code_version())

    def test_source_edit_changes_every_cell_key(self, tmp_path):
        """Appending a comment to a module that no detector imports
        (``repro/analysis/explain.py``) changes every detector's cell
        key, each computed in a fresh interpreter over a copy of the
        package."""
        shutil.copytree(REPRO_PKG, tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = textwrap.dedent("""
            import json
            from repro.exp.campaign import DetectorSpec, TraceSource
            from repro.exp.detectors import detector_names
            from repro.exp.runner import CellTask

            trace = TraceSource(kind="file", name="t", path="t.std")
            print(json.dumps({
                n: CellTask(index=0, trace=trace, trace_digest="d" * 64,
                            detector=DetectorSpec(name=n), timeout=None,
                            repeats=1).key()
                for n in detector_names()}))
        """)

        def keys():
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(tmp_path)))
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        before = keys()
        assert "spd_offline" in before
        with open(tmp_path / "repro" / "analysis" / "explain.py", "a") as fh:
            fh.write("# an edit no detector imports\n")
        after = keys()
        assert after.keys() == before.keys()
        assert [n for n in before if after[n] == before[n]] == []


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"status": "ok", "output": {"primary": 1}})
        assert cache.get("ab" * 32) == {"status": "ok", "output": {"primary": 1}}
        assert len(cache) == 1

    def test_torn_record_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("cd" * 32, {"status": "ok"})
        path = cache._path("cd" * 32)
        with open(path, "w") as fh:
            fh.write('{"status": "o')       # truncated JSON
        assert cache.get("cd" * 32) is None

    def test_runner_reuses_and_invalidates(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        c = tiny_campaign([DetectorSpec(name="spd_offline")])
        r1 = InlineRunner().run(c, cache=cache)
        assert r1.cache_hits == 0
        r2 = InlineRunner().run(c, cache=cache)
        assert r2.cache_hits == r2.num_cells == 2       # stats + detector
        assert all(res.cached for res in r2.results)
        # config change invalidates only the detector cell
        c2 = tiny_campaign([DetectorSpec(name="spd_offline",
                                         config={"max_size": 2})])
        r3 = InlineRunner().run(c2, cache=cache)
        assert r3.cache_hits == 1                        # stats cell only

    def test_hit_is_restamped_with_current_identity(self, tmp_path):
        """The key hashes content, not display names: a renamed trace /
        re-id'd detector must not resurrect its first-run labels."""
        cache = ResultCache(str(tmp_path))
        src = os.path.join(CORPUS, "sigma2.std")
        c1 = Campaign(
            name="a",
            traces=[TraceSource(kind="file", name="first", path=src)],
            detectors=[DetectorSpec(name="spd_offline", id="old-id")],
            include_stats=False,
        )
        InlineRunner().run(c1, cache=cache)
        c2 = Campaign(
            name="b",
            traces=[TraceSource(kind="file", name="second", path=src)],
            detectors=[DetectorSpec(name="spd_offline", id="new-id")],
            include_stats=False,
        )
        r2 = InlineRunner().run(c2, cache=cache)
        assert r2.cache_hits == 1
        (cell,) = r2.results
        assert (cell.trace_name, cell.detector_id) == ("second", "new-id")
        assert r2.cell("second", "new-id") is cell

    def test_error_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        c = tiny_campaign(
            [DetectorSpec(name="_crash", config={"mode": "raise"})],
            include_stats=False,
        )
        r1 = InlineRunner().run(c, cache=cache)
        assert r1.results[0].status == "error"
        r2 = InlineRunner().run(c, cache=cache)
        assert r2.cache_hits == 0

    def test_journal_replay_backfills_a_cold_cache(self, tmp_path):
        """Resuming against a cold cache must not leave the
        replayed cells permanently missing from it: journal replays
        are written back (counted in RunResult and run.json), so the
        next run over that cache hits instead of re-executing."""
        from repro.exp.resilience import RunJournal

        def build():
            return tiny_campaign([DetectorSpec(name="spd_offline")])

        jpath = str(tmp_path / "journal.jsonl")
        with RunJournal(jpath) as j:
            j.start("t")
            first = InlineRunner().run(build(), journal=j)  # no cache
            j.finalize(cells=first.num_cells)

        cache = ResultCache(str(tmp_path / "cache"))
        state = RunJournal.load(jpath)
        second = InlineRunner().run(build(), cache=cache, resume=state)
        assert second.journal_replays == second.num_cells == 2
        assert second.cache_backfills == 2
        assert len(cache) == 2
        rec = run_to_json(second)
        assert rec["cache_backfills"] == 2
        # backfilled records look like fresh-execution records
        for task in build().cells():
            stored = cache.get(task.key())
            assert stored is not None
            assert not stored.get("cached") and not stored.get("replayed")

        third = InlineRunner().run(build(), cache=cache)
        assert third.cache_hits == 3 - 1     # stats + detector cells
        assert third.cache_hits == third.num_cells
        assert third.cache_backfills == 0
        # an idempotent resume doesn't re-backfill a warm cache
        fourth = InlineRunner().run(build(), cache=cache, resume=state)
        assert fourth.cache_backfills == 0


class TestCacheKeyPortability:
    """Cell and journal keys are content-addressed: the same trace
    bytes and campaign shape must produce identical keys whatever
    root the files live under — the property ``--resume`` from a
    moved checkout rests on."""

    def test_same_content_under_two_roots_shares_keys(self, tmp_path):
        import shutil

        from repro.exp.resilience import journal_key

        src = os.path.join(CORPUS, "sigma2.std")
        roots = []
        for fake in ("machine-a/home/alice/work",
                     "machine-b/scratch/nfs/bob"):
            root = tmp_path / fake
            root.mkdir(parents=True)
            shutil.copy(src, root / "trace.std")
            roots.append(str(root / "trace.std"))

        def cells(path):
            return Campaign(
                name="portable",
                traces=[TraceSource(kind="file", name="t", path=path)],
                detectors=[DetectorSpec(name="spd_offline",
                                        config={"max_size": 3})],
                include_stats=False,
            ).cells()

        (a,), (b,) = cells(roots[0]), cells(roots[1])
        assert a.trace.path != b.trace.path
        assert a.trace_digest == b.trace_digest
        assert a.key() == b.key()
        assert journal_key(a) == journal_key(b)

    def test_changed_content_changes_the_key(self, tmp_path):
        src = os.path.join(CORPUS, "sigma2.std")
        copy = tmp_path / "trace.std"
        with open(src, "rb") as fh:
            copy.write_bytes(fh.read() + b"\n")

        def cell(path):
            return Campaign(
                name="portable",
                traces=[TraceSource(kind="file", name="t", path=path)],
                detectors=[DetectorSpec(name="spd_offline")],
                include_stats=False,
            ).cells()[0]

        assert cell(src).key() != cell(str(copy)).key()


class TestCampaignSpec:
    def test_duplicate_trace_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate trace"):
            Campaign(name="x",
                     traces=[corpus_source("sigma2"), corpus_source("sigma2")],
                     detectors=[DetectorSpec(name="spd_offline")])

    def test_duplicate_detector_ids_rejected(self):
        with pytest.raises(CampaignError, match="duplicate detector"):
            tiny_campaign([DetectorSpec(name="windowed", config={"window": 10}),
                           DetectorSpec(name="windowed", config={"window": 20})])

    def test_same_detector_twice_with_ids(self):
        c = tiny_campaign([
            DetectorSpec(name="windowed", id="w10", config={"window": 10}),
            DetectorSpec(name="windowed", id="w20", config={"window": 20}),
        ])
        assert [t.detector.id for t in c.cells()] == ["stats", "w10", "w20"]

    def test_unknown_detector_fails_fast(self):
        with pytest.raises(CampaignError, match="unknown detector"):
            DetectorSpec(name="nope")

    def test_only_filter_and_cell_order(self):
        c = Campaign(
            name="x",
            traces=[corpus_source("sigma2"), corpus_source("picklock")],
            detectors=[DetectorSpec(name="spd_offline"),
                       DetectorSpec(name="spd_online", only=["sigma*"])],
        )
        cells = [(t.trace.name, t.detector.id) for t in c.cells()]
        assert cells == [
            ("sigma2", "stats"), ("sigma2", "spd_offline"),
            ("sigma2", "spd_online"),
            ("picklock", "stats"), ("picklock", "spd_offline"),
        ]
        assert [t.index for t in c.cells()] == [0, 1, 2, 3, 4]

    def test_nonpositive_timeouts_rejected(self):
        with pytest.raises(CampaignError, match="timeout must be positive"):
            DetectorSpec(name="spd_offline", timeout=0.0)
        with pytest.raises(CampaignError, match="default_timeout"):
            tiny_campaign([DetectorSpec(name="spd_offline")],
                          default_timeout=0.0)

    def test_stats_id_collision_suppresses_implicit_column(self):
        c = tiny_campaign([DetectorSpec(name="spd_offline", id="stats")])
        ids = [t.detector.id for t in c.cells()]
        assert ids == ["stats"]         # no doubled "stats" cell

    def test_random_source_roundtrips_through_run_json(self, tmp_path):
        """to_json emits 'params'; the campaign loader must read it
        back, not silently regenerate with defaults."""
        src = TraceSource(kind="random", name="r",
                          params={"num_events": 50, "seed": 3})
        c = Campaign(name="rt", traces=[src],
                     detectors=[DetectorSpec(name="spd_online")])
        spec = tmp_path / "rt.json"
        spec.write_text(json.dumps(c.to_json()))
        loaded = load_campaign(str(spec))
        assert loaded.traces[0].params == src.params
        assert loaded.traces[0].digest() == src.digest()

    def test_timeout_and_repeat_defaults_resolve(self):
        c = tiny_campaign(
            [DetectorSpec(name="spd_offline"),
             DetectorSpec(name="spd_online", timeout=5.0, repeats=3)],
            default_timeout=99.0, default_repeats=2, include_stats=False,
        )
        t_off, t_on = c.cells()
        assert (t_off.timeout, t_off.repeats) == (99.0, 2)
        assert (t_on.timeout, t_on.repeats) == (5.0, 3)


class TestCampaignFiles:
    TOML = """
name = "mini"
default_timeout = 30.0

[[traces]]
kind = "file"
glob = "corpus/sigma*.std"

[[detectors]]
name = "spd_offline"

[[detectors]]
name = "windowed"
config = {{ window = 500 }}
only = ["sigma2"]
"""

    def test_toml_with_glob(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        for n in ("sigma1", "sigma2"):
            src = os.path.join(CORPUS, f"{n}.std")
            with open(src) as fh:
                (tmp_path / "corpus" / f"{n}.std").write_text(fh.read())
        spec = tmp_path / "c.toml"
        spec.write_text(self.TOML.format())
        c = load_campaign(str(spec))
        assert c.name == "mini"
        assert [t.name for t in c.traces] == ["sigma1", "sigma2"]
        assert c.detectors[1].config == {"window": 500}
        cells = [(t.trace.name, t.detector.id) for t in c.cells()]
        assert ("sigma2", "windowed") in cells
        assert ("sigma1", "windowed") not in cells

    def test_json_form(self, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({
            "name": "j",
            "traces": [{"kind": "synth", "benchmark": "Picklock"}],
            "detectors": [{"name": "spd_offline"}],
        }))
        c = load_campaign(str(spec))
        assert c.traces[0].benchmark == "Picklock"

    def test_empty_glob_is_an_error(self, tmp_path):
        spec = tmp_path / "c.toml"
        spec.write_text('name = "x"\n[[traces]]\nglob = "nope/*.std"\n'
                        '[[detectors]]\nname = "spd_offline"\n')
        with pytest.raises(CampaignError, match="matched no traces"):
            load_campaign(str(spec))

    def test_shipped_example_loads(self):
        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "paper_tables.toml")
        c = load_campaign(path)
        assert len(c.traces) >= 14
        assert any(d.name == "spd_offline" for d in c.detectors)
        assert any(d.name == "windowed" for d in c.detectors)


class TestRunnerIsolation:
    def test_inline_timeout_via_alarm(self):
        c = tiny_campaign(
            [DetectorSpec(name="_sleep", config={"seconds": 30}, timeout=0.2),
             DetectorSpec(name="spd_offline")],
            include_stats=False,
        )
        t0 = time.monotonic()
        run = InlineRunner().run(c)
        assert time.monotonic() - t0 < 10
        assert [r.status for r in run.results] == ["timeout", "ok"]

    def test_process_timeout_kills_the_cell_only(self):
        c = tiny_campaign(
            [DetectorSpec(name="_sleep", config={"seconds": 30}, timeout=0.3),
             DetectorSpec(name="spd_offline")],
            include_stats=False,
        )
        t0 = time.monotonic()
        run = ProcessPoolRunner(jobs=2).run(c)
        assert time.monotonic() - t0 < 10
        assert [r.status for r in run.results] == ["timeout", "ok"]

    def test_process_crash_is_isolated(self):
        c = tiny_campaign(
            [DetectorSpec(name="_crash", config={"mode": "exit", "code": 139}),
             DetectorSpec(name="_crash", id="crash2", config={"mode": "raise"}),
             DetectorSpec(name="spd_offline")],
            include_stats=False,
        )
        run = ProcessPoolRunner(jobs=2).run(c)
        assert [r.status for r in run.results] == ["error", "error", "ok"]
        assert "exit code" in run.results[0].error
        assert "RuntimeError" in run.results[1].error

    def test_missing_trace_file_fails_fast(self):
        c = Campaign(
            name="x",
            traces=[TraceSource(kind="file", name="ghost", path="/nope.std")],
            detectors=[DetectorSpec(name="spd_offline")],
            include_stats=False,
        )
        # the digest pass reads every trace before any cell runs, so a
        # vanished file aborts the campaign up front, not mid-run
        with pytest.raises(OSError):
            c.cells()


class TestParallelSerialEquivalence:
    """The ISSUE's end-to-end smoke: 2 detectors × 3 corpus traces,
    ``-j 2``, cell-for-cell identical to the serial runner."""

    def test_process_pool_matches_inline(self):
        c = Campaign(
            name="smoke",
            traces=[corpus_source(n)
                    for n in ("sigma2", "picklock", "stringbuffer")],
            detectors=[DetectorSpec(name="spd_offline"),
                       DetectorSpec(name="spd_online")],
        )
        serial = InlineRunner().run(c)
        parallel = ProcessPoolRunner(jobs=2).run(c)
        assert serial.num_cells == parallel.num_cells == 9
        assert all(r.status == "ok" for r in parallel.results)
        assert ([r.comparable() for r in serial.results]
                == [r.comparable() for r in parallel.results])
        # and the run-record diff agrees
        assert diff_runs(run_to_json(serial), run_to_json(parallel)).clean


class TestReports:
    def _run(self):
        c = tiny_campaign([DetectorSpec(name="spd_offline"),
                           DetectorSpec(name="seqcheck")],
                          traces=("sigma2", "non_well_nested"))
        return run_to_json(InlineRunner().run(c))

    def test_markdown_tables(self):
        md = render_markdown(self._run())
        assert "## Table 1" in md and "## Table 2" in md
        assert "| Trace | N | T | V | L | A/R | Nest |" in md
        assert "| sigma2 | 20 | 4 | 3 | 3 | 7 | 2 |" in md
        # SeqCheck's designed failure on non-well-nested traces shows as F
        table2 = md.split("## Table 2")[1]
        row = next(l for l in table2.splitlines()
                   if l.startswith("| non_well_nested |"))
        assert "| F |" in row

    def test_diff_flags_verdict_changes(self):
        a = self._run()
        b = json.loads(json.dumps(a))
        assert diff_runs(a, b).clean
        for cell in b["cells"]:
            if cell["detector"] == "spd_offline" and cell["trace"] == "sigma2":
                cell["output"]["primary"] = 7
        d = diff_runs(a, b)
        assert not d.clean
        assert len(d.changes) == 1
        assert d.changes[0].kind == "changed"
        assert "sigma2" in d.changes[0].describe()

    def test_diff_ignores_timing(self):
        a = self._run()
        b = json.loads(json.dumps(a))
        for cell in b["cells"]:
            cell["elapsed"] = 123.456
            cell["times"] = [123.456]
            cell["cached"] = True
        assert diff_runs(a, b).clean

    def test_diff_tracks_matrix_shape(self):
        a = self._run()
        b = json.loads(json.dumps(a))
        b["cells"] = [c for c in b["cells"] if c["detector"] != "seqcheck"]
        d = diff_runs(a, b)
        kinds = {c.kind for c in d.changes}
        assert kinds == {"removed"}


class TestBenchCli:
    @pytest.fixture
    def campaign_file(self, tmp_path):
        spec = tmp_path / "mini.toml"
        spec.write_text(
            'name = "mini"\n'
            '[[traces]]\n'
            f'glob = "{CORPUS}/sigma*.std"\n'
            '[[detectors]]\n'
            'name = "spd_offline"\n'
            '[[detectors]]\n'
            'name = "spd_online"\n'
        )
        return str(spec)

    def test_run_report_diff_roundtrip(self, campaign_file, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "out")
        assert main(["bench", "run", "--campaign", campaign_file,
                     "-j", "2", "--out", out, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert "Table 2" in first and "sigma2" in first
        with open(os.path.join(out, "run.json")) as fh:
            record = json.load(fh)
        assert record["cache_hits"] == 0

        # second run: everything served from the cache
        assert main(["bench", "run", "--campaign", campaign_file,
                     "-j", "2", "--out", out, "--quiet"]) == 0
        capsys.readouterr()
        with open(os.path.join(out, "run.json")) as fh:
            record2 = json.load(fh)
        assert record2["cache_hits"] == record2["num_cells"]

        # report re-renders, diff of the two runs is clean (exit 0)
        run_path = os.path.join(out, "run.json")
        assert main(["bench", "report", run_path]) == 0
        assert "Table 1" in capsys.readouterr().out
        other = str(tmp_path / "other.json")
        with open(other, "w") as fh:
            json.dump(record, fh)
        assert main(["bench", "diff", other, run_path]) == 0
        assert "No verdict changes" in capsys.readouterr().out

    def test_bad_campaign_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "bad.toml"
        spec.write_text('name = "bad"\n')
        assert main(["bench", "run", "--campaign", str(spec)]) == 2
        assert "bad campaign" in capsys.readouterr().err

    def test_malformed_campaign_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        toml = tmp_path / "broken.toml"
        toml.write_text("name = [broken\n")
        assert main(["bench", "run", "--campaign", str(toml)]) == 2
        assert "invalid TOML" in capsys.readouterr().err
        js = tmp_path / "broken.json"
        js.write_text('{"name": ')
        assert main(["bench", "run", "--campaign", str(js)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
