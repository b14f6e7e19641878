"""The fault-tolerance layer (:mod:`repro.exp.resilience` +
:mod:`repro.faults`): retry policy semantics, the crash-safe run
journal, resume, quarantine, hardened cache ingestion, the unenforced
-timeout satellite, and the CLI exit-code contract."""

import gzip
import json
import os
import subprocess
import sys
import threading

import pytest

import repro.faults as faults
from repro.exp.cache import ResultCache, validate_record
from repro.exp.campaign import Campaign, CampaignError, DetectorSpec, TraceSource
from repro.exp.resilience import (
    JOURNAL_NAME,
    NO_RETRY,
    RetryPolicy,
    RunJournal,
    journal_key,
    locate_journal,
)
from repro.exp.report import render_markdown, run_to_json
from repro.exp.runner import CellResult, InlineRunner, ProcessPoolRunner

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def corpus_source(name: str) -> TraceSource:
    return TraceSource(kind="file", name=name,
                       path=os.path.join(CORPUS, f"{name}.std"))


def tiny_campaign(detectors, traces=("sigma2",), **kwargs) -> Campaign:
    return Campaign(
        name="t",
        traces=[corpus_source(n) for n in traces],
        detectors=detectors,
        include_stats=kwargs.pop("include_stats", False),
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    # plain os.environ pops, NOT monkeypatch: a monkeypatch.delenv here
    # would record any leaked value and faithfully restore the leak on
    # teardown, re-arming stale fault specs for unrelated later tests
    os.environ.pop(faults.ENV_VAR, None)
    yield
    os.environ.pop(faults.ENV_VAR, None)


# -- RetryPolicy --------------------------------------------------------


class TestRetryPolicy:
    def test_default_never_retries(self):
        assert NO_RETRY.max_attempts == 1
        for status in ("ok", "error", "timeout", "fault"):
            assert not NO_RETRY.should_retry(status, 1)
            assert not NO_RETRY.exhausted(status, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_on=("crash", "cosmic_ray"))

    def test_retry_and_exhaustion_semantics(self):
        p = RetryPolicy(max_attempts=3, retry_on=("crash",))
        assert p.should_retry("error", 1) and p.should_retry("error", 2)
        assert not p.should_retry("error", 3)       # budget spent
        assert not p.should_retry("timeout", 1)     # class not enrolled
        assert not p.should_retry("ok", 1)
        assert p.exhausted("error", 3)
        assert not p.exhausted("error", 2)
        assert not p.exhausted("timeout", 3)
        assert not p.exhausted("ok", 3)

    def test_backoff_is_deterministic_and_exponential(self):
        p = RetryPolicy(max_attempts=5, backoff=0.1, backoff_factor=2.0,
                        jitter=0.1, seed=7)
        d1, d2 = p.delay_for("k", 1), p.delay_for("k", 2)
        assert d1 == p.delay_for("k", 1)            # seeded, replayable
        assert d2 > d1                              # grows
        assert p.delay_for("other", 1) != d1        # jitter is per-key
        assert abs(d1 - 0.1) <= 0.1 * 0.1 + 1e-9    # within jitter band

    def test_backoff_ceiling(self):
        p = RetryPolicy(max_attempts=10, backoff=1.0, backoff_factor=10.0,
                        max_backoff=2.0, jitter=0.0)
        assert p.delay_for("k", 5) == 2.0

    def test_from_json_layering(self):
        base = RetryPolicy.from_json({"max_attempts": 3, "backoff": 0.2})
        layered = RetryPolicy.from_json({"retry_on": ["timeout"]}, base=base)
        assert layered.max_attempts == 3            # inherited
        assert layered.backoff == 0.2               # inherited
        assert layered.retry_on == ("timeout",)     # overridden
        with pytest.raises(ValueError):
            RetryPolicy.from_json({"max_attempts": 3, "bogus_knob": 1})


# -- fault injection framework ------------------------------------------


class TestFaults:
    def test_spec_validation(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_specs("not json")
        with pytest.raises(faults.FaultSpecError):
            faults.parse_specs('{"point": "cell"}')      # not a list
        with pytest.raises(faults.FaultSpecError):
            faults.parse_specs('[{"action": "raise"}]')  # missing point
        with pytest.raises(faults.FaultSpecError):
            faults.parse_specs('[{"point": "cell", "action": "warp"}]')
        # a misspelled point would otherwise parse and never fire
        with pytest.raises(faults.FaultSpecError, match="unknown point"):
            faults.parse_specs('[{"point": "cel", "action": "crash"}]')
        # points and actions that nothing fires are rejected too
        with pytest.raises(faults.FaultSpecError, match="unknown point"):
            faults.parse_specs('[{"point": "queue_lease", "action": "crash"}]')
        with pytest.raises(faults.FaultSpecError, match="unknown action"):
            faults.parse_specs('[{"point": "journal_write", "action": "dup"}]')

    def test_fire_matches_point_when_and_count(self):
        faults.install([{"point": "cell", "action": "raise",
                         "when": {"index": 3}, "count": 2}])
        faults.fire("cell", index=1)                 # when mismatch: no-op
        faults.fire("std_read", index=3)             # point mismatch: no-op
        with pytest.raises(faults.InjectedFault):
            faults.fire("cell", index=3)
        with pytest.raises(faults.InjectedFault):
            faults.fire("cell", index=3)
        faults.fire("cell", index=3)                 # count exhausted
        faults.clear()
        faults.fire("cell", index=3)                 # deactivated

    def test_torn_spec_only_matches_torn_writers(self):
        faults.install([{"point": "cell", "action": "torn"}])
        try:
            # a torn spec reached through fire() at a non-tearing point
            # is a loud error, not a silent no-op
            with pytest.raises(faults.InjectedFault):
                faults.fire("cell", index=0)
        finally:
            faults.clear()
        assert faults.ENV_VAR not in os.environ

    def test_flip_byte_is_deterministic(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(bytes(range(64)))
        off1 = faults.flip_byte(str(p), seed=42)
        data = p.read_bytes()
        assert data[off1] == (off1 ^ 0xFF)
        faults.flip_byte(str(p), seed=42)            # same offset: undoes
        assert p.read_bytes() == bytes(range(64))

    def test_truncate_file_is_proper_prefix(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"x" * 100)
        kept = faults.truncate_file(str(p), seed=3)
        assert 1 <= kept < 100
        assert p.read_bytes() == b"x" * kept


# -- run journal --------------------------------------------------------


class TestRunJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with RunJournal(path) as j:
            j.start("camp")
            j.record_attempt("k1", 1, "error", "boom")
            j.record_attempt("k1", 2, "ok")
            j.record_cell("k1", {"status": "ok", "output": {"primary": 1}})
            j.record_cell("k2", {"status": "error", "error": "died"})
            j.finalize(cells=2)
        state = RunJournal.load(path)
        assert state.meta["campaign"] == "camp"
        assert state.finalized
        assert state.attempts == {"k1": 2}
        assert state.replayable("k1") == {"status": "ok",
                                          "output": {"primary": 1}}
        # errors are never replayed — they re-run on resume
        assert state.replayable("k2") is None
        assert state.replayable("missing") is None

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        with RunJournal(path) as j:
            j.start("camp")
            j.record_cell("k1", {"status": "ok"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "cell", "key": "k2", "resu')   # crash mid-write
        state = RunJournal.load(path)
        assert state.replayable("k1") is not None
        assert state.torn_lines == 1
        assert not state.finalized                 # no end record

    def test_injected_torn_write(self, tmp_path, monkeypatch):
        """The 'torn' fault action exits mid-append; the loader keeps
        every record fsync'd before the tear."""
        path = str(tmp_path / JOURNAL_NAME)
        script = (
            "import repro.faults, sys\n"
            "from repro.exp.resilience import RunJournal\n"
            "j = RunJournal(sys.argv[1])\n"
            "j.start('camp')\n"
            "j.record_cell('k1', {'status': 'ok'})\n"
            "j.record_cell('k2', {'status': 'ok'})\n"   # torn: process exits
            "j.finalize(cells=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, REPRO_FAULTS=json.dumps(
            [{"point": "journal_write", "action": "torn",
              "when": {"key": "k2"}, "keep": 10, "exit_code": 23}]))
        proc = subprocess.run([sys.executable, "-c", script, path], env=env)
        assert proc.returncode == 23
        state = RunJournal.load(path)
        assert state.replayable("k1") is not None    # pre-tear fsync held
        assert state.replayable("k2") is None
        assert state.torn_lines == 1
        assert not state.finalized

    def test_locate_journal(self, tmp_path):
        assert locate_journal(str(tmp_path)) == str(tmp_path / JOURNAL_NAME)
        f = str(tmp_path / "x.jsonl")
        assert locate_journal(f) == f


# -- retry / quarantine through the runners -----------------------------


class TestRetryAndQuarantine:
    def test_no_policy_keeps_classic_statuses(self):
        c = tiny_campaign([DetectorSpec(name="_crash",
                                        config={"mode": "raise"})])
        run = InlineRunner().run(c)
        assert [r.status for r in run.results] == ["error"]

    def test_transient_fault_retried_to_ok(self, monkeypatch):
        c = tiny_campaign(
            [DetectorSpec(name="spd_offline")],
            retry={"max_attempts": 2, "backoff": 0.01},
        )
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "raise",
              "when": {"index": 0, "attempt": 1}}]))
        run = InlineRunner().run(c)
        res = run.results[0]
        assert res.status == "ok"
        assert [a["status"] for a in res.attempts] == ["fault", "ok"]
        # identical verdict to an undisturbed run
        monkeypatch.delenv(faults.ENV_VAR)
        clean = InlineRunner().run(tiny_campaign([DetectorSpec(name="spd_offline")]))
        assert res.comparable() == clean.results[0].comparable()

    def test_exhausted_retries_quarantine_with_timeline(self):
        c = tiny_campaign(
            [DetectorSpec(name="_crash", config={"mode": "raise"})],
            retry={"max_attempts": 3, "backoff": 0.0, "jitter": 0.0},
        )
        run = InlineRunner().run(c)
        res = run.results[0]
        assert res.status == "quarantined"
        assert res.output is None
        assert "quarantined after 3 failed attempt(s)" in res.error
        assert [a["attempt"] for a in res.attempts] == [1, 2, 3]
        assert all(a["status"] == "error" for a in res.attempts)
        assert run.counts()["quarantined"] == 1
        # quarantined cells are never cached (they re-run like errors)
        rec = res.to_json()
        assert rec["status"] == "quarantined"
        assert len(rec["attempts"]) == 3

    def test_detector_policy_overrides_campaign(self):
        c = tiny_campaign(
            [DetectorSpec(name="_crash", config={"mode": "raise"},
                          retry={"max_attempts": 1})],
            retry={"max_attempts": 3, "backoff": 0.0},
        )
        run = InlineRunner().run(c)
        # the detector opted back down to one attempt: classic error
        assert [r.status for r in run.results] == ["error"]

    def test_pool_worker_crash_quarantined_with_stderr_tail(self):
        c = tiny_campaign(
            [DetectorSpec(name="_crash", config={"mode": "exit"})],
            retry={"max_attempts": 2, "backoff": 0.0, "jitter": 0.0},
        )
        run = ProcessPoolRunner(jobs=2).run(c)
        res = run.results[0]
        assert res.status == "quarantined"
        assert "exit code 139" in res.error
        assert len(res.attempts) == 2
        # the worker's last words were captured per attempt
        assert any("about to _exit" in a.get("stderr_tail", "")
                   for a in res.attempts)

    def test_quarantined_is_distinct_in_tables(self):
        c = tiny_campaign(
            [DetectorSpec(name="spd_offline"),
             DetectorSpec(name="_crash", config={"mode": "raise"})],
            retry={"max_attempts": 2, "backoff": 0.0},
            include_stats=True,
        )
        run = InlineRunner().run(c)
        md = render_markdown(run_to_json(run))
        table2 = md.split("## Table 2")[1]
        row = next(l for l in table2.splitlines() if l.startswith("| sigma2 |"))
        assert "QUAR" in row                       # distinct marker
        assert "quarantined" in md.split("\n")[3]  # status line counts it

    def test_bad_retry_spec_is_a_campaign_error(self):
        with pytest.raises(CampaignError):
            tiny_campaign([DetectorSpec(name="spd_offline")],
                          retry={"max_attempts": 0})
        with pytest.raises(CampaignError):
            DetectorSpec(name="spd_offline", retry={"bogus": 1})


# -- journal + resume through the runners -------------------------------


class TestJournalResume:
    def _campaign(self):
        return tiny_campaign([DetectorSpec(name="spd_offline"),
                              DetectorSpec(name="spd_online")],
                             traces=("sigma2", "non_well_nested"))

    def test_run_journals_every_cell(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        c = self._campaign()
        with RunJournal(path) as j:
            j.start(c.name)
            run = InlineRunner().run(c, journal=j)
            j.finalize(cells=run.num_cells)
        state = RunJournal.load(path)
        assert state.finalized
        assert len(state.cells) == run.num_cells
        assert sum(state.attempts.values()) == run.num_cells

    def test_resume_replays_and_skips_execution(self, tmp_path):
        path = str(tmp_path / JOURNAL_NAME)
        c = self._campaign()
        with RunJournal(path) as j:
            j.start(c.name)
            first = InlineRunner().run(c, journal=j)
            j.finalize(cells=first.num_cells)
        resume = RunJournal.load(path)
        second = InlineRunner().run(c, resume=resume)
        assert second.journal_replays == first.num_cells
        assert all(r.replayed for r in second.results)
        assert ([r.comparable() for r in second.results]
                == [r.comparable() for r in first.results])

    def test_resume_survives_code_version_change(self, tmp_path, monkeypatch):
        """The journal replays even when the cache would go cold: its
        keys deliberately exclude the detector code version."""
        from repro.exp import cache as cache_mod

        path = str(tmp_path / JOURNAL_NAME)
        c = tiny_campaign([DetectorSpec(name="spd_offline")])
        with RunJournal(path) as j:
            j.start(c.name)
            InlineRunner().run(c, journal=j)
            j.finalize(cells=1)
        monkeypatch.setattr(cache_mod, "_DETECTOR_VERSIONS",
                            {"spd_offline": "deadbeef00000000"})
        resume = RunJournal.load(path)
        run = InlineRunner().run(c, resume=resume)
        assert run.journal_replays == 1

    def test_journal_key_excludes_code_version(self):
        c = tiny_campaign([DetectorSpec(name="spd_offline")])
        task = c.cells()[0]
        assert journal_key(task) != task.key()


# -- hardened cache ingestion -------------------------------------------


class TestCacheHardening:
    def _entry_path(self, cache, key):
        return cache._path(key)

    def test_schema_invalid_record_is_a_miss_and_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ab" * 32
        cache.put(key, {"status": "ok", "output": {"primary": 1}})
        path = self._entry_path(cache, key)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"output": {"primary": 1}}, fh)   # status lost
        assert cache.get(key) is None
        assert not os.path.exists(path)                 # pruned on read

    def test_wrong_types_are_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "cd" * 32
        cache.put(key, {"status": "ok"})
        path = self._entry_path(cache, key)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"status": 42}, fh)
        assert cache.get(key) is None

    def test_validate_record(self):
        assert validate_record({"status": "ok"})
        assert validate_record({"status": "ok", "output": None, "times": []})
        assert not validate_record([])
        assert not validate_record({"status": 1})
        assert not validate_record({"status": "ok", "times": "fast"})
        assert not validate_record({"status": "ok", "config": "x"})

    def test_verify_scans_and_prunes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("ab" * 32, {"status": "ok"})
        cache.put("cd" * 32, {"status": "timeout"})
        bad = self._entry_path(cache, "ef" * 32)
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "w") as fh:
            fh.write('{"status": "ok"')                 # torn JSON
        stats = cache.verify(prune=False)
        assert stats == {"scanned": 3, "ok": 2, "corrupt": 1, "pruned": 0}
        assert os.path.exists(bad)
        stats = cache.verify()
        assert stats["pruned"] == 1
        assert not os.path.exists(bad)
        assert len(cache) == 2


# -- hardened trace ingestion -------------------------------------------


class TestTraceIngestion:
    def _gz(self, tmp_path):
        src = os.path.join(CORPUS, "sigma2.std")
        dst = str(tmp_path / "sigma2.std.gz")
        with open(src, "rb") as fh, gzip.open(dst, "wb") as out:
            out.write(fh.read())
        return dst

    def test_truncated_gz_is_a_typed_error(self, tmp_path):
        from repro.trace.compiled import TraceReadError, load_compiled_trace

        dst = self._gz(tmp_path)
        faults.truncate_file(dst, keep=os.path.getsize(dst) // 2)
        with pytest.raises(TraceReadError) as exc:
            load_compiled_trace(dst)
        assert exc.value.path == dst
        assert exc.value.byte_offset is not None
        assert exc.value.events_parsed is not None

    def test_bitflipped_gz_is_a_typed_error(self, tmp_path):
        from repro.trace.compiled import TraceReadError, load_compiled_trace

        dst = self._gz(tmp_path)
        faults.flip_byte(dst, offset=os.path.getsize(dst) - 5)  # in the CRC
        with pytest.raises(TraceReadError):
            load_compiled_trace(dst)

    def test_missing_file_stays_file_not_found(self):
        from repro.trace.compiled import load_compiled_trace

        with pytest.raises(FileNotFoundError):
            load_compiled_trace("/nonexistent/trace.std")

    def test_string_loader_is_hardened_too(self, tmp_path):
        """`load_trace` (the `analyze` CLI's batch path) raises the
        same typed error as the compiled loader."""
        from repro.trace.compiled import TraceReadError
        from repro.trace.parser import load_trace

        dst = self._gz(tmp_path)
        faults.truncate_file(dst, keep=os.path.getsize(dst) // 2)
        with pytest.raises(TraceReadError):
            load_trace(dst)
        notgz = str(tmp_path / "bad.std.gz")
        with open(notgz, "wb") as fh:
            fh.write(b"not gzip at all")
        with pytest.raises(TraceReadError):
            load_trace(notgz)
        with pytest.raises(TraceReadError):
            load_trace(str(tmp_path))          # a directory
        with pytest.raises(FileNotFoundError):
            load_trace(str(tmp_path / "missing.std"))

    def test_stream_session_feed_file_is_hardened_too(self, tmp_path):
        """`StreamSession.feed_file` (`analyze --stream`) raises the
        typed error with offset/event diagnostics mid-stream."""
        from repro.stream import StreamSession
        from repro.trace.compiled import TraceReadError

        dst = self._gz(tmp_path)
        faults.truncate_file(dst, keep=os.path.getsize(dst) // 2)
        session = StreamSession(name="t")
        with pytest.raises(TraceReadError) as exc:
            session.feed_file(dst)
        assert exc.value.path == dst
        assert exc.value.byte_offset is not None
        with pytest.raises(FileNotFoundError):
            StreamSession(name="t2").feed_file(str(tmp_path / "missing.std"))

    def test_corrupt_trace_degrades_campaign_cell(self, tmp_path):
        """A cell whose trace is unreadable records a typed error and
        the rest of the campaign completes."""
        dst = self._gz(tmp_path)
        faults.truncate_file(dst, keep=os.path.getsize(dst) // 2)
        c = Campaign(
            name="t",
            traces=[TraceSource(kind="file", name="bad", path=dst),
                    corpus_source("sigma2")],
            detectors=[DetectorSpec(name="spd_offline")],
            include_stats=False,
        )
        run = InlineRunner().run(c)
        by_name = {r.trace_name: r for r in run.results}
        assert by_name["bad"].status == "error"
        assert "unreadable trace" in by_name["bad"].error
        assert by_name["sigma2"].status == "ok"


# -- unenforced-timeout satellite ---------------------------------------


class TestUnenforcedTimeouts:
    def test_off_main_thread_flags_and_warns_once(self):
        c = tiny_campaign([DetectorSpec(name="spd_offline", timeout=30.0)])
        InlineRunner._warned_unenforced = False
        out = {}
        warned = []

        def worker():
            import warnings

            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out["run"] = InlineRunner().run(c)
                out["run2"] = InlineRunner().run(c)
                warned.extend(w for w in caught
                              if issubclass(w.category, RuntimeWarning))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        res = out["run"].results[0]
        assert res.status == "ok"
        assert res.timeout_enforced is False
        assert res.to_json()["timeout_enforced"] is False
        assert len(warned) == 1                    # one-time, not per cell

    def test_main_thread_records_enforced(self):
        c = tiny_campaign([DetectorSpec(name="spd_offline", timeout=30.0)])
        res = InlineRunner().run(c).results[0]
        assert res.timeout_enforced is True
        assert "timeout_enforced" not in res.to_json()   # default elided


# -- CLI exit-code contract (subprocess) --------------------------------


def _repro(args, tmp_path=None, env_extra=None, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(faults.ENV_VAR, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        capture_output=True, text=True, env=env,
        cwd=str(tmp_path) if tmp_path else None, timeout=timeout,
    )


class TestCLIExitCodes:
    def test_ok_is_zero(self, tmp_path):
        trace = tmp_path / "clean.std"
        trace.write_text("t1|acq(l)\nt1|rel(l)\n")
        proc = _repro(["analyze", str(trace)])
        assert proc.returncode == 0

    def test_findings_are_one(self, tmp_path):
        proc = _repro(["analyze", os.path.join(CORPUS, "sigma2.std")])
        assert proc.returncode == 1

    def test_usage_errors_are_two(self, tmp_path):
        assert _repro(["analyze"]).returncode == 2            # argparse
        proc = _repro(["analyze", "/nonexistent/trace.std"])  # missing file
        assert proc.returncode == 2
        assert len(proc.stderr.strip().splitlines()) == 1     # single line
        assert "REPRO_DEBUG" in proc.stderr
        bad = tmp_path / "bad.std"
        bad.write_text("not a trace\n")
        assert _repro(["analyze", str(bad)]).returncode == 2  # parse error

    def test_internal_errors_are_three(self, tmp_path):
        camp = tmp_path / "c.toml"
        camp.write_text(
            'name = "c"\ninclude_stats = false\n'
            '[[traces]]\nkind = "synth"\nbenchmark = "Picklock"\n'
            '[[detectors]]\nname = "_crash"\nconfig = { mode = "raise" }\n'
        )
        proc = _repro(["bench", "run", "--campaign", str(camp),
                       "--out", str(tmp_path / "out"), "--quiet",
                       "--no-cache"])
        assert proc.returncode == 3                 # crashed cell

    def test_quarantined_cells_are_three(self, tmp_path):
        camp = tmp_path / "c.toml"
        camp.write_text(
            'name = "c"\ninclude_stats = false\n'
            '[retry]\nmax_attempts = 2\nbackoff = 0.0\njitter = 0.0\n'
            '[[traces]]\nkind = "synth"\nbenchmark = "Picklock"\n'
            '[[detectors]]\nname = "_crash"\nconfig = { mode = "raise" }\n'
        )
        proc = _repro(["bench", "run", "--campaign", str(camp),
                       "--out", str(tmp_path / "out"), "--quiet",
                       "--no-cache"])
        assert proc.returncode == 3
        record = json.load(open(tmp_path / "out" / "run.json"))
        assert record["status_counts"]["quarantined"] == 1

    def test_cache_verify_findings_are_one(self, tmp_path):
        out = tmp_path / "out"
        cache = ResultCache(str(out / "cache"))
        cache.put("ab" * 32, {"status": "ok"})
        bad = cache._path("cd" * 32)
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "w") as fh:
            fh.write("garbage")
        proc = _repro(["bench", "cache", str(out), "--verify"])
        assert proc.returncode == 1
        assert "1 corrupt" in proc.stdout
        proc = _repro(["bench", "cache", str(out), "--verify"])
        assert proc.returncode == 0                 # pruned on first pass

    def test_debug_env_reraises(self, tmp_path):
        proc = _repro(["analyze", "/nonexistent/trace.std"],
                      env_extra={"REPRO_DEBUG": "1"})
        assert proc.returncode != 2                 # traceback escape
        assert "Traceback" in proc.stderr
