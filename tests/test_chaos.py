"""Chaos suite: every recovery path, proven bit-identical.

For each fault class the resilience layer claims to survive — worker
crash mid-cell, stalled cell past its timeout, corrupt cache entry,
unreadable trace chunk, SIGINT mid-run — a deterministic seeded injection (:mod:`repro.faults`) is
fired into a campaign and the final results are asserted **equal to an
undisturbed baseline run** via :meth:`CellResult.comparable`.  The
SIGINT + ``--resume`` path runs the real CLI in subprocesses and
asserts, via journal attempt counts, that resume re-executes only the
cells the interrupt dropped.
"""

import gzip
import json
import os
import subprocess
import sys

import pytest

import repro.faults as faults
from repro.exp.cache import ResultCache
from repro.exp.campaign import Campaign, DetectorSpec, TraceSource
from repro.exp.resilience import JOURNAL_NAME, RunJournal
from repro.exp.runner import InlineRunner, ProcessPoolRunner

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def corpus_source(name: str) -> TraceSource:
    return TraceSource(kind="file", name=name,
                       path=os.path.join(CORPUS, f"{name}.std"))


def campaign(detectors, traces=("sigma2", "non_well_nested"), **kwargs):
    return Campaign(
        name="chaos",
        traces=[corpus_source(n) for n in traces],
        detectors=detectors,
        include_stats=kwargs.pop("include_stats", False),
        **kwargs,
    )


def comparable(run):
    return [r.comparable() for r in run.results]


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    # plain os.environ pops, NOT monkeypatch: a monkeypatch.delenv here
    # would record any leaked value and faithfully restore the leak on
    # teardown, re-arming stale fault specs for unrelated later tests
    os.environ.pop(faults.ENV_VAR, None)
    yield
    os.environ.pop(faults.ENV_VAR, None)


RETRY = {"max_attempts": 2, "backoff": 0.01, "jitter": 0.0}


class TestChaosBitIdentity:
    """One seeded injection per fault class; recovery must reproduce
    the undisturbed run bit for bit."""

    def test_worker_crash_mid_cell(self, monkeypatch):
        def build():
            return campaign([DetectorSpec(name="spd_offline")], retry=RETRY)

        baseline = ProcessPoolRunner(jobs=2).run(build())
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "crash",
              "when": {"index": 1, "attempt": 1}}]))
        injected = ProcessPoolRunner(jobs=2).run(build())
        assert comparable(injected) == comparable(baseline)
        hit = injected.results[1]
        assert [a["status"] for a in hit.attempts] == ["error", "ok"]
        assert "exit code 139" in hit.attempts[0]["error"]

    def test_stall_past_timeout_inline(self, monkeypatch):
        def build():
            return campaign(
                [DetectorSpec(name="spd_offline", timeout=0.5)],
                retry=dict(RETRY, retry_on=["timeout"]),
            )

        baseline = InlineRunner().run(build())
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "stall", "delay": 30.0,
              "when": {"index": 0, "attempt": 1}}]))
        injected = InlineRunner().run(build())
        assert comparable(injected) == comparable(baseline)
        assert ([a["status"] for a in injected.results[0].attempts]
                == ["timeout", "ok"])

    def test_stall_past_timeout_pool(self, monkeypatch):
        def build():
            return campaign(
                [DetectorSpec(name="spd_offline", timeout=0.3)],
                traces=("sigma2",),
                retry=dict(RETRY, retry_on=["timeout"]),
            )

        baseline = ProcessPoolRunner(jobs=2).run(build())
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "stall", "delay": 30.0,
              "when": {"index": 0, "attempt": 1}}]))
        injected = ProcessPoolRunner(jobs=2).run(build())
        assert comparable(injected) == comparable(baseline)
        assert ([a["status"] for a in injected.results[0].attempts]
                == ["timeout", "ok"])

    def test_corrupt_cache_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        det = [DetectorSpec(name="spd_offline")]
        baseline = InlineRunner().run(campaign(det), cache=cache)
        entries = sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(cache.root) for f in fs
            if f.endswith(".json")
        )
        assert len(entries) == 2
        faults.truncate_file(entries[0], seed=7)
        second = InlineRunner().run(campaign(det), cache=cache)
        assert comparable(second) == comparable(baseline)
        assert second.cache_hits == 1            # the corrupt one recomputed
        # the recomputed result replaced the bad entry
        assert cache.verify() == {"scanned": 2, "ok": 2, "corrupt": 0,
                                  "pruned": 0}

    def test_transient_trace_read_fault(self, tmp_path, monkeypatch):
        src = os.path.join(CORPUS, "sigma2.std")
        dst = str(tmp_path / "sigma2.std.gz")
        with open(src, "rb") as fh, gzip.open(dst, "wb") as out:
            out.write(fh.read())

        def build():
            return Campaign(
                name="chaos",
                traces=[TraceSource(kind="file", name="gzt", path=dst)],
                detectors=[DetectorSpec(name="spd_offline")],
                include_stats=False,
                retry=dict(RETRY, retry_on=["fault", "crash"]),
            )

        baseline = InlineRunner().run(build())
        assert baseline.results[0].status == "ok"
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "std_read", "action": "raise",
              "when": {"path": dst}, "count": 1}]))
        injected = InlineRunner().run(build())
        assert comparable(injected) == comparable(baseline)
        assert ([a["status"] for a in injected.results[0].attempts]
                == ["fault", "ok"])

    def test_sigint_drain_and_resume_inline(self, tmp_path, monkeypatch):
        """SIGINT at cell 1: the run drains with only cell 0 journaled;
        resume replays it and executes the remaining three exactly once
        each (journal attempt counts prove it)."""
        def build():
            return campaign([DetectorSpec(name="spd_offline"),
                             DetectorSpec(name="spd_online")])

        baseline = InlineRunner().run(build())
        path = str(tmp_path / JOURNAL_NAME)
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "sigint",
              "when": {"index": 1, "attempt": 1}}]))
        with RunJournal(path) as j:
            j.start("chaos")
            first = InlineRunner().run(build(), journal=j)
            j.finalize(cells=first.num_cells, interrupted=first.interrupted)
        assert first.interrupted
        assert first.num_cells == 1              # only cell 0 completed
        monkeypatch.delenv(faults.ENV_VAR)

        state = RunJournal.load(path)
        assert len(state.cells) == 1
        with RunJournal(path) as j:              # append to the same journal
            j.start("chaos", resumed=True)
            second = InlineRunner().run(build(), journal=j, resume=state)
            j.finalize(cells=second.num_cells)
        assert not second.interrupted
        assert second.journal_replays == 1
        assert second.num_cells == 4
        assert comparable(second) == comparable(baseline)
        final = RunJournal.load(path)
        assert sum(final.attempts.values()) == 4
        assert all(n == 1 for n in final.attempts.values())


    def test_worker_crash_with_telemetry_enabled(self, tmp_path,
                                                 monkeypatch):
        """Telemetry must not perturb recovery: an obs-enabled fault run
        stays bit-identical to the undisturbed baseline, and the span
        log stays well-formed — the crashed attempt loses only its own
        telemetry (crash isolation), never corrupting the parent log."""
        from repro import obs
        from repro.obs.export import load_records

        def build():
            return campaign([DetectorSpec(name="spd_offline")], retry=RETRY)

        baseline = ProcessPoolRunner(jobs=2).run(build())
        obs_dir = str(tmp_path / "obs")
        monkeypatch.setenv(obs.ENV_VAR, obs_dir)
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "crash",
              "when": {"index": 1, "attempt": 1}}]))
        obs.maybe_enable_from_env()
        try:
            injected = ProcessPoolRunner(jobs=2).run(build())
            obs.finish()
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            os.environ.pop(obs.ENV_VAR, None)

        assert comparable(injected) == comparable(baseline)
        hit = injected.results[1]
        assert [a["status"] for a in hit.attempts] == ["error", "ok"]
        assert counters["pool.worker_crashes"] == 1
        assert counters["runner.retries"] == 1

        records = load_records(obs_dir)
        spans = [r for r in records if r.get("k") == "span"]
        assert spans, "obs-enabled run produced no spans"
        for s in spans:
            assert s["dur"] >= 0 and s["ts"] > 0
            assert s["path"].split("/")[-1] == s["name"]
        # the surviving attempts' cell spans all made it; the crashed
        # attempt contributes nothing (its worker died holding them)
        cells = [s for s in spans if s["name"] == "cell"]
        assert len(cells) == len(baseline.results)
        # queue-wait/exec bookkeeping covers every attempt that ran to
        # completion, crash included via its error-status exec span
        execs = [s for s in spans if s["name"] == "pool.exec"]
        assert len(execs) == 3                   # ok, crash, retry-ok

    def test_fault_counts_are_per_cell_attempt(self, monkeypatch):
        """A pool worker runs many cells, yet a spec's ``count`` stays
        per cell attempt: a once-only ``raise`` keyed on the detector
        alone fails every spd_offline attempt, so each such cell ends
        quarantined, while fasttrack cells in the same workers pass."""
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(
            [{"point": "cell", "action": "raise",
              "when": {"detector": "spd_offline"}}]))
        run = ProcessPoolRunner(jobs=2).run(campaign(
            [DetectorSpec(name="spd_offline"), DetectorSpec(name="fasttrack")],
            traces=("sigma2", "non_well_nested", "picklock"),
            retry={"max_attempts": 2, "retry_on": ["fault"],
                   "backoff": 0.0, "jitter": 0.0}))
        assert len(run.results) == 6
        for r in run.results:
            if r.detector_id == "spd_offline":
                assert r.status == "quarantined", r.trace_name
                assert [a["status"] for a in r.attempts] == ["fault", "fault"]
            else:
                assert r.status == "ok", r.trace_name

    @pytest.mark.fuzz
    def test_fuzz_seeded_fault_sweep(self, monkeypatch):
        """Nightly-style sweep: REPRO_FUZZ_ITERS seeded injections
        rotating through the fault classes (injected raise, worker
        crash, stall-past-timeout), every recovery bit-identical."""
        raw = os.environ.get("REPRO_FUZZ_ITERS", "0")
        iters = int(raw) if raw.isdigit() else 0
        if iters <= 0:
            pytest.skip("set REPRO_FUZZ_ITERS to a positive integer "
                        "to run the seeded fault sweep")
        for seed in range(iters):
            params = dict(
                num_threads=2 + seed % 4,
                num_locks=2 + (seed * 7) % 5,
                num_vars=1 + seed % 3,
                num_events=40 + (seed * 13) % 120,
                max_nesting=1 + seed % 3,
                seed=seed,
            )
            action = ("raise", "crash", "stall")[seed % 3]

            def build():
                return Campaign(
                    name="fuzz",
                    traces=[TraceSource(kind="random", name=f"r{seed}",
                                        params=dict(params))],
                    detectors=[DetectorSpec(
                        name="spd_offline",
                        timeout=0.5 if action == "stall" else 30.0)],
                    include_stats=False,
                    retry={"max_attempts": 2, "backoff": 0.0, "jitter": 0.0},
                )

            runner = (ProcessPoolRunner(jobs=2) if action == "crash"
                      else InlineRunner())
            monkeypatch.delenv(faults.ENV_VAR, raising=False)
            baseline = runner.run(build())
            spec = {"point": "cell", "action": action,
                    "when": {"index": 0, "attempt": 1}}
            if action == "stall":
                spec["delay"] = 30.0
            monkeypatch.setenv(faults.ENV_VAR, json.dumps([spec]))
            injected = runner.run(build())
            assert comparable(injected) == comparable(baseline), (
                f"seed={seed} action={action}")
            assert len(injected.results[0].attempts) == 2, (
                f"seed={seed} action={action}: fault never fired")


# -- SIGINT mid-run + --resume through the real CLI ---------------------


def _repro(args, env_extra=None, timeout=180):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(faults.ENV_VAR, None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "repro"] + args,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


CAMPAIGN_TOML = """\
name = "chaos-cli"
include_stats = false

[[traces]]
kind = "synth"
benchmark = "Account"

[[traces]]
kind = "synth"
benchmark = "Bensalem"

[[traces]]
kind = "synth"
benchmark = "Deadlock"

[[traces]]
kind = "synth"
benchmark = "DiningPhil"

[[detectors]]
name = "spd_offline"
"""


class TestSigintResumeCLI:
    def test_interrupt_then_resume_matches_baseline(self, tmp_path):
        camp = tmp_path / "c.toml"
        camp.write_text(CAMPAIGN_TOML)
        out_base = str(tmp_path / "base")
        out_int = str(tmp_path / "int")

        base = _repro(["bench", "run", "--campaign", str(camp),
                       "--out", out_base, "--no-cache", "--quiet", "-j", "2"])
        assert base.returncode == 0, base.stderr

        # SIGINT the parent the moment the first finished cell hits the
        # journal (~50% of a 4-cell run with 2 workers in flight)
        spec = json.dumps([{"point": "journal_write", "action": "sigint",
                            "when": {"kind": "cell"}, "count": 1}])
        first = _repro(["bench", "run", "--campaign", str(camp),
                        "--out", out_int, "--no-cache", "--quiet",
                        "-j", "2"],
                       env_extra={faults.ENV_VAR: spec})
        assert first.returncode == 3, first.stderr
        assert "resume" in first.stderr
        state = RunJournal.load(os.path.join(out_int, JOURNAL_NAME))
        done = len(state.cells)
        assert 1 <= done < 4                    # genuinely interrupted
        assert sum(state.attempts.values()) == done

        second = _repro(["bench", "run", "--campaign", str(camp),
                         "--out", out_int, "--resume", out_int,
                         "--no-cache", "--quiet", "-j", "2"])
        assert second.returncode == 0, second.stderr

        # every cell was executed exactly once across the two runs
        final = RunJournal.load(os.path.join(out_int, JOURNAL_NAME))
        assert len(final.attempts) == 4
        assert all(n == 1 for n in final.attempts.values())

        with open(os.path.join(out_int, "run.json")) as fh:
            resumed = json.load(fh)
        with open(os.path.join(out_base, "run.json")) as fh:
            baseline = json.load(fh)
        assert resumed["journal_replays"] == done
        assert resumed["num_cells"] == 4

        def key(rec):
            return {(c["trace"], c["detector"]):
                    (c["status"], json.dumps(c["output"], sort_keys=True),
                     c.get("num_events"))
                    for c in rec["cells"]}

        assert key(resumed) == key(baseline)    # bit-identical verdicts
