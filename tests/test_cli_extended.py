"""The extended CLI subcommands: races, compare, audit, graph."""

import os

import pytest

from repro.cli import entry, main
from repro.synth.paper import sigma1, sigma2, sigma3
from repro.trace.parser import save_trace


@pytest.fixture
def sigma2_file(tmp_path):
    path = tmp_path / "sigma2.std"
    save_trace(sigma2(), str(path))
    return str(path)


@pytest.fixture
def sigma1_file(tmp_path):
    path = tmp_path / "sigma1.std"
    save_trace(sigma1(), str(path))
    return str(path)


class TestRacesCommand:
    def test_racy_trace(self, tmp_path, capsys):
        path = tmp_path / "r.std"
        path.write_text("t1|w(x)\nt2|w(x)\n")
        assert main(["races", str(path)]) == 1
        assert "1 sync-preserving race" in capsys.readouterr().out

    def test_clean_trace(self, tmp_path, capsys):
        path = tmp_path / "c.std"
        path.write_text("t1|acq(l)\nt1|w(x)\nt1|rel(l)\nt2|acq(l)\nt2|w(x)\nt2|rel(l)\n")
        assert main(["races", str(path)]) == 0

    def test_all_flag(self, tmp_path, capsys):
        path = tmp_path / "r.std"
        path.write_text("t1|w(x)\nt1|w(x)\nt2|w(x)\n")
        assert main(["races", "--all", str(path)]) == 1


class TestCompareCommand:
    def test_compare_sigma2(self, sigma2_file, capsys):
        assert main(["compare", "--no-dirk", sigma2_file]) == 0
        out = capsys.readouterr().out
        assert "spd-offline=1" in out
        assert "only SPDOffline" in out  # sigma2 is a Fig.5-style case

    def test_compare_with_dirk(self, sigma1_file, capsys):
        assert main(["compare", sigma1_file]) == 0
        out = capsys.readouterr().out
        assert "dirk=" in out


class TestAuditCommand:
    def test_audit_sigma1(self, sigma1_file, capsys):
        assert main(["audit", sigma1_file]) == 0
        out = capsys.readouterr().out
        assert "TRF ideal" in out

    def test_audit_sigma2(self, sigma2_file, capsys):
        assert main(["audit", sigma2_file]) == 0
        out = capsys.readouterr().out
        assert "sync-preserving deadlock" in out
        assert "witness" in out


class TestGraphCommand:
    def test_alg_dot(self, tmp_path, capsys):
        path = tmp_path / "s3.std"
        save_trace(sigma3(), str(path))
        assert main(["graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "acq(l2)" in out

    def test_lock_order_dot(self, sigma2_file, capsys):
        assert main(["graph", "--lock-order", sigma2_file]) == 0
        out = capsys.readouterr().out
        assert '"l2" -> "l3"' in out


class TestJsonOutput:
    def test_analyze_json(self, sigma2_file, capsys):
        import json

        assert main(["analyze", "--json", sigma2_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "offline"
        assert payload["deadlocks"][0]["events"] == [3, 17]
        assert payload["abstract_patterns"] == 1

    def test_analyze_json_online(self, sigma2_file, capsys):
        import json

        assert main(["analyze", "--json", "--online", sigma2_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "online"
        assert sorted(payload["deadlocks"][0]["events"]) == [3, 17]


class TestAnalyzeMaxCycles:
    """``analyze --max-cycles N`` caps phase 1's cycle enumeration,
    whose worst case is exponential (Theorem 3.1)."""

    @pytest.fixture
    def wide_file(self, tmp_path):
        """16 threads x 8 locks, 1.5k events: unbounded, Johnson's
        enumeration runs for minutes on it."""
        from repro.synth.random_traces import (
            RandomTraceConfig,
            generate_random_trace,
        )

        path = tmp_path / "wide.std"
        save_trace(generate_random_trace(RandomTraceConfig(
            num_threads=16, num_locks=8, num_vars=10, num_events=1500,
            max_nesting=3, acquire_prob=0.35, release_prob=0.3, seed=11)),
            str(path))
        return str(path)

    def test_cap_stops_enumeration_and_says_so(self, wide_file, capsys):
        import json
        import time

        start = time.perf_counter()
        assert main(["analyze", "--max-cycles", "500", wide_file]) == 0
        out = capsys.readouterr().out
        assert "[500 cycles," in out
        assert "cycle enumeration stopped at --max-cycles 500" in out
        assert main(["analyze", "--json", "--max-cycles", "500",
                     wide_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert time.perf_counter() - start < 30
        assert (payload["cycles"], payload["max_cycles"],
                payload["cycles_capped"]) == (500, 500, True)

    def test_cap_not_reached(self, sigma2_file, capsys):
        import json

        assert main(["analyze", "--max-cycles", "500", sigma2_file]) == 1
        assert "stopped" not in capsys.readouterr().out
        assert main(["analyze", "--json", "--max-cycles", "500",
                     sigma2_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["cycles"], payload["max_cycles"],
                payload["cycles_capped"]) == (1, 500, False)
        assert main(["analyze", "--json", sigma2_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["max_cycles"], payload["cycles_capped"]) == \
            (None, False)

    def test_nonpositive_cap_rejected(self, sigma2_file, capsys):
        assert main(["analyze", "--max-cycles", "0", sigma2_file]) == 2
        assert "--max-cycles must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--online"], ["--stream"],
                                      ["--window", "100"]])
    def test_cap_is_batch_only(self, sigma2_file, capsys, mode):
        """The streaming and windowed modes enumerate no cycles (or not
        through this cap), so the flag is refused there, not ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--max-cycles", "5", *mode, sigma2_file])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestLineEnds:
    """Batch and streaming analysis read a file the same way whatever
    its line ends: \n, \r\n or a lone \r."""

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_analyze_and_stream_agree(self, tmp_path, capsys, eol):
        import json

        corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
        with open(os.path.join(corpus, "sigma2.std"), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "sigma2.std"
        path.write_bytes(text.replace("\n", eol).encode("utf-8"))
        found = []
        for mode in ([], ["--stream"]):
            assert entry(["analyze", "--json", *mode, str(path)]) == 1
            payload = json.loads(capsys.readouterr().out)
            found.append([sorted(d["events"]) for d in payload["deadlocks"]])
        assert found[0] == found[1] == [[3, 17]]


class TestAnalyzeWindowed:
    """The bounded-memory mode behind ``analyze --window N``."""

    def test_window_finds_local_deadlock(self, sigma2_file, capsys):
        assert main(["analyze", "--window", "1000", sigma2_file]) == 1
        out = capsys.readouterr().out
        assert "windowed" in out
        assert "1 sync-preserving deadlock(s)" in out

    def test_window_json(self, sigma2_file, capsys):
        import json

        assert main(["analyze", "--window", "1000", "--json", sigma2_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "windowed"
        assert payload["windows"] == 1
        assert payload["deadlocks"][0]["events"] == [3, 17]

    def test_small_window_documented_miss(self, sigma2_file, capsys):
        """A window smaller than the pattern span loses the deadlock —
        the documented windowing imprecision, visible from the CLI."""
        assert main(["analyze", "--window", "4", "--overlap", "0.0",
                     sigma2_file]) == 0
        assert "0 sync-preserving deadlock(s)" in capsys.readouterr().out

    def test_nonpositive_window_rejected(self, sigma2_file, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--window", "0", sigma2_file])
        assert "window must be >= 1" in capsys.readouterr().err

    def test_window_excludes_online(self, sigma2_file, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--window", "1000", "--online", sigma2_file])
        assert "not allowed with" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_output(self, sigma2_file, capsys):
        assert main(["profile", sigma2_file]) == 0
        out = capsys.readouterr().out
        assert "deadlock-prone locks (2): l2, l3" in out
        assert "hottest locks:" in out


class TestExplainCommand:
    def test_explain_deadlock(self, sigma2_file, capsys):
        assert main(["explain", sigma2_file, "3", "17"]) == 0
        assert "IS a sync-preserving deadlock" in capsys.readouterr().out

    def test_explain_non_deadlock(self, sigma1_file, capsys):
        assert main(["explain", sigma1_file, "1", "7"]) == 1
        out = capsys.readouterr().out
        assert "NOT a sync-preserving deadlock" in out


class TestKernelsBackendExitCodes:
    """``--kernels numpy`` without numpy is a *usage* error (exit 2,
    one line) raised at startup — not a KernelsError surfacing as an
    internal error (exit 3) halfway through a long run, while ``auto``
    runs the python path.  Subprocess tests: the numpy availability
    probe is import-level state."""

    @staticmethod
    def _run(tmp_path, sigma2_file, backend, env_backend=None):
        import os
        import subprocess
        import sys

        import repro

        fake = tmp_path / "fakenp"
        fake.mkdir(exist_ok=True)
        (fake / "numpy.py").write_text(
            "raise ImportError('numpy is mocked away')\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(fake), src])
        env.pop("REPRO_KERNELS", None)
        env.pop("REPRO_DEBUG", None)
        if env_backend is not None:
            env["REPRO_KERNELS"] = env_backend
        flag = ["--kernels", backend] if backend is not None else []
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *flag, "analyze", sigma2_file],
            capture_output=True, text=True, env=env, timeout=120)

    def test_numpy_request_without_numpy_is_usage_error(
            self, tmp_path, sigma2_file):
        proc = self._run(tmp_path, sigma2_file, "numpy")
        assert proc.returncode == 2, (proc.stdout, proc.stderr)
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("repro-deadlock: error:")
        assert "numpy is not importable" in lines[0]
        # fails at startup: no analysis output was produced
        assert "deadlock" not in proc.stdout

    def test_numpy_env_request_without_numpy_is_usage_error(
            self, tmp_path, sigma2_file):
        proc = self._run(tmp_path, sigma2_file, None, env_backend="numpy")
        assert proc.returncode == 2, (proc.stdout, proc.stderr)
        assert "numpy is not importable" in proc.stderr
        assert "deadlock" not in proc.stdout

    def test_python_backend_unaffected(self, tmp_path, sigma2_file):
        proc = self._run(tmp_path, sigma2_file, "python")
        assert proc.returncode == 1, (proc.stdout, proc.stderr)  # findings
        assert "sync-preserving deadlock" in proc.stdout

    def test_auto_with_broken_numpy_runs_python(self, tmp_path, sigma2_file):
        # numpy's spec is found, so auto resolves to numpy, and no
        # analysis path imports it: the run is the python run.
        import re

        def untimed(out):
            return re.sub(r" in \d+\.\d+s$", "", out, flags=re.M)

        proc = self._run(tmp_path, sigma2_file, "auto")
        ref = self._run(tmp_path, sigma2_file, "python")
        assert proc.returncode == 1, (proc.stdout, proc.stderr)
        assert "sync-preserving deadlock" in proc.stdout
        assert untimed(proc.stdout) == untimed(ref.stdout)
        assert "Traceback" not in proc.stderr
