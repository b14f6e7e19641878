"""The process pool: its warm parent, its event-driven scheduler and
its per-run workers.

Every test runs its campaign in a fresh interpreter: what a cell has to
import depends on what its process already loaded, and the pytest
process has loaded nearly everything by the time these tests run.
Each script prints one JSON line that the test asserts on.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CORPUS = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "corpus"))

PRELUDE = f"""\
import json, os, sys, time
from repro.exp.campaign import Campaign, DetectorSpec, TraceSource

CORPUS = {CORPUS!r}

def corpus(*names):
    return [TraceSource(kind="file", name=n,
                        path=os.path.join(CORPUS, n + ".std"))
            for n in names]
"""


def run_script(body: str, timeout: float = 120.0, prelude: str = "") -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_OBS", None)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + prelude + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: every registry detector over two corpus traces, and the three whose
#: inputs can be large over ``DENSE`` too, plus two probes a cell
#: watcher calls before and after a cell
WARM_CAMPAIGN = """
import repro.kernels as kernels
from repro.exp.detectors import detector_names

dense = ("spd_offline", "spd_online", "fasttrack")
campaign = Campaign(
    name="warm",
    traces=corpus("sigma2", "picklock")
    + [TraceSource(kind="file", name="dense", path=DENSE)],
    detectors=[DetectorSpec(name=n,
                            config={"max_size": 2} if n == "spd_offline" else {},
                            only=[] if n in dense else ["sigma2", "picklock"])
               for n in detector_names()],
    include_stats=False)

def numpy_calls():
    return sum(v for k, v in kernels.counters().items()
               if k.endswith(".numpy"))

def new_modules(before):
    return sorted(m for m in set(sys.modules) - before
                  if m.split(".")[0] in ("repro", "numpy"))
"""


def warm_prelude(tmp_path) -> str:
    """``WARM_CAMPAIGN`` over a 1.5k-event, 4-thread × 6-lock trace
    file, past the size floors of the deleted index and ALG kernels."""
    from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
    from repro.trace import format_trace

    trace = generate_random_trace(RandomTraceConfig(
        num_threads=4, num_locks=6, num_vars=4, num_events=1500,
        acquire_prob=0.35, seed=3))
    path = tmp_path / "dense.std"
    path.write_text(format_trace(trace))
    return f"DENSE = {str(path)!r}\n" + WARM_CAMPAIGN


class TestWarmParent:
    def test_pool_preloads_each_detector_closure(self, tmp_path):
        """No forked cell imports a ``repro`` or ``numpy`` module its
        worker lacked, no cell dispatches to numpy, and neither the pool
        parent nor any cell holds numpy."""
        side = tmp_path / "cells"
        side.mkdir()
        out = run_script(f"""
            import repro.exp.runner as runner

            side = {str(side)!r}
            plain = runner.run_cell

            def watched(task):
                before, calls = set(sys.modules), numpy_calls()
                res = plain(task)
                with open(os.path.join(side, f"{{task.index}}.json"), "w") as fh:
                    json.dump({{"imports": new_modules(before),
                               "numpy_calls": numpy_calls() - calls,
                               "numpy": "numpy" in sys.modules}}, fh)
                return res

            runner.run_cell = watched
            run = runner.ProcessPoolRunner(jobs=2).run(campaign)
            cells = []
            for fn in os.listdir(side):
                with open(os.path.join(side, fn)) as fh:
                    cells.append(json.load(fh))
            print(json.dumps({{
                "statuses": [r.status for r in run.results],
                "parent_numpy": "numpy" in sys.modules,
                "detectors": len(detector_names()),
                "cells": cells,
            }}))
        """, prelude=warm_prelude(tmp_path))
        n = 2 * out["detectors"] + 3
        assert out["statuses"] == ["ok"] * n
        assert out["parent_numpy"] is False
        assert len(out["cells"]) == n
        assert [c["imports"] for c in out["cells"]] == [[]] * n
        assert [c for c in out["cells"] if c["numpy_calls"] or c["numpy"]] == []

    def test_inline_clock_starts_after_the_imports(self, tmp_path):
        """A cell's clock starts only once every module its detector
        needs is loaded: no adapter call under ``InlineRunner`` imports
        a ``repro`` or ``numpy`` module, the first call of each
        detector included, none dispatches to numpy and the process
        never holds numpy."""
        out = run_script("""
            import functools
            import repro.exp.detectors as detectors
            from repro.exp.runner import InlineRunner

            calls = []

            def watch(name):
                plain = detectors._REGISTRY[name]

                @functools.wraps(plain)
                def adapter(trace, config):
                    before, dispatched = set(sys.modules), numpy_calls()
                    try:
                        return plain(trace, config)
                    finally:
                        calls.append([name, new_modules(before),
                                      numpy_calls() - dispatched])
                detectors._REGISTRY[name] = adapter

            for n in detector_names():
                watch(n)
            run = InlineRunner().run(campaign)
            print(json.dumps({
                "statuses": [r.status for r in run.results],
                "numpy": "numpy" in sys.modules,
                "detectors": len(detector_names()),
                "calls": calls,
            }))
        """, prelude=warm_prelude(tmp_path))
        n = 2 * out["detectors"] + 3
        assert out["statuses"] == ["ok"] * n
        assert len(out["calls"]) == n
        assert [c for c in out["calls"] if c[1] or c[2]] == []
        assert out["numpy"] is False

    def test_importing_exp_leaves_numpy_unloaded(self):
        """The registry imports every detector, and none of them imports
        numpy."""
        out = run_script("""
            import repro.exp  # noqa: F401
            print(json.dumps({"numpy": "numpy" in sys.modules}))
        """)
        assert out == {"numpy": False}


class TestScheduler:
    def test_stalled_cell_times_out_on_its_deadline(self):
        """The wait's timeout is the nearest cell deadline: a cell that
        stalls past its 0.5 s budget ends as ``timeout`` about then."""
        out = run_script("""
            import repro.faults as faults
            from repro.exp.runner import ProcessPoolRunner

            faults.install([{"point": "cell", "action": "stall",
                             "delay": 30.0, "when": {"index": 0}}])
            c = Campaign(name="stall", traces=corpus("sigma2"),
                         detectors=[DetectorSpec(name="spd_offline",
                                                 timeout=0.5)],
                         include_stats=False)
            for task in c.cells():
                task.key()                  # hash the sources untimed
            done = []
            t0 = time.monotonic()
            run = ProcessPoolRunner(jobs=2).run(
                c, progress=lambda r: done.append(time.monotonic() - t0))
            print(json.dumps({"ended": done,
                              "statuses": [r.status for r in run.results]}))
        """)
        assert out["statuses"] == ["timeout"]
        assert 0.5 <= out["ended"][0] < 1.25, out["ended"]

    def test_sigint_during_retry_backoff_drains_at_once(self):
        """With only a 30 s retry backoff outstanding, a SIGINT ends
        the wait through the self-pipe instead of sleeping it out."""
        out = run_script("""
            import signal, threading
            import repro.obs as obs
            from repro.exp.runner import ProcessPoolRunner

            sent, retried = [], []
            plain = obs.event

            def event(name, **fields):
                if name == "pool.retry":
                    retried.append(time.monotonic())
                return plain(name, **fields)

            def interrupt():
                sent.append(time.monotonic())
                os.kill(os.getpid(), signal.SIGINT)

            obs.event = event

            c = Campaign(name="backoff", traces=corpus("sigma2"),
                         detectors=[DetectorSpec(name="_crash",
                                                 config={"mode": "raise"})],
                         include_stats=False,
                         retry={"max_attempts": 2, "backoff": 30.0,
                                "jitter": 0.0})
            for task in c.cells():
                task.key()          # hash the sources before the timer
            threading.Timer(1.0, interrupt).start()
            run = ProcessPoolRunner(jobs=2).run(c)
            done = time.monotonic()
            print(json.dumps({"interrupted": run.interrupted,
                              "cells": run.num_cells,
                              "backoff_first": retried[0] < sent[0],
                              "drain": done - sent[0]}))
        """)
        assert out["backoff_first"]
        assert out["interrupted"]
        assert out["cells"] == 0
        assert out["drain"] < 2.0, out["drain"]

    def test_pool_tick_passes_follow_events_not_wall_time(self):
        """One scheduler pass per wake-up: two 1 s cells take a handful
        of passes, where a fixed 20 ms poll took about fifty."""
        out = run_script("""
            import repro.faults as faults
            from repro.exp.runner import ProcessPoolRunner

            ticks = []
            plain = faults.fire

            def counting(point, **ctx):
                if point == "pool_tick":
                    ticks.append(ctx["done"])
                return plain(point, **ctx)

            faults.fire = counting
            c = Campaign(name="ticks", traces=corpus("sigma2"),
                         detectors=[DetectorSpec(name="_sleep", id=f"s{i}",
                                                 config={"seconds": 1.0})
                                    for i in range(2)],
                         include_stats=False)
            run = ProcessPoolRunner(jobs=2).run(c)
            print(json.dumps({"ticks": ticks,
                              "statuses": [r.status for r in run.results]}))
        """)
        assert out["statuses"] == ["ok", "ok"]
        # 2 starts + 2 exits bound the wake-ups; wall time does not
        assert 1 <= len(out["ticks"]) <= 5, out["ticks"]


class TestWorkerLifecycle:
    def test_workers_live_for_one_run(self):
        """Workers start with the run's first cache miss, are replaced
        after a crash, and are gone, with every pipe end and fd they
        used, once ``run()`` returns: after a clean run, a crashing
        cell, a timed-out cell and a SIGINT drain alike."""
        out = run_script("""
            import multiprocessing
            import repro.faults as faults
            import repro.obs as obs
            from repro.exp.runner import ProcessPoolRunner

            os.environ[obs.ENV_VAR] = "1"
            obs.maybe_enable_from_env()

            def build(**kw):
                return Campaign(
                    name="life",
                    traces=corpus("sigma2", "picklock", "stringbuffer"),
                    detectors=[DetectorSpec(name="spd_offline", **kw),
                               DetectorSpec(name="fasttrack", **kw)],
                    include_stats=False)

            def started():
                return obs.snapshot()["counters"].get(
                    "pool.workers_started", 0)

            runs = {}
            for label, spec, kw in (
                    ("clean", None, {}),
                    ("crash", {"point": "cell", "action": "crash",
                               "when": {"index": 0}}, {}),
                    ("timeout", {"point": "cell", "action": "stall",
                                 "delay": 30.0, "when": {"index": 0}},
                     {"timeout": 0.5}),
                    ("drain", {"point": "pool_tick", "action": "sigint"},
                     {})):
                faults.clear()
                if spec is not None:
                    faults.install([spec])
                fds = len(os.listdir("/proc/self/fd"))
                n0 = started()
                run = ProcessPoolRunner(jobs=2).run(build(**kw))
                runs[label] = {
                    "statuses": [r.status for r in run.results],
                    "interrupted": run.interrupted,
                    "fds": len(os.listdir("/proc/self/fd")) - fds,
                    "children": len(multiprocessing.active_children()),
                    "started": started() - n0,
                }
            print(json.dumps(runs))
        """)
        for label, run in out.items():
            assert run["fds"] == 0, (label, run)
            assert run["children"] == 0, (label, run)
        assert out["clean"]["statuses"] == ["ok"] * 6
        assert out["clean"]["started"] == 2
        assert out["crash"]["statuses"] == ["error"] + ["ok"] * 5
        assert out["crash"]["started"] == 3          # jobs + 1 replacement
        assert out["timeout"]["statuses"] == ["timeout"] + ["ok"] * 5
        # the first tick drains: both in-flight cells finish, none start
        assert out["drain"]["interrupted"]
        assert out["drain"]["statuses"] == ["ok", "ok"]


    def test_workers_exit_when_the_parent_dies(self, tmp_path):
        """A parent SIGKILLed mid-run leaves no worker behind: each one
        finds its pipe closed once its cell ends, and exits."""
        script = PRELUDE + textwrap.dedent("""
            from repro.exp.runner import ProcessPoolRunner

            c = Campaign(name="orphans", traces=corpus("sigma2"),
                         detectors=[DetectorSpec(name="_sleep", id=f"s{i}",
                                                 config={"seconds": 0.3})
                                    for i in range(20)],
                         include_stats=False)
            ProcessPoolRunner(jobs=2).run(c)
        """)
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=str(tmp_path))
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_OBS", None)
        parent = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.monotonic() + 60
            workers = []
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children_of(parent.pid)
        finally:
            parent.kill()
            parent.wait()
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))


def _stat(pid: int):
    """``(state, ppid)`` of a live or zombie process, else None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children_of(pid: int):
    return [int(d) for d in os.listdir("/proc")
            if d.isdigit() and (_stat(int(d)) or (None, None))[1] == pid]


def _running(pid: int) -> bool:
    st = _stat(pid)
    return st is not None and st[0] not in ("Z", "X")


class TestSpawn:
    def test_spawned_workers_match_inline(self):
        """Under ``spawn`` (the start method where ``fork`` is missing)
        real detectors match ``InlineRunner`` cell for cell, a crashing
        cell ends ``error`` with its own stderr tail, a stalled one
        ``timeout``, and no worker outlives the run."""
        out = run_script("""
            import multiprocessing
            from repro.exp.runner import InlineRunner, ProcessPoolRunner

            traces = corpus("sigma2", "picklock", "stringbuffer",
                            "non_well_nested")
            real = [DetectorSpec(name=n)
                    for n in ("spd_offline", "spd_online", "fasttrack")]
            debug = [DetectorSpec(name="_crash", config={"code": 139}),
                     DetectorSpec(name="_sleep", config={"seconds": 30.0},
                                  timeout=0.5)]

            def build(detectors):
                return Campaign(name="spawn", traces=traces,
                                detectors=detectors, include_stats=False)

            pool = ProcessPoolRunner(jobs=2, start_method="spawn").run(
                build(real + debug))
            inline = InlineRunner().run(build(real))
            ids = {d.id for d in real}
            print(json.dumps({
                "pool": [r.comparable() for r in pool.results
                         if r.detector_id in ids],
                "inline": [r.comparable() for r in inline.results],
                "debug": sorted([r.detector_id, r.status,
                                 "about to _exit" in (r.error or "")]
                                for r in pool.results
                                if r.detector_id not in ids),
                "children": len(multiprocessing.active_children()),
            }))
        """)
        assert len(out["inline"]) == 12
        assert out["pool"] == out["inline"]
        # each crash carries its own stderr tail, though its worker
        # may have run other cells before
        assert out["debug"] == ([["_crash", "error", True]] * 4
                                + [["_sleep", "timeout", False]] * 4)
        assert out["children"] == 0
