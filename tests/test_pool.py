"""The process pool's warm parent and its event-driven scheduler.

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


def run_script(body: str, timeout: float = 120.0) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_OBS", None)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestWarmParent:
    def test_pool_preloads_each_detector_closure(self, tmp_path):
        """After a pool run the parent holds every module of each
        detector's closure, and numpy when the kernel backend resolves
        to it, and no forked cell imports a ``repro`` or ``numpy``
        module its parent lacked."""
        out = run_script(f"""
            import repro.exp.runner as runner
            import repro.kernels as kernels
            from repro.exp.cache import detector_modules

            side = {str(tmp_path)!r}
            plain = runner.run_cell

            def watched(task):
                before = set(sys.modules)
                res = plain(task)
                new = sorted(m for m in set(sys.modules) - before
                             if m.split(".")[0] in ("repro", "numpy"))
                path = os.path.join(side, f"{{task.index}}.json")
                with open(path, "w") as fh:
                    json.dump(new, fh)
                return res

            runner.run_cell = watched
            names = ("spd_offline", "spd_online", "fasttrack")
            c = Campaign(name="warm",
                         traces=corpus("sigma2", "picklock", "stringbuffer"),
                         detectors=[DetectorSpec(name=n) for n in names],
                         include_stats=False)
            run = runner.ProcessPoolRunner(jobs=2).run(c)
            parent_numpy = "numpy" in sys.modules
            imported = {{}}
            for fn in os.listdir(side):
                with open(os.path.join(side, fn)) as fh:
                    imported[fn] = json.load(fh)
            print(json.dumps({{
                "statuses": [r.status for r in run.results],
                "missing": {{n: [m for m in detector_modules(n)
                                if m not in sys.modules] for n in names}},
                "closure_sizes": [len(detector_modules(n)) for n in names],
                "parent_numpy": parent_numpy,
                "numpy_backend": kernels.backend() == "numpy",
                "cell_imports": imported,
            }}))
        """)
        assert out["statuses"] == ["ok"] * 9
        assert all(out["closure_sizes"])
        assert out["missing"] == {"spd_offline": [], "spd_online": [],
                                  "fasttrack": []}
        assert out["parent_numpy"] == out["numpy_backend"]
        assert len(out["cell_imports"]) == 9
        assert all(mods == [] for mods in out["cell_imports"].values()), (
            out["cell_imports"])

    def test_inline_clock_starts_after_the_imports(self):
        """A cell's clock starts only once its detector's modules are
        loaded, so the first cell of each detector is not charged for
        one-time imports."""
        out = run_script("""
            import functools
            import repro.exp.detectors as detectors
            from repro.exp.cache import detector_modules
            from repro.exp.runner import InlineRunner

            names = ("spd_offline", "spd_online", "fasttrack")
            missing = {n: [] for n in names}

            def watch(name):
                plain = detectors._REGISTRY[name]
                wanted = detector_modules(name)

                @functools.wraps(plain)
                def adapter(trace, config):
                    missing[name].append(
                        [m for m in wanted if m not in sys.modules])
                    return plain(trace, config)
                detectors._REGISTRY[name] = adapter

            for n in names:
                watch(n)
            c = Campaign(name="inline", traces=corpus("sigma2", "picklock"),
                         detectors=[DetectorSpec(name=n) for n in names],
                         include_stats=False)
            run = InlineRunner().run(c)
            print(json.dumps({"statuses": [r.status for r in run.results],
                              "missing": missing}))
        """)
        assert out["statuses"] == ["ok"] * 6
        for name, calls in out["missing"].items():
            assert calls == [[], []], (name, calls)


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
