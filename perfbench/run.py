"""Repository benchmark for the deadlock-prediction engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: table1_replica, pattern_dense,
live_sessions, campaign (see ``workloads.py`` for what each stresses and
why).  Each step runs in its own process, with ``src/`` on PYTHONPATH:

1. ``gen``: the workload's inputs are generated from ``--seed`` with the
   repo's own generators, into ``.perfbench/`` (never timed);
2. ``setup``: fresh interpreters time process start -> ready for the
   first input, four before and four after step 3, on alternating CPUs;
   ``setup_s`` is the median;
3. ``measure``: a fresh process sets up, runs the timed region for
   ``--seconds``, then checks every verdict against its reference.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, whose spans go to ``.perfbench/spans/`` in the
``repro.obs`` span-log shape (``repro obs export`` reads them).  A full
record (input shape, kernel backend and dispatch counters) goes to
``.perfbench/results/``.  Exits non-zero without a result when the checkout
lacks the program or the kernel backend differs from the recorded one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import harness
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "analysis_s": "s",
    "events_per_s": "ev/s",
}

PER_LAYER = {
    "setup.import_s": "s", "setup.backend_s": "s", "setup.construct_s": "s",
    "exp.code_version_s": "s",
    "trace.load_s": "s", "trace.index_s": "s", "trace.input_bytes": "bytes",
    "trace.events": "count",
    "vc.trf_s": "s",
    "alg.phase1_s": "s", "alg.cycles": "count", "alg.abstract_patterns": "count",
    "offline.phase2_s": "s", "offline.deadlocks": "count",
    "offline.useful_ratio": "ratio",
    "stream.append_s": "s", "stream.flush_self_s": "s",
    "stream.retained_events_max": "count", "stream.evicted_events": "count",
    "online.feed_s.exact": "s", "online.feed_s.bounded": "s",
    "online.evictions": "count", "online.tracked_entries_max": "count",
    "fasttrack.feed_s": "s",
    "live.gen_lag_ms_max": "ms", "live.backlog_max_events": "count",
    "live.rung1.p99_ms": "ms", "live.rung2.p99_ms": "ms",
    "live.rung3.p99_ms": "ms", "live.sustained_rate": "ev/s",
    "exp.cells_per_s": "cells/s", "exp.warm_cells_per_s": "cells/s",
    "exp.cell_exec_s": "s", "exp.cell_overhead_ms": "ms",
    "cache.get_s": "s", "cache.put_s": "s", "cache.hit_ratio": "ratio",
    "latency.p50_ms": "ms", "latency.tail_ms": "ms", "latency.tail_pct": "%",
    "latency.samples": "count",
    "trace_overhead_pct": "%", "spans.unaccounted_pct": "%",
    "error_rate": "ratio",
    "input.threads_max": "count", "input.locks_max": "count",
    "input.sync_share": "ratio", "input.concrete_patterns": "count",
    "input.stream_to_horizon": "ratio",
}

#: dispatch counters reported per workload: a silent all-python tally
#: means a layer fell back from its vectorized kernel
KERNEL_COUNTERS = (
    "alg_edges.numpy", "alg_edges.python", "fasttrack_runs.numpy",
    "fasttrack_runs.python", "index_extend.numpy", "index_extend.python",
    "offline_check.numpy", "online_closure.numpy", "online_closure.python",
    "online_microbatch.numpy", "vc_join_many.numpy", "johnson_scc.incremental",
)
for _name in KERNEL_COUNTERS:
    PER_LAYER["kernels." + _name] = "count"


def _env(tmp: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = tmp                # the pool's temp files stay in the checkout
    # String-hash layout alone moves a process's analysis time by +-10%
    # (set iteration order in the detectors); one fixed layout keeps runs
    # comparable.  Confirm a gain smaller than that under other values.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS", None)
    return env


def _step(args, env, timeout: float) -> None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    proc = subprocess.run(cmd, env=env, timeout=timeout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"step {args[0]} failed (rc {proc.returncode}):\n"
                           + proc.stderr[-3000:])


def _setup_sample(workload: str, inputs: str, work: str, env,
                  pin) -> tuple:
    """Wall time from spawning a fresh interpreter to its ready line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup",
           workload, inputs, work]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=pin)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"setup failed (rc {proc.returncode}):\n{err[-3000:]}")
    return elapsed, json.loads(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {ROOT}/src/repro; run from a "
              "full checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(STATE, f"run-{tag}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = _env(tmp)
    try:
        _step(["gen", args.workload, args.seed, inputs], env, 170)
        samples, parts = [], []
        cpu = harness.CpuPinner()

        def set_up(n):
            for _ in range(n):
                i = len(samples)
                s, part = _setup_sample(args.workload, inputs,
                                        os.path.join(work, "probe"), env,
                                        lambda: cpu.pin(i))
                samples.append(s)
                parts.append(part)

        # half the set-ups before the timed run and half after, alternating
        # CPUs, so their median does not hang on one vCPU's slow phase
        set_up(workloads.SETUP_SAMPLES // 2)
        out = os.path.join(work, "result.json")
        spans = os.path.join(STATE, "spans", tag + ".jsonl")
        _step(["measure", args.workload, args.seed, args.seconds, args.trace,
               inputs, work, out, spans], env, args.seconds + 160)
        set_up(workloads.SETUP_SAMPLES - workloads.SETUP_SAMPLES // 2)
        with open(out) as fh:
            res = json.load(fh)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if res["backend"] != workloads.RECORDED_BACKEND:
        print(f"perfbench: kernel backend resolved to {res['backend']!r}, but "
              f"the benchmark was recorded with {workloads.RECORDED_BACKEND!r}; "
              "figures would not be comparable", file=sys.stderr)
        return 3

    attempted, failed = res["attempted"], res["failed"]
    e2e = dict(res["metrics"], setup_s=statistics.median(samples),
               peak_rss_mb=res["peak_rss_mb"])
    shape = res["shape"]
    layers = {name: 0 for name in PER_LAYER}
    for key in parts[0]:
        layers[key] = statistics.median(p[key] for p in parts)
    layers.update(res["layers"])
    layers.update({
        "trace.input_bytes": shape.get("input_bytes", 0),
        "trace.events": shape.get("events", 0),
        "error_rate": failed / max(1, attempted),
        "input.threads_max": shape.get("threads_max", 0),
        "input.locks_max": shape.get("locks_max", 0),
        "input.sync_share": shape.get("sync_share", 0),
        "input.concrete_patterns": shape.get("concrete_patterns", 0),
        "input.stream_to_horizon": shape.get("stream_to_horizon", 0),
    })
    for name in KERNEL_COUNTERS:
        layers["kernels." + name] = res["kernels"].get("kernels." + name, 0)

    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    metrics = {k: {"value": chosen[k], "unit": units[k]} for k in units}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "backend": res["backend"], "end_to_end": e2e, "per_layer": layers,
              "setup_samples": samples, "passes": res.get("passes"), "shape": shape,
              "kernels": res["kernels"], "attempted": attempted,
              "failed": failed, "problems": res["problems"]}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} backend={res['backend']} "
          f"attempted={attempted} failed={failed} "
          f"error_rate={failed / max(1, attempted):.4g}")
    for problem in res["problems"][:10]:
        print(f"# FAILED: {problem}")
    print("# input shape: " + json.dumps(shape, sort_keys=True))
    print("# kernels: " + json.dumps(res["kernels"], sort_keys=True))
    for k, m in metrics.items():
        print(f"{k:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
