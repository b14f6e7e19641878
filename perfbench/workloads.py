"""The four benchmark workloads: input generation, set-up, the timed
measurement and the verdict checks.

Every layer is timed from outside, through its public functions; the
program under test is not modified.  Run through ``run.py``, which gives
every step its own process.

Workloads, and why each is here:

- ``table1_replica``: one Table-1-shaped ``BenchmarkSpec`` replica saved as
  ``.std.gz`` and analysed with ``spd_offline(max_size=None)``.  A
  filler-dominated, many-thread trace with few abstract patterns: parsing,
  the O(N*T) TRF vector-clock pass and long phase-2 walks dominate.
- ``pattern_dense``: lock-heavy random traces analysed with
  ``spd_offline(max_size=2)``: thousands of short pattern checks, so
  phase 1 and batched phase 2 dominate while TRF and parsing do not.
- ``live_sessions``: an open loop of string events into many concurrent
  ``StreamSession``s with ``SPDOnline`` and ``FastTrack`` attached, half
  of them exact and half bounded, on a seeded schedule that does not slow
  down when the system does.  No ALG, TRF or parsing.
- ``campaign``: ``ProcessPoolRunner(jobs=2)`` over small random traces x
  three detectors, cold (every cell runs) and warm (every cell is a cache
  read): the only workload where ``repro.exp`` orchestration dominates.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import os
import random
import statistics
import time
from typing import Dict, List, Optional

import harness

#: seed whose verdicts are pinned below; other seeds use oracles
DEFAULT_SEED = 1

#: the kernel backend the frozen figures were measured with; a machine
#: that resolves another one would silently measure a different program
RECORDED_BACKEND = "numpy"

#: fresh-process set-ups per run (``setup_s`` is their median)
SETUP_SAMPLES = 8

WORKLOADS = ("table1_replica", "pattern_dense", "live_sessions", "campaign")

# -- table1_replica --------------------------------------------------------
REPLICA_EVENTS = 30_000
REPLICA = dict(paper_threads=24, paper_locks=64, paper_vars=256,
               sp_bugs=40, nonsp_bugs=4, dead_patterns=12, pseudo_cycles=6,
               dining=5, rounds=3)
#: sha256 of the sorted bug-id list; the replica's bug locations do not
#: depend on the seed (only the filler does)
REPLICA_BUGS_SHA256 = (
    "cf8117b96c77c710c702e0b220189dbc34113c53d713df82fde9d4b2402141c7")

# -- pattern_dense ---------------------------------------------------------
DENSE_TRACES = 3
DENSE = dict(num_threads=6, num_locks=8, num_vars=8, num_events=5_000,
             acquire_prob=0.35, max_nesting=3)
#: sha256 of the per-input verdicts (sorted pattern events) for DEFAULT_SEED
DENSE_DEFAULT_SHA256 = (
    "b89ce6865b112c3653d29b47b41e142c577ab4cf571d639c73e28e2b6743aabf")

# -- live_sessions ---------------------------------------------------------
SESSIONS = 64
PAYLOAD_EVENTS = 16
STREAM_EVENTS = 1_536
#: bounded sessions' eviction horizon, well below STREAM_EVENTS
BOUNDED_MEMORY_EVENTS = 256
#: events per session in a closed-loop pass (analysis_s); past the
#: bounded sessions' first eviction sweep at 1.5x the horizon
PASS_EVENTS = 512
#: the fixed aggregate rate ladder (events/s) and the p99 limit; the
#: nominal rate is the middle rung.  Picked from a measured closed-loop
#: capacity of ~50-60k ev/s on this input (2-vCPU x86 VM), where
#: 30k ev/s open loop already sits at the limit: every rung here holds
#: with margin, so a regression shows as a lost rung, not as noise.
RATES = (5_000, 10_000, 20_000)
LATENCY_LIMIT_S = 0.100
#: payloads per rung at least, so p99 has ten samples beyond it
RUNG_MIN_PAYLOADS = 1_100
LIVE = dict(num_threads=4, num_locks=5, num_vars=8,
            acquire_prob=0.25, max_nesting=2)

# -- campaign --------------------------------------------------------------
CAMPAIGN_TRACES = 16
CAMPAIGN = dict(num_threads=4, num_locks=5, num_vars=8, num_events=1_500,
                acquire_prob=0.25, max_nesting=2)
JOBS = 2
DETECTORS = (("spd_offline", {"max_size": 2}), ("spd_online", {}),
             ("fasttrack", {}))


def _sub_seed(seed: int, i: int) -> int:
    return seed * 1_000 + i


# == input generation (outside every timed region) ==========================


def generate(workload: str, seed: int, inputs: str) -> dict:
    """Write the workload's inputs under ``inputs``; return their shape."""
    os.makedirs(inputs, exist_ok=True)
    if workload == "table1_replica":
        return _gen_replica(seed, inputs)
    if workload == "pattern_dense":
        return _gen_random(seed, inputs, "dense", DENSE_TRACES, DENSE)
    if workload == "live_sessions":
        cfg = dict(LIVE, num_events=STREAM_EVENTS)
        shape = _gen_random(seed, inputs, "session", SESSIONS, cfg)
        shape["stream_events"] = STREAM_EVENTS
        shape["eviction_horizon_events"] = BOUNDED_MEMORY_EVENTS
        shape["stream_to_horizon"] = STREAM_EVENTS / BOUNDED_MEMORY_EVENTS
        return shape
    if workload == "campaign":
        return _gen_random(seed, inputs, "cell", CAMPAIGN_TRACES, CAMPAIGN)
    raise ValueError(f"unknown workload {workload!r}")


def _replica_spec(seed: int):
    from repro.synth.suite import BenchmarkSpec

    return BenchmarkSpec(
        name="Replica", paper_events=REPLICA_EVENTS, paper_acquires=0,
        paper_cycles=0, paper_abstract=0, paper_concrete=0, paper_dirk=None,
        paper_dirk_status="fail", paper_seqcheck=None, paper_spd=0,
        seed=seed, **REPLICA)


def _shape(traces, paths) -> dict:
    from repro.trace import ACQUIRE, FORK, JOIN, RELEASE

    sync = (ACQUIRE, RELEASE, FORK, JOIN)
    events = sum(len(t) for t in traces)
    return {
        "inputs": len(traces),
        "events": events,
        "threads_max": max(len(t.threads) for t in traces),
        "locks_max": max(len(t.locks) for t in traces),
        "sync_share": sum(1 for t in traces for e in t if e.op in sync) / events,
        "input_bytes": sum(os.path.getsize(p) for p in paths),
    }


def _gen_replica(seed: int, inputs: str) -> dict:
    # suite caps are read at import time, in this generator process only
    os.environ["REPRO_SUITE_MAX_EVENTS"] = str(REPLICA_EVENTS)
    from repro.synth.suite import build_benchmark
    from repro.trace import format_trace

    spec = _replica_spec(seed)
    trace = build_benchmark(spec)
    path = os.path.join(inputs, "replica.std.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(format_trace(trace))
    shape = _shape([trace], [path])
    shape["expected_deadlocks"] = spec.expected_spd
    return shape


def _gen_random(seed: int, inputs: str, stem: str, count: int,
                cfg: dict) -> dict:
    from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
    from repro.trace import format_trace

    traces, paths = [], []
    for i in range(count):
        trace = generate_random_trace(
            RandomTraceConfig(seed=_sub_seed(seed, i), **cfg))
        path = os.path.join(inputs, f"{stem}-{i:03d}.std")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_trace(trace))
        traces.append(trace)
        paths.append(path)
    return _shape(traces, paths)


def input_paths(inputs: str) -> List[str]:
    return sorted(os.path.join(inputs, f) for f in os.listdir(inputs)
                  if f.endswith((".std", ".std.gz")))


# == set-up (what setup_s measures, after interpreter start) ================


class Setup:
    """What a workload needs before its first input, with a breakdown."""

    def __init__(self, workload: str, inputs: str, work: str) -> None:
        t0 = time.perf_counter()
        import repro  # noqa: F401
        import repro.kernels as kernels

        t1 = time.perf_counter()
        self.backend = kernels.backend()       # imports numpy when present
        t2 = time.perf_counter()
        self.breakdown = {"setup.import_s": t1 - t0,
                          "setup.backend_s": t2 - t1}
        self.workload = workload
        self.inputs = inputs
        self.work = work
        getattr(self, "_build_" + workload)()
        self.breakdown["setup.construct_s"] = time.perf_counter() - t2

    def _build_table1_replica(self) -> None:
        from repro.core import spd_offline  # noqa: F401
        from repro.trace import load_compiled_trace  # noqa: F401

    _build_pattern_dense = _build_table1_replica

    def _build_live_sessions(self) -> None:
        # timed as set-up only; every pass and rung builds its own
        self.sessions = build_sessions(traced=False)

    def _build_campaign(self) -> None:
        from repro.exp import Campaign, DetectorSpec, ProcessPoolRunner, TraceSource
        from repro.exp.cache import code_version, detector_code_version

        t = time.perf_counter()
        code_version()
        for name, _ in DETECTORS:
            detector_code_version(name)
        self.breakdown["exp.code_version_s"] = time.perf_counter() - t
        self.runner = ProcessPoolRunner(jobs=JOBS)
        self.campaign = Campaign(
            name="perfbench",
            traces=[TraceSource(kind="file", name=os.path.basename(p), path=p)
                    for p in input_paths(self.inputs)],
            detectors=[DetectorSpec(name=n, config=c) for n, c in DETECTORS],
            include_stats=False)
        self._caches = 0
        self.new_cache()

    def new_cache(self):
        """A fresh, empty result cache (every cold pass gets its own)."""
        from repro.exp import ResultCache

        self._caches += 1
        self.cache = ResultCache(os.path.join(self.work, f"cache-{self._caches}"))
        return self.cache


def build_sessions(traced: bool, spans: Optional[harness.Spans] = None):
    """Fresh sessions; odd-numbered ones are bounded.

    A session's batch is twice the payload, so ``append`` never flushes
    on its own: every payload is delivered by the explicit ``flush()``
    the latency clock measures.
    """
    from repro.core import SPDOnline
    from repro.hb.fasttrack import FastTrack
    from repro.stream import StreamSession

    out = []
    for i in range(SESSIONS):
        bounded = i % 2 == 1
        horizon = BOUNDED_MEMORY_EVENTS if bounded else None
        session = StreamSession(f"s{i}", batch_size=2 * PAYLOAD_EVENTS,
                                max_memory_events=horizon)
        spd = SPDOnline(max_memory_events=horizon)
        ft = FastTrack()
        if traced:
            kind = "bounded" if bounded else "exact"
            proxies = (harness.TimedConsumer(spd, f"online.feed.{kind}", spans),
                       harness.TimedConsumer(ft, "fasttrack.feed", spans))
        else:
            proxies = (spd, ft)
        for c in proxies:
            session.attach(c)
        out.append({"session": session, "spd": spd, "ft": ft,
                    "bounded": bounded, "proxies": proxies, "fed": 0})
    return out


# == measurement ============================================================


class Run:
    """One timed run: collects raw figures, checks verdicts afterwards."""

    def __init__(self, setup: Setup, seed: int, seconds: float,
                 traced: bool, shape: dict) -> None:
        self.s = setup
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.spans = harness.Spans(enabled=traced)
        self.cpu = harness.CpuPinner()
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.shape: Dict[str, float] = dict(shape)
        self.kernel_counters: Optional[Dict[str, float]] = None
        self._k0: Dict[str, float] = {}
        self._refs: Optional[List] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: raw closed-loop pass times, kept in the run record
        self.passes: List[float] = []
        self.peak_rss_mb = 0.0

    def measure(self) -> None:
        import repro.kernels as kernels

        gc.collect()
        gc.freeze()        # keep the harness's own objects out of GC scans
        self._k0 = kernels.counters()
        getattr(self, "_" + self.s.workload)()

    def timed_region_done(self) -> None:
        """Peak RSS and kernel dispatches of the timed region, before any
        verdict check adds its own."""
        import repro.kernels as kernels

        self.peak_rss_mb = harness.peak_rss_mb()
        if self.kernel_counters is None:
            k1 = kernels.counters()
            self.kernel_counters = {k: v - self._k0.get(k, 0)
                                    for k, v in k1.items()
                                    if v != self._k0.get(k, 0)}

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    # -- offline -----------------------------------------------------------

    def _table1_replica(self) -> None:
        self._offline(max_size=None)
        expected = _replica_spec(self.seed).expected_spd
        bugs_sha = _sha(sorted(self.ref_bugs[0]))
        self.shape["bugs_sha256"] = bugs_sha
        if self.ref_counts[0] != expected:
            self.fail(self.attempted, f"replica: {self.ref_counts[0]} "
                                      f"deadlocks, expected {expected}")
        elif REPLICA_BUGS_SHA256 is not None and bugs_sha != REPLICA_BUGS_SHA256:
            self.fail(self.attempted, "replica: bug-id set differs from the pinned one")

    def _pattern_dense(self) -> None:
        self._offline(max_size=2)
        self.verify_dense()

    def verify_dense(self) -> None:
        """Pinned digest for the default seed; otherwise the pure-python
        backend as oracle plus a validated witness for every report."""
        digest = _sha(self.ref_verdicts)
        self.shape["verdict_sha256"] = digest
        if self.seed == DEFAULT_SEED and DENSE_DEFAULT_SHA256 is not None:
            if digest != DENSE_DEFAULT_SHA256:
                self.fail(self.attempted, "dense: verdicts differ from pinned digest")
            return
        bad = _dense_oracle(input_paths(self.s.inputs), self.ref_verdicts)
        if bad:
            self.fail(self.attempted, "dense: " + "; ".join(bad))

    def _offline(self, max_size: Optional[int]) -> None:
        from repro.core import abstract_deadlock_patterns, spd_offline
        from repro.trace import Trace, load_compiled_trace
        from repro.vc.timestamps import TRFTimestamps

        paths = input_paths(self.s.inputs)
        per_input: List[float] = []
        passes: List[float] = []
        traced_passes: List[float] = []
        layer = {k: [] for k in ("trace.load_s", "trace.index_s",
                                 "alg.phase1_s", "vc.trf_s", "offline.phase2_s")}
        self.ref_verdicts: List = []      # verdict of each input, first pass
        self.ref_counts: List[int] = []
        self.ref_bugs: List = []
        seen: List[Optional[tuple]] = [None] * len(paths)
        results = [None] * len(paths)
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < 3 or time.perf_counter() < deadline:
            traced_pass = self.traced and k % 2 == 1
            self.cpu.pin(k // 2 if self.traced else k)   # pairs share a CPU
            total = 0.0
            sums = dict.fromkeys(layer, 0.0)
            for i, path in enumerate(paths):
                op = f"input:{k}:{i}"
                self.attempted += 1
                try:
                    if not traced_pass:
                        t = time.perf_counter()
                        res = spd_offline(load_compiled_trace(path),
                                          max_size=max_size)
                        dt = time.perf_counter() - t
                    else:
                        dt, res = self._offline_traced(
                            path, op, max_size, sums, load_compiled_trace,
                            Trace, abstract_deadlock_patterns, TRFTimestamps,
                            spd_offline)
                except Exception as exc:   # counted, never fatal
                    self.fail(1, f"{op}: {type(exc).__name__}: {exc}")
                    continue
                total += dt
                if not traced_pass:
                    per_input.append(dt)
                verdict = tuple(sorted(r.pattern.events for r in res.reports))
                if seen[i] is None:
                    seen[i] = verdict
                    results[i] = res
                elif verdict != seen[i]:
                    self.fail(1, f"{op}: verdict differs from the first pass")
            (traced_passes if traced_pass else passes).append(total)
            if traced_pass:
                for key, v in sums.items():
                    layer[key].append(v)
            k += 1
        self.cpu.release()
        self.timed_region_done()
        for i, res in enumerate(results):
            if res is None:
                continue
            self.ref_verdicts.append(seen[i])
            self.ref_counts.append(res.num_deadlocks)
            self.ref_bugs.append([list(b) for b in res.unique_bugs()])
        done = [r for r in results if r is not None]
        self.shape.update({
            "cycles": sum(r.num_cycles for r in done),
            "abstract_patterns": sum(r.num_abstract_patterns for r in done),
            "concrete_patterns": sum(r.num_concrete_patterns for r in done),
            "deadlocks": sum(r.num_deadlocks for r in done),
        })
        lat = harness.tail(per_input)
        self.passes = passes
        best = harness.fast_decile(passes)
        self.metrics.update({"analysis_s": best,
                             "events_per_s": self.shape["events"] / best})
        self.layers.update({"latency.p50_ms": lat["p50"] * 1e3,
                            "latency.samples": lat["n"],
                            "latency.tail_ms": lat["tail"] * 1e3,
                            "latency.tail_pct": lat["pct"]})
        if self.traced and traced_passes:
            for key, vals in layer.items():
                self.layers[key] = statistics.median(vals)
            base = statistics.median(passes)
            self.layers["trace_overhead_pct"] = (
                100.0 * (statistics.median(traced_passes) - base) / base)
            self.layers["offline.deadlocks"] = self.shape["deadlocks"]
            self.layers["offline.useful_ratio"] = (
                self.shape["deadlocks"] / max(1, self.shape["abstract_patterns"]))
            self.layers["alg.cycles"] = self.shape["cycles"]
            self.layers["alg.abstract_patterns"] = self.shape["abstract_patterns"]
            self.layers["spans.unaccounted_pct"] = 100.0 * harness.unaccounted_share(
                self.spans.records, "input")

    def _offline_traced(self, path, op, max_size, sums, load, Trace, phase1,
                        TRF, spd_offline):
        """One input with a span per layer; phase 2 is the ``spd_offline``
        span minus the separately timed phase 1 and TRF calls on the same
        ``Trace`` (whose index they share)."""
        sp = self.spans
        t = time.perf_counter()
        with sp.span("input", op):
            with sp.span("trace.load"):
                compiled = load(path)
            trace = Trace(compiled, name=compiled.name)
            with sp.span("trace.index"):
                trace.index
            with sp.span("alg.phase1"):
                phase1(trace, max_size=max_size)
            with sp.span("vc.trf"):
                TRF(trace)
            with sp.span("offline.spd_offline"):
                res = spd_offline(trace, max_size=max_size)
        dt = time.perf_counter() - t
        last = {r["name"]: r["dur"] / 1e9 for r in sp.records[-6:]}
        sums["trace.load_s"] += last["trace.load"]
        sums["trace.index_s"] += last["trace.index"]
        sums["alg.phase1_s"] += last["alg.phase1"]
        sums["vc.trf_s"] += last["vc.trf"]
        sums["offline.phase2_s"] += max(
            0.0, last["offline.spd_offline"] - last["alg.phase1"] - last["vc.trf"])
        return dt, res

    # -- live_sessions -------------------------------------------------------

    def _live_sessions(self) -> None:
        from repro.trace import parse_trace

        streams = []
        for path in input_paths(self.s.inputs):
            with open(path, encoding="utf-8") as fh:
                trace = parse_trace(fh.read())
            streams.append([(e.thread, e.op, e.target, e.loc) for e in trace])
        self.streams = streams
        self._live_refs()
        gc.collect()
        gc.freeze()
        import repro.kernels as kernels

        self._k0 = kernels.counters()     # references are not the workload
        rng = random.Random(self.seed)
        order = []                       # session of payload k
        for _ in range(STREAM_EVENTS // PAYLOAD_EVENTS):
            perm = list(range(SESSIONS))
            rng.shuffle(perm)
            order.extend(perm)
        rung_s = 0.6 * self.seconds / len(RATES)
        # closed-loop passes run in blocks before, between and after the
        # rungs, so their fast decile is not hostage to one slow phase
        block_s = 0.4 * self.seconds / (len(RATES) + 1)
        passes, traced_passes = [], []
        self._live_passes(order, block_s, passes, traced_passes)

        rungs = []
        for r, rate in enumerate(RATES):
            n = min(max(RUNG_MIN_PAYLOADS, int(rate * rung_s / PAYLOAD_EVENTS)),
                    len(order))
            sessions = build_sessions(self.traced, self.spans)
            gc.collect()
            due = [j * PAYLOAD_EVENTS / rate for j in range(n)]
            meta = {"retained": 0}
            res = harness.run_open_loop(
                due, [PAYLOAD_EVENTS] * n,
                lambda j: self._payload(sessions, order[j], f"rung{r}:{j}",
                                        self.traced, meta))
            self.attempted += n
            if any(res.failed):
                self.fail(sum(res.failed), f"rung {rate}: payloads raised")
            bad = self._check_sessions(sessions, n)
            latency = [x if not bad.get(order[j]) else float("inf")
                       for j, x in enumerate(res.latency)]
            rung = {"rate": rate, "p99": harness.p99(latency),
                    "grows": harness.lateness_grows(res.lateness,
                                                    LATENCY_LIMIT_S / 4),
                    "achieved": res.achieved_rate, "latency": latency,
                    "lateness_max": max(res.lateness),
                    "backlog_max": max(res.backlog)}
            rungs.append(rung)
            self.layers[f"live.rung{r + 1}.p99_ms"] = rung["p99"] * 1e3
            if r == 1:
                self._live_layers(sessions, meta, rung)
            del sessions
            self._live_passes(order, block_s, passes, traced_passes)
        self.passes = passes
        self.metrics["analysis_s"] = harness.fast_decile(passes)
        self.timed_region_done()
        nominal = rungs[1]
        lat = harness.tail(nominal["latency"])
        best = harness.sustained(rungs, LATENCY_LIMIT_S)
        self.metrics["events_per_s"] = best["achieved"] if best else 0.0
        self.layers.update({"latency.p50_ms": lat["p50"] * 1e3,
                            "latency.samples": lat["n"],
                            "latency.tail_ms": lat["tail"] * 1e3,
                            "latency.tail_pct": lat["pct"],
                            "live.sustained_rate": best["rate"] if best else 0})
        if self.traced and traced_passes:
            base = statistics.median(passes)
            self.layers["trace_overhead_pct"] = (
                100.0 * (statistics.median(traced_passes) - base) / base)
            self.layers["spans.unaccounted_pct"] = 100.0 * harness.unaccounted_share(
                self.spans.records, "payload")

    def _live_passes(self, order, budget_s: float, passes: List[float],
                     traced_passes: List[float]) -> None:
        """Closed-loop passes for ``budget_s`` (at least one): fresh
        sessions, every session's first PASS_EVENTS back to back."""
        n_pass = SESSIONS * PASS_EVENTS // PAYLOAD_EVENTS
        end = time.perf_counter() + budget_s
        while True:
            k = len(passes) + len(traced_passes)
            traced_pass = self.traced and k % 2 == 1
            self.cpu.pin(k // 2 if self.traced else k)
            sessions = build_sessions(traced_pass, self.spans)
            gc.collect()
            t = time.perf_counter()
            for j in range(n_pass):
                self._payload(sessions, order[j], f"pass:{k}:{j}",
                              traced_pass, None)
            (traced_passes if traced_pass else passes).append(
                time.perf_counter() - t)
            self.attempted += n_pass
            self._check_sessions(sessions, n_pass)
            if time.perf_counter() >= end:
                break
        self.cpu.release()

    def _payload(self, sessions, s: int, op: str, traced: bool,
                 meta: Optional[dict]) -> None:
        entry = sessions[s]
        session = entry["session"]
        lo = entry["fed"]
        events = self.streams[s][lo:lo + PAYLOAD_EVENTS]
        entry["fed"] = lo + len(events)
        if not traced:
            append = session.append
            for ev in events:
                append(*ev)
            session.flush()
            return
        sp = self.spans
        with sp.span("payload", op):
            with sp.span("stream.append"):
                append = session.append
                for ev in events:
                    append(*ev)
            if meta is not None and entry["bounded"]:
                # the buffer peaks here, before flush() lets it evict
                meta["retained"] = max(meta["retained"], len(session.compiled))
            with sp.span("stream.flush"):
                session.flush()

    def _live_layers(self, sessions, meta, rung) -> None:
        self.layers["live.gen_lag_ms_max"] = rung["lateness_max"] * 1e3
        self.layers["live.backlog_max_events"] = rung["backlog_max"]
        bounded = [e for e in sessions if e["bounded"]]
        self.layers["online.evictions"] = sum(
            e["spd"].stats()["evictions"] for e in bounded)
        self.layers["online.tracked_entries_max"] = max(
            e["spd"].stats()["tracked_entries"] for e in bounded)
        self.layers["stream.evicted_events"] = sum(
            e["session"].base for e in bounded)
        if not self.traced:
            return
        feed = {"online.feed.exact": 0.0, "online.feed.bounded": 0.0,
                "fasttrack.feed": 0.0}
        for e in sessions:
            for p in e["proxies"]:
                feed[p.label] += p.busy_s
        # spans of the nominal rung only (rung index 1)
        ops = {r["id"] for r in self.spans.records
               if r["name"] == "payload" and r["op"].startswith("rung1:")}
        flush = sum(r["dur"] for r in self.spans.records
                    if r["name"] == "stream.flush" and r["parent"] in ops) / 1e9
        append = sum(r["dur"] for r in self.spans.records
                     if r["name"] == "stream.append" and r["parent"] in ops) / 1e9
        self.layers.update({
            "stream.append_s": append,
            "stream.flush_self_s": flush - sum(feed.values()),
            "stream.retained_events_max": meta["retained"],
            "online.feed_s.exact": feed["online.feed.exact"],
            "online.feed_s.bounded": feed["online.feed.bounded"],
            "fasttrack.feed_s": feed["fasttrack.feed"],
        })

    def _check_sessions(self, sessions, n_payloads: int) -> Dict[int, bool]:
        """Exact sessions must equal ``spd_online``/``fasttrack_races`` over
        the events they were fed; bounded ones must report a subset.
        Returns the sessions that failed; their payloads count as failed."""
        refs = self._live_refs()
        bad: Dict[int, bool] = {}
        for i, e in enumerate(sessions):
            ref_dl, ref_races = refs[i]
            fed = e["fed"]
            want_dl = {p for p in ref_dl if p[1] < fed}
            want_races = {r for r in ref_races if r[1] < fed}
            got_dl = {(r.first_event, r.second_event) for r in e["spd"].reports}
            got_races = {(r.first_event, r.second_event, r.variable, r.kind)
                         for r in e["ft"].result.races}
            ok = got_races == want_races and (
                got_dl <= want_dl if e["bounded"] else got_dl == want_dl)
            if not ok:
                bad[i] = True
        if bad:
            per = n_payloads / SESSIONS
            self.fail(int(per * len(bad)),
                      f"live: sessions {sorted(bad)[:8]} differ from the reference")
        return bad

    def _live_refs(self):
        if self._refs is None:
            from repro.core import spd_online
            from repro.hb.fasttrack import fasttrack_races
            from repro.trace import CompiledTrace

            refs = []
            for events in self.streams:
                c = CompiledTrace("ref")
                for ev in events:
                    c.append(*ev)
                dl = {(r.first_event, r.second_event)
                      for r in spd_online(c).reports}
                races = {(r.first_event, r.second_event, r.variable, r.kind)
                         for r in fasttrack_races(c).races}
                refs.append((dl, races))
            self._refs = refs
        return self._refs

    # -- campaign ------------------------------------------------------------

    def _campaign(self) -> None:
        s = self.s
        cells = len(s.campaign.cells())
        cold, warm, exec_s, put_s, get_s, latency = [], [], [], [], [], []
        traced_cold = []
        hits = gets = 0
        outputs: Optional[List] = None
        counters: Dict[str, float] = {}
        events = 0
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < 2 or time.perf_counter() < deadline:
            traced_pass = self.traced and k % 2 == 1
            proxy = harness.TimedCache(
                s.cache if k == 0 else s.new_cache(),
                self.spans if traced_pass else None)
            if traced_pass:
                os.environ["REPRO_OBS"] = "1"   # workers roll up counters
            stamps: List[float] = []
            t = time.perf_counter()
            try:
                with self.spans.span("campaign.pass", f"cold:{k}"):
                    run = s.runner.run(
                        s.campaign, cache=proxy,
                        progress=lambda r: stamps.append(time.perf_counter()))
            finally:
                os.environ.pop("REPRO_OBS", None)
            wall = time.perf_counter() - t
            self.attempted += cells
            if not traced_pass:
                cold.append(wall)
                exec_s.append(sum(r.elapsed or 0.0 for r in run.results))
                put_s.append(proxy.put_s)
                latency.extend(x - t for x in stamps)
                events = sum(r.num_events or 0 for r in run.results)
            else:
                traced_cold.append(wall)
                self._cell_spans(run)
                for r in run.results:
                    for name, v in ((r.obs or {}).get("counters") or {}).items():
                        if name.startswith("kernels."):
                            counters[name] = counters.get(name, 0) + v
            this = self._check_cells(run, outputs)
            outputs = outputs or this
            for _ in range(10):
                warm_proxy = harness.TimedCache(proxy.inner)
                t = time.perf_counter()
                wrun = s.runner.run(s.campaign, cache=warm_proxy)
                warm.append(time.perf_counter() - t)
                get_s.append(warm_proxy.get_s)
                hits += warm_proxy.hits
                gets += warm_proxy.gets
                self.attempted += cells
                self._check_cells(wrun, outputs)
            k += 1
        self.timed_region_done()
        self.peak_rss_mb = harness.peak_rss_mb(children=True)
        lat = harness.tail(latency)
        self.passes = cold
        best = harness.fast_decile(cold)
        self.metrics.update({"analysis_s": best, "events_per_s": events / best})
        med_exec = statistics.median(exec_s)
        self.layers.update({
            "latency.p50_ms": lat["p50"] * 1e3,
            "latency.samples": lat["n"],
            "latency.tail_ms": lat["tail"] * 1e3,
            "latency.tail_pct": lat["pct"],
            "exp.cells_per_s": cells / statistics.median(cold),
            "exp.warm_cells_per_s": cells / statistics.median(warm),
            "exp.cell_exec_s": med_exec,
            "exp.cell_overhead_ms": 1e3 * (statistics.median(cold) * JOBS
                                           - med_exec) / cells,
            "cache.put_s": statistics.median(put_s),
            "cache.get_s": statistics.median(get_s),
            "cache.hit_ratio": hits / max(1, gets),
        })
        self.shape["cells"] = cells
        if self.traced and traced_cold:
            base = statistics.median(cold)
            self.layers["trace_overhead_pct"] = (
                100.0 * (statistics.median(traced_cold) - base) / base)
            self.kernel_counters = counters

    def _cell_spans(self, run) -> None:
        """Re-parent each worker's own ``cell`` span (``repro.obs``
        rollup; monotonic clocks are system-wide on Linux) under the
        pass span, with the cell as its operation."""
        parent = next(r["id"] for r in reversed(self.spans.records)
                      if r["name"] == "campaign.pass")
        for r in run.results:
            for sp in (r.obs or {}).get("spans") or []:
                if sp.get("name") == "cell":
                    self.spans.add("exp.cell", sp["ts"], sp["ts"] + sp["dur"],
                                   parent, f"cell:{r.index}",
                                   path="campaign.pass/exp.cell")

    def _check_cells(self, run, reference: Optional[List]) -> List:
        outputs = [(r.trace_name, r.detector_id, r.status, r.output)
                   for r in run.results]
        bad = sum(1 for o in outputs if o[2] != "ok")
        if bad:
            self.fail(bad, f"campaign: {bad} cells not ok")
        if reference is not None and outputs != reference:
            diff = sum(1 for a, b in zip(outputs, reference) if a != b)
            self.fail(max(1, diff), "campaign: outputs differ between passes")
        return outputs


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _dense_oracle(paths: List[str], verdicts: List) -> List[str]:
    """Pure-python backend as oracle, plus a validated witness schedule
    for every report; one input per worker, two workers."""
    import multiprocessing

    with multiprocessing.get_context("spawn").Pool(2) as pool:
        found = pool.starmap(_dense_oracle_one, zip(paths, verdicts))
        pool.close()
        pool.join()                      # workers have exited, not just stopped
    return [problem for problems in found for problem in problems]


def _dense_oracle_one(path: str, verdict) -> List[str]:
    import repro.kernels as kernels
    from repro.core import spd_offline
    from repro.reorder.witness import witness_for_pattern
    from repro.trace import as_trace, load_compiled_trace

    name = os.path.basename(path)
    trace = as_trace(load_compiled_trace(path))
    with kernels.use("python"):
        ref = spd_offline(trace, max_size=2)
    bad = []
    if sorted(r.pattern.events for r in ref.reports) != [tuple(v) for v in verdict]:
        bad.append(f"{name} differs from the python oracle")
    for events in verdict:
        if not witness_for_pattern(trace, events)[1]:
            bad.append(f"{name}: no witness for {events}")
    return bad
