"""Peak-memory benchmark for bounded streaming sessions.

The acceptance claim of the streaming refactor (ISSUE 5): a bounded
session analyzing an *unbounded* monitoring stream holds peak tracked
state O(window), not O(trace).  This benchmark streams a synthetic
1M-event workload — generated block-by-block, never materialized as a
whole — through a bounded :class:`repro.stream.StreamSession` driving
the windowed SPDOffline client and an eviction-mode SPDOnline, and
asserts, under ``tracemalloc``:

- the session evicted consumed columns (``session.base`` advanced) and
  the Python-heap peak stays under a fixed ceiling (tens of MB — the
  unbounded equivalent holds the full trace, index, and detector state,
  an order of magnitude more);
- SPDOnline's ``tracked_entries`` counter stays O(horizon + entities);
- the detectors still report (the run is not vacuous).

Measured numbers go to ``BENCH_stream.json`` at the repo root.  The
memory ceiling is machine-stable (allocation counts, not wall-clock),
so it is asserted even under ``REPRO_BENCH_SKIP_PERF=1``; only the
recorded throughput is informational.

With ``REPRO_BENCH_SKIP_PERF=1`` (CI) the stream is scaled down to
120k events so the job stays fast; the full 1M-event run is the
default for local / nightly execution and is what ``BENCH_stream.json``
records.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

from repro.core.spd_online import SPDOnline
from repro.stream import StreamSession, WindowedSessionClient

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_stream.json")

WINDOW = 50_000
FULL_EVENTS = 1_000_000
CI_EVENTS = 120_000
#: Python-heap ceiling for the bounded 1M-event session.  The retained
#: working set is ~2.5 windows of columns plus detector state; the
#: unbounded run's full columns + index alone exceed 150 MB.
PEAK_CEILING_MB = 64.0


def stream_workload(session: StreamSession, num_events: int) -> int:
    """Feed a deterministic lock-structured stream, block-interleaved.

    Threads take turns emitting complete blocks (a nested critical
    section over a per-thread lock pair — reversed every few rounds to
    seed size-2 deadlock patterns — or a burst of shared-variable
    traffic), so the trace is well-formed by construction and never
    exists in memory beyond the session's retained tail.
    """
    threads = [f"t{i}" for i in range(6)]
    append = session.append
    emitted = 0
    rnd = 0
    while emitted < num_events:
        rnd += 1
        for i, t in enumerate(threads):
            if emitted >= num_events:
                break
            if rnd % 31 == 0:
                # Guarded pair on the two global locks; odd threads
                # nest in the opposite order, seeding size-2 deadlock
                # patterns between nearby blocks.  Accesses stay
                # thread-local so no reads-from edge orders the blocks.
                l1, l2 = ("gA", "gB") if i % 2 == 0 else ("gB", "gA")
                if i >= 4:
                    continue  # two opposing pairs per pattern round suffice
                append(t, "acq", l1, f"s{i}a")
                append(t, "w", f"x{i}", None)
                append(t, "acq", l2, f"s{i}b")
                append(t, "r", f"x{i}", None)
                append(t, "rel", l2, None)
                append(t, "rel", l1, None)
                emitted += 6
            else:
                for k in range(8):
                    append(t, "w" if k % 2 else "r", f"y{i}_{k % 3}", None)
                emitted += 8
    session.flush()
    return emitted


def test_bounded_session_peak_memory(results_emitter):
    skip_perf = os.environ.get("REPRO_BENCH_SKIP_PERF") == "1"
    num_events = CI_EVENTS if skip_perf else FULL_EVENTS

    session = StreamSession(name="stream-mem", batch_size=8192,
                            max_memory_events=WINDOW)
    detector = SPDOnline(max_memory_events=WINDOW)
    session.attach(detector)
    client = WindowedSessionClient(session, window=WINDOW, overlap=0.5,
                                   max_size=2)

    tracemalloc.start()
    started = time.perf_counter()
    emitted = stream_workload(session, num_events)
    session.close()
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    peak_mb = peak / (1024 * 1024)
    stats = detector.stats()
    record = {
        "description": "bounded streaming session: 1M-event synthetic "
                       "stream, 50k window, tracemalloc peak "
                       "(benchmarks/test_stream_memory.py)",
        "events": emitted,
        "window": WINDOW,
        "peak_mb": round(peak_mb, 2),
        "peak_ceiling_mb": PEAK_CEILING_MB,
        "events_per_sec": round(emitted / elapsed, 1),
        "windows": client.result.windows,
        "windowed_deadlocks": client.result.num_deadlocks,
        "online_reports": len(detector.reports),
        "online_tracked_entries": stats["tracked_entries"],
        "online_evictions": stats["evictions"],
        "session_evicted_events": session.base,
    }

    # The run must exercise the machinery it claims to bound.
    assert session.base > 0, "session never evicted columns"
    assert stats["evictions"] > 0, "detector eviction never fired"
    assert client.result.windows >= 2
    assert client.result.num_deadlocks > 0 or len(detector.reports) > 0, \
        "vacuous stream: nothing was ever reported"
    # O(window) bounds: retained session columns and detector state.
    assert len(session.compiled) <= 3 * WINDOW + session.batch_size
    assert stats["tracked_entries"] <= 8 * WINDOW
    # The heap ceiling (machine-stable: allocation sizes, not timing).
    assert peak_mb <= PEAK_CEILING_MB, \
        f"bounded session peaked at {peak_mb:.1f} MB > {PEAK_CEILING_MB} MB"

    lines = ["# bounded streaming session — peak memory"]
    lines += [f"{k}: {v}" for k, v in record.items() if k != "description"]
    results_emitter("stream_memory.txt", "\n".join(lines))

    if not skip_perf:
        with open(BENCH_PATH, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


def test_unbounded_session_grows_for_contrast(results_emitter):
    """Reference point: the same stream unbounded keeps O(N) state.

    Run at a reduced length (the point is the *slope*, not a big
    number): the unbounded session retains every column while the
    bounded one above retains a constant-sized tail.
    """
    session = StreamSession(name="stream-mem-unbounded", batch_size=8192)
    detector = SPDOnline()
    session.attach(detector)
    stream_workload(session, CI_EVENTS)
    session.close()
    stats = detector.stats()
    # Nothing is ever dropped: the session keeps every column and the
    # detector keeps every critical-section record and log entry.
    assert session.base == 0
    assert len(session.compiled) >= CI_EVENTS
    assert stats["evictions"] == 0
    assert len(detector.histories.log) == stats["cs_records"] > 0
