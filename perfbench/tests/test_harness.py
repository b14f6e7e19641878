"""Tests for the benchmark's own harness.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import math
import os
from types import SimpleNamespace

import pytest

import harness
import workloads


# -- percentiles --------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    t = harness.tail(list(range(1, 101)))
    assert t["n"] == 100
    assert t["tail"] == 90                      # 91..100 lie beyond it
    assert t["pct"] == 90.0
    assert t["p50"] == 50.5


def test_tail_falls_back_to_median_below_21_samples():
    t = harness.tail([5.0, 1.0, 3.0] * 6)       # 18 samples
    assert t["tail"] == t["p50"] == 3.0
    assert t["pct"] == 50.0
    assert harness.tail(list(range(21)))["tail"] == 10   # rank 10, ten beyond


def test_p99_needs_ten_samples_beyond():
    assert harness.p99(list(range(1, 1001))) == 990
    with pytest.raises(ValueError):
        harness.p99(list(range(999)))


# -- open loop ----------------------------------------------------------------


class FakeClock:
    """Time advances only when the system under test works or we sleep."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, dt):
        self.now += dt


def _drive(service, n=20, spacing=0.010):
    fc = FakeClock()

    def process(k):
        fc.now += service(k)

    due = [k * spacing for k in range(n)]
    return harness.run_open_loop(due, [16] * n, process, clock=fc.clock,
                                 sleep=fc.sleep)


def test_stall_raises_latency_of_following_payloads():
    base = _drive(lambda k: 0.001)
    stalled = _drive(lambda k: 0.050 if k == 5 else 0.001)
    assert all(x == pytest.approx(0.001) for x in base.latency)
    assert stalled.latency[5] == pytest.approx(0.050)
    # queued behind the stall: due at +10ms steps, started late
    later = stalled.latency[6:10]
    assert later == pytest.approx([0.041, 0.032, 0.023, 0.014])
    assert stalled.lateness[6] == pytest.approx(0.040)
    assert max(stalled.backlog) > 0 and max(base.backlog) == 0
    assert stalled.latency[12] == pytest.approx(0.001)


def test_failed_payload_misses_every_limit():
    def service(k):
        if k == 3:
            raise RuntimeError("boom")
        return 0.001

    res = _drive(service)
    assert res.failed[3] and not any(res.failed[:3])
    assert math.isinf(res.latency[3])


# -- ladder and backlog growth ------------------------------------------------


def test_lateness_growth_detected_only_when_overloaded():
    ok = _drive(lambda k: 0.009, n=300)          # 90% busy: keeps up
    over = _drive(lambda k: 0.012, n=300)        # 120% busy: falls behind
    assert not harness.lateness_grows(ok.lateness, 0.025)
    assert harness.lateness_grows(over.lateness, 0.025)
    assert max(over.backlog) > max(ok.backlog)


def test_sustained_picks_highest_rung_meeting_limit_without_growth():
    rungs = [
        {"rate": 5, "p99": 0.01, "grows": False},
        {"rate": 10, "p99": 0.05, "grows": False},
        {"rate": 20, "p99": 0.02, "grows": True},     # backlog grows
        {"rate": 40, "p99": 0.50, "grows": False},    # misses the limit
    ]
    assert harness.sustained(rungs, 0.1)["rate"] == 10
    assert harness.sustained(rungs[2:], 0.1) is None


# -- timing proxies -----------------------------------------------------------


def _stream(n=2_000, seed=3):
    from repro.synth.random_traces import RandomTraceConfig, generate_random_trace

    trace = generate_random_trace(RandomTraceConfig(
        num_threads=4, num_locks=5, num_vars=8, num_events=n,
        acquire_prob=0.25, max_nesting=2, seed=seed))
    return [(e.thread, e.op, e.target, e.loc) for e in trace]


def _feed(session, events, payload=16):
    for i in range(0, len(events), payload):
        for ev in events[i:i + payload]:
            session.append(*ev)
        session.flush()


def test_proxy_keeps_eviction_working():
    from repro.core import SPDOnline
    from repro.stream import StreamSession

    session = StreamSession("s", batch_size=32, max_memory_events=128)
    spd = SPDOnline(max_memory_events=128)
    proxy = harness.TimedConsumer(spd, "online.feed.bounded")
    session.attach(proxy)
    _feed(session, _stream())
    assert session.base > 0
    assert spd.stats()["evictions"] > 0
    assert proxy.busy_s > 0


def test_proxy_forwards_retain_from_and_finish():
    from repro.stream import StreamSession

    class Keeper:
        finished = False

        def feed_batch(self, compiled, lo, hi, base=0):
            pass

        def retain_from(self):
            return 0                     # still needs the whole history

        def finish(self):
            Keeper.finished = True

    session = StreamSession("s", batch_size=32, max_memory_events=128)
    session.attach(harness.TimedConsumer(Keeper(), "keeper"))
    _feed(session, _stream(500))
    assert session.base == 0             # the proxy passed retain_from on
    session.close()
    assert Keeper.finished


def test_timed_cache_counts_hits():
    store = {"a": {"status": "ok"}}
    cache = harness.TimedCache(SimpleNamespace(
        get=store.get, put=store.__setitem__, root="r"))
    assert cache.get("a") and cache.get("b") is None
    cache.put("b", {"status": "ok"})
    assert (cache.gets, cache.hits, cache.puts) == (2, 1, 1)
    assert cache.root == "r"


# -- spans --------------------------------------------------------------------


def test_spans_use_obs_record_shape_and_account_for_parents():
    from repro.obs.profile import aggregate_spans

    sp = harness.Spans()
    with sp.span("input", "input:0"):
        with sp.span("trace.load"):
            pass
        with sp.span("vc.trf"):
            pass
    recs = sp.records
    parent = next(r for r in recs if r["name"] == "input")
    kids = [r for r in recs if r["parent"] == parent["id"]]
    assert {r["op"] for r in recs} == {"input:0"}
    assert {r["path"] for r in kids} == {"input/trace.load", "input/vc.trf"}
    assert set(aggregate_spans(recs)) == {"input", "input/trace.load",
                                          "input/vc.trf"}
    assert 0.0 <= harness.unaccounted_share(recs, "input") <= 1.0


# -- a perturbed verdict shows up as an error ---------------------------------


@pytest.fixture
def tiny_dense(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_TRACES", 2)
    monkeypatch.setattr(workloads, "DENSE", dict(workloads.DENSE, num_events=300))
    inputs = str(tmp_path / "in")
    shape = workloads.generate("pattern_dense", 7, inputs)
    setup = workloads.Setup("pattern_dense", inputs, str(tmp_path / "w"))
    run = workloads.Run(setup, 7, 0.0, False, shape)
    run._offline(max_size=2)
    return run


def test_offline_verdicts_pass_their_oracle(tiny_dense):
    assert any(tiny_dense.ref_verdicts)
    tiny_dense.verify_dense()
    assert tiny_dense.failed == 0 and tiny_dense.attempted > 0


def test_perturbed_offline_verdict_counts_as_failed(tiny_dense):
    victim = next(i for i, v in enumerate(tiny_dense.ref_verdicts) if v)
    tiny_dense.ref_verdicts[victim] = tiny_dense.ref_verdicts[victim][1:]
    tiny_dense.verify_dense()
    assert tiny_dense.failed > 0
    assert tiny_dense.failed / tiny_dense.attempted > 0


def test_perturbed_campaign_output_counts_as_failed():
    run = workloads.Run.__new__(workloads.Run)
    run.failed, run.problems = 0, []
    cell = lambda out: SimpleNamespace(trace_name="t", detector_id="d",  # noqa: E731
                                       status="ok", output=out)
    ref = run._check_cells(SimpleNamespace(results=[cell({"primary": 1})]), None)
    run._check_cells(SimpleNamespace(results=[cell({"primary": 1})]), ref)
    assert run.failed == 0
    run._check_cells(SimpleNamespace(results=[cell({"primary": 2})]), ref)
    assert run.failed == 1


def test_perturbed_live_report_counts_as_failed():
    from repro.core.spd_online import OnlineReport

    run = workloads.Run.__new__(workloads.Run)
    run.failed, run.problems, run._refs = 0, [], None
    run.streams = [_stream(200, seed=i) for i in range(workloads.SESSIONS)]
    sessions = workloads.build_sessions(traced=False)
    for s in range(workloads.SESSIONS):
        for _ in range(4):
            run._payload(sessions, s, "", False, None)
    assert run._check_sessions(sessions, 4 * workloads.SESSIONS) == {}
    assert run.failed == 0
    sessions[0]["spd"].reports.append(
        OnlineReport(1, 2, ("a", "b", "c", "d"), ("x", "y")))
    assert run._check_sessions(sessions, 4 * workloads.SESSIONS) == {0: True}
    assert run.failed == 4


def test_benchmark_json_names_every_metric_the_harness_prints():
    import json

    import run

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
