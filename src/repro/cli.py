"""Command-line interface: ``repro-deadlock`` / ``python -m repro``.

Subcommands:

- ``analyze TRACE``   — run SPDOffline (default) or SPDOnline on a
  trace file in the STD text format and print the deadlock report.
- ``races TRACE``     — sync-preserving data-race prediction.
- ``stats TRACE``     — print the Table-1-style trace characteristics.
- ``generate SPEC``   — synthesize a benchmark-suite trace to stdout.
- ``witness TRACE I J`` — print a witness schedule for a size-2
  pattern, if the pattern is a sync-preserving deadlock.
- ``compare TRACE``   — run every detector and diff the verdicts.
- ``audit TRACE``     — the Section 6.1 false-negative classification.
- ``graph TRACE``     — abstract-lock-graph (or lock-order) DOT dump.
- ``bench run|report|diff`` — whole evaluation campaigns over
  detector×trace matrices (:mod:`repro.exp`), spread across worker
  processes with ``-j N`` and cached between runs.
- ``bench profile OUT/`` — top-k span tree + counter summary of a
  telemetry-enabled run (or one cell with ``--trace``/``--detector``).
- ``obs export RUN`` — convert a span log (``repro.obs``) to Chrome
  trace-event JSON loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.spd_offline import spd_offline
from repro.core.spd_online import spd_online
from repro.reorder.witness import witness_for_pattern
from repro.synth.suite import SUITE_BY_NAME, build_benchmark
from repro.trace.parser import format_trace, load_trace
from repro.trace.stats import compute_stats


def _print_windowed(args: argparse.Namespace, name: str, result) -> int:
    import json

    if args.json:
        print(json.dumps({
            "trace": name,
            "mode": "windowed",
            "window": args.window,
            "overlap": args.overlap,
            "max_memory_events": args.max_memory_events,
            "windows": result.windows,
            "deadlocks": [
                {"events": list(r.pattern.events),
                 "locations": list(r.locations)}
                for r in result.reports
            ],
            "elapsed_s": result.elapsed,
        }, indent=2))
    else:
        bound = (f", bounded at {args.max_memory_events} events"
                 if args.max_memory_events else "")
        print(f"{name}: {result.num_deadlocks} sync-preserving "
              f"deadlock(s) [windowed, {result.windows} window(s) of "
              f"{args.window}{bound}] in {result.elapsed:.3f}s")
        for r in result.reports:
            evs = ", ".join(f"e{i}" for i in r.pattern.events)
            print(f"  deadlock pattern <{evs}> at {' / '.join(r.locations)}")
    return 0 if result.num_deadlocks == 0 else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    if args.max_memory_events is not None:
        if args.max_memory_events < 1:
            print("--max-memory-events must be >= 1", file=sys.stderr)
            return 2
        if not args.stream and args.window is None:
            print("--max-memory-events requires --stream or --window "
                  "(the batch modes are unbounded by design)",
                  file=sys.stderr)
            return 2
    if args.max_cycles is not None and args.max_cycles < 1:
        print("--max-cycles must be >= 1", file=sys.stderr)
        return 2
    if args.stream:
        from repro.core.spd_online import SPDOnline
        from repro.stream import StreamSession

        session = StreamSession(name=args.trace,
                                max_memory_events=args.max_memory_events)
        detector = SPDOnline(max_memory_events=args.max_memory_events)
        session.attach(detector)
        import time as _time

        started = _time.perf_counter()
        session.feed_file(args.trace)
        session.close()
        elapsed = _time.perf_counter() - started
        stats = detector.stats()
        if args.json:
            print(json.dumps({
                "trace": args.trace,
                "mode": "stream",
                "max_memory_events": args.max_memory_events,
                "events": stats["events"],
                "evictions": stats["evictions"],
                "tracked_entries": stats["tracked_entries"],
                "deadlocks": [
                    {"events": [r.first_event, r.second_event],
                     "locations": list(r.locations)}
                    for r in detector.reports
                ],
                "elapsed_s": elapsed,
            }, indent=2))
        else:
            bound = (f", bounded at {args.max_memory_events} events, "
                     f"{stats['evictions']} eviction sweep(s)"
                     if args.max_memory_events else "")
            print(f"{args.trace}: {len(detector.reports)} sync-preserving "
                  f"deadlock report(s) [streaming, size 2, "
                  f"{stats['events']} events{bound}] in {elapsed:.3f}s")
            for r in detector.reports:
                print(f"  deadlock between events {r.first_event} and "
                      f"{r.second_event} (locations {r.locations[0]} / "
                      f"{r.locations[1]})")
        return 0 if not detector.reports else 1
    if args.window is not None and args.max_memory_events:
        # Bounded-memory windowed streaming: the file is parsed
        # incrementally and the session evicts everything older than
        # the open window — reports match the batch windowed engine.
        from repro.stream import StreamSession, WindowedSessionClient

        session = StreamSession(name=args.trace,
                                max_memory_events=args.max_memory_events)
        client = WindowedSessionClient(session, window=args.window,
                                       overlap=args.overlap,
                                       max_size=args.max_size)
        session.feed_file(args.trace)
        session.close()
        result = client.result
        return _print_windowed(args, args.trace, result)
    trace = load_trace(args.trace)
    if args.window is not None:
        from repro.stream.windowed import spd_offline_windowed

        result = spd_offline_windowed(
            trace, window=args.window, overlap=args.overlap,
            max_size=args.max_size,
        )
        return _print_windowed(args, trace.name, result)
    if args.online:
        result = spd_online(trace)
        if args.json:
            print(json.dumps({
                "trace": trace.name,
                "mode": "online",
                "deadlocks": [
                    {"events": [r.first_event, r.second_event],
                     "locations": list(r.locations)}
                    for r in result.reports
                ],
                "elapsed_s": result.elapsed,
            }, indent=2))
        else:
            print(f"{trace.name}: {result.num_reports} sync-preserving deadlock "
                  f"report(s) [online, size 2] in {result.elapsed:.3f}s")
            for r in result.reports:
                print(f"  deadlock between events {r.first_event} and "
                      f"{r.second_event} (locations {r.locations[0]} / "
                      f"{r.locations[1]})")
        return 0 if result.num_reports == 0 else 1
    result = spd_offline(trace, max_size=args.max_size,
                         max_cycles=args.max_cycles)
    capped = (args.max_cycles is not None
              and result.num_cycles >= args.max_cycles)
    if args.json:
        print(json.dumps({
            "trace": trace.name,
            "mode": "offline",
            "cycles": result.num_cycles,
            "max_cycles": args.max_cycles,
            "cycles_capped": capped,
            "abstract_patterns": result.num_abstract_patterns,
            "concrete_patterns": result.num_concrete_patterns,
            "deadlocks": [
                {"events": list(r.pattern.events), "locations": list(r.locations)}
                for r in result.reports
            ],
            "elapsed_s": result.elapsed,
        }, indent=2))
    else:
        print(f"{trace.name}: {result.num_deadlocks} sync-preserving deadlock(s) "
              f"[{result.num_cycles} cycles, {result.num_abstract_patterns} "
              f"abstract patterns, {result.num_concrete_patterns} concrete] "
              f"in {result.elapsed:.3f}s")
        if capped:
            print(f"  cycle enumeration stopped at --max-cycles {args.max_cycles}")
        for r in result.reports:
            evs = ", ".join(f"e{i}" for i in r.pattern.events)
            print(f"  deadlock pattern <{evs}> at {' / '.join(r.locations)}")
    return 0 if result.num_deadlocks == 0 else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    s = compute_stats(trace)
    print(f"name:        {s.name}")
    print(f"events:      {s.num_events}")
    print(f"threads:     {s.num_threads}")
    print(f"variables:   {s.num_variables}")
    print(f"locks:       {s.num_locks}")
    print(f"acquires:    {s.num_acquires} (+{s.num_requests} requests)")
    print(f"nesting:     {s.lock_nesting_depth}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = SUITE_BY_NAME.get(args.benchmark)
    if spec is None:
        print(f"unknown benchmark {args.benchmark!r}; options:", file=sys.stderr)
        print("  " + ", ".join(sorted(SUITE_BY_NAME)), file=sys.stderr)
        return 2
    sys.stdout.write(format_trace(build_benchmark(spec)))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    schedule, ok = witness_for_pattern(trace, (args.first, args.second))
    if not ok:
        print(f"<e{args.first}, e{args.second}> is not a sync-preserving deadlock")
        return 1
    print(f"witness schedule for <e{args.first}, e{args.second}>:")
    for idx in schedule:
        print(f"  {trace[idx]}")
    print(f"  -- both e{args.first} and e{args.second} now enabled: deadlock --")
    return 0


def _cmd_races(args: argparse.Namespace) -> int:
    from repro.core.races import sp_races

    trace = load_trace(args.trace)
    result = sp_races(trace, first_hit_per_pair=not args.all)
    print(f"{trace.name}: {result.num_races} sync-preserving race(s) "
          f"over {result.pairs_considered} conflicting group pair(s) "
          f"in {result.elapsed:.3f}s")
    for r in result.reports:
        print(f"  race on {r.variable}: events {r.first_event}/{r.second_event} "
              f"({r.locations[0]} / {r.locations[1]})")
    return 0 if result.num_races == 0 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_detectors

    trace = load_trace(args.trace)
    res = compare_detectors(trace, run_dirk=not args.no_dirk)
    print(res.summary())
    for label, bugs in (
        ("only SPDOffline (Fig. 5-style)", res.only_spd()),
        ("only SeqCheck (Fig. 6-style)", res.only_seqcheck()),
        ("only Dirk (value-relaxed)", res.only_dirk()),
    ):
        for bug in sorted(bugs):
            print(f"  {label}: {' / '.join(bug)}")
    for tool, secs in sorted(res.times.items()):
        print(f"  time {tool}: {secs:.3f}s")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.false_negatives import classify_patterns

    trace = load_trace(args.trace)
    report = classify_patterns(trace)
    print(f"{trace.name}: {report.summary()}")
    for cp in report.patterns:
        line = f"  {cp.abstract}: {cp.verdict.value}"
        if cp.witness is not None:
            line += f" (witness {cp.witness})"
        print(line)
    return 0 if report.num_potential_misses == 0 else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis.explain import explain_pattern

    trace = load_trace(args.trace)
    exp = explain_pattern(trace, (args.first, args.second))
    print(exp.render(trace))
    return 0 if exp.is_deadlock else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.trace.profile import profile_trace

    trace = load_trace(args.trace)
    p = profile_trace(trace)
    print(f"{trace.name}: {p.num_events} events, sync ratio "
          f"{100 * p.sync_ratio:.1f}%")
    print("hottest locks:")
    for lp in p.hottest_locks(8):
        shared = "shared" if lp.is_shared else "thread-local"
        print(f"  {lp.lock:20s} {lp.acquisitions:6d} acq  {shared:12s} "
              f"guarded={lp.guarded_acquires} max-span={lp.max_held_span}")
    prone = p.deadlock_prone_locks()
    print(f"deadlock-prone locks ({len(prone)}): {', '.join(prone) or '-'}")
    print("threads:")
    for tp in sorted(p.threads.values(), key=lambda t: -t.events)[:10]:
        print(f"  {tp.thread:12s} {tp.events:6d} events  "
              f"{tp.accesses:6d} accesses  {tp.acquisitions:5d} acq  "
              f"nesting<={tp.max_nesting}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.graph.dot import alg_to_dot, lock_order_to_dot

    trace = load_trace(args.trace)
    if args.lock_order:
        sys.stdout.write(lock_order_to_dot(trace) + "\n")
    else:
        sys.stdout.write(alg_to_dot(trace) + "\n")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    import json

    from repro.exp.campaign import CampaignError, load_campaign
    from repro.exp.cache import ResultCache
    from repro.exp.report import render_markdown, run_to_json
    from repro.exp.resilience import JOURNAL_NAME, RunJournal, locate_journal
    from repro.exp.runner import InlineRunner, ProcessPoolRunner

    try:
        campaign = load_campaign(args.campaign)
    except (CampaignError, OSError, ValueError) as exc:
        print(f"bad campaign: {exc}", file=sys.stderr)
        return 2
    if args.retries is not None:
        if args.retries < 1:
            print("--retries must be >= 1", file=sys.stderr)
            return 2
        campaign.retry = dict(campaign.retry or {},
                              max_attempts=args.retries)

    resume = None
    if args.resume:
        journal_path = locate_journal(args.resume)
        try:
            resume = RunJournal.load(journal_path)
        except OSError as exc:
            print(f"cannot load journal: {exc}", file=sys.stderr)
            return 2

    out_dir = args.out or os.path.join("bench_runs", campaign.name)
    os.makedirs(out_dir, exist_ok=True)

    # telemetry: --obs wins, then the campaign's [obs] table, then a
    # REPRO_OBS already in the environment.  The CLI exports the env
    # var so pool workers (fork or spawn) inherit the activation.
    import repro.obs as obs

    obs_dir = None
    if args.obs is not None:
        obs_dir = args.obs or os.path.join(out_dir, "obs")
    elif campaign.obs_enabled:
        obs_dir = os.path.join(out_dir, "obs")
    obs_env_before = os.environ.get(obs.ENV_VAR)
    if obs_dir is not None:
        obs_dir = os.path.abspath(obs_dir)
        os.environ[obs.ENV_VAR] = obs_dir
        obs.enable(obs_dir)
    else:
        obs.maybe_enable_from_env()

    cache_dir = os.path.join(out_dir, "cache")
    cache = None if args.no_cache else ResultCache(cache_dir)
    if args.jobs <= 1 or args.runner == "inline":
        runner = InlineRunner()
    else:
        runner = ProcessPoolRunner(jobs=args.jobs)

    def progress(res) -> None:
        if not args.quiet:
            mark = ("cached" if res.cached
                    else "journal" if res.replayed else res.status)
            print(f"  [{mark:>7s}] {res.trace_name} × {res.detector_id}",
                  file=sys.stderr)

    with RunJournal(os.path.join(out_dir, JOURNAL_NAME)) as journal:
        journal.start(campaign.name, resumed=resume is not None)
        run = runner.run(campaign, cache=cache, progress=progress,
                         journal=journal, resume=resume)
        journal.finalize(cells=run.num_cells, interrupted=run.interrupted)
    record = run_to_json(run)
    markdown = render_markdown(record)

    run_path = os.path.join(out_dir, "run.json")
    with open(run_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    md_path = os.path.join(out_dir, "report.md")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(markdown)

    if obs.enabled():
        obs.finish()
    if obs_dir is not None:
        # the CLI turned telemetry on, so it turns it off — in-process
        # callers (tests) must not observe a leaked global or env var
        obs.disable()
        if obs_env_before is None:
            os.environ.pop(obs.ENV_VAR, None)
        else:
            os.environ[obs.ENV_VAR] = obs_env_before

    print(markdown)
    counts = run.counts()
    summary = (f"{run.num_cells} cell(s) in {run.elapsed:.2f}s "
               f"({run.cache_hits} cached, {run.journal_replays} replayed, "
               f"{counts['timeout']} timeout, {counts['error']} error")
    if counts["quarantined"]:
        summary += f", {counts['quarantined']} quarantined"
    if counts["fault"]:
        summary += f", {counts['fault']} fault"
    summary += f") -> {run_path}"
    if obs_dir is not None:
        summary += (f"; telemetry -> {obs_dir} "
                    f"(inspect: bench profile {out_dir}, "
                    f"export: obs export {out_dir})")
    print(summary)
    if run.interrupted:
        print(f"interrupted: partial run journaled; resume with "
              f"--resume {out_dir}", file=sys.stderr)
        return 3
    bad = counts["error"] + counts["quarantined"] + counts["fault"]
    return 0 if bad == 0 else 3


def _cmd_bench_cache(args: argparse.Namespace) -> int:
    from repro.exp.cache import ResultCache

    if not args.verify:
        print("nothing to do: pass --verify to scan and prune the cache",
              file=sys.stderr)
        return 2
    root = args.dir
    nested = os.path.join(root, "cache")
    if not os.path.isdir(root):
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    if os.path.isdir(nested):            # accept a bench-run out dir
        root = nested
    stats = ResultCache(root).verify(prune=not args.no_prune)
    print(f"{root}: {stats['scanned']} entrie(s) scanned, "
          f"{stats['ok']} ok, {stats['corrupt']} corrupt, "
          f"{stats['pruned']} pruned")
    return 0 if stats["corrupt"] == 0 else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    import json

    from repro.exp.report import render_markdown

    with open(args.run, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    print(render_markdown(record))
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    import json

    from repro.exp.report import diff_runs

    with open(args.old, "r", encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, "r", encoding="utf-8") as fh:
        new = json.load(fh)
    diff = diff_runs(old, new)
    print(diff.markdown())
    return 0 if diff.clean else 1


def _cmd_bench_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import render_cell_profile, render_run_profile

    if bool(args.trace) != bool(args.detector):
        print("--trace and --detector go together (one cell has both "
              "coordinates)", file=sys.stderr)
        return 2
    try:
        if args.trace:
            text = render_cell_profile(args.out, args.trace, args.detector,
                                       top=args.top)
        else:
            text = render_run_profile(args.out, top=args.top)
    except (FileNotFoundError, KeyError) as exc:
        detail = exc.args[0] if exc.args else str(exc)
        print(f"bench profile: {detail}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.export import export_chrome

    doc, out_path = export_chrome(args.run, out=args.out)
    print(f"{len(doc['traceEvents'])} trace event(s) -> {out_path}")
    return 0


def _window_size(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("window must be >= 1")
    return value


def _overlap_fraction(text: str) -> float:
    value = float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError("overlap must be in [0, 1)")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="repro-deadlock",
        description="Sound dynamic deadlock prediction in linear time (PLDI 2023).",
    )
    parser.add_argument(
        "--kernels", choices=("auto", "numpy", "python"), default=None,
        help="kernel backend (default: REPRO_KERNELS env var, else "
             "auto = numpy when installed); every backend runs the same "
             "python code, and 'numpy' fails at startup without numpy")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="predict deadlocks in a trace file")
    p_an.add_argument("trace", help="trace file (STD text format)")
    mode = p_an.add_mutually_exclusive_group()
    mode.add_argument("--online", action="store_true", help="use SPDOnline (streaming, size 2)")
    mode.add_argument("--stream", action="store_true",
                      help="streaming session mode: parse the file "
                           "incrementally and run SPDOnline through "
                           "repro.stream (same reports as --online; "
                           "combine with --max-memory-events for bounded "
                           "memory on huge traces)")
    mode.add_argument("--window", type=_window_size, default=None, metavar="N",
                      help="bounded-memory mode: overlapping windows of N events")
    mode.add_argument("--max-cycles", type=int, default=None, metavar="N",
                      help="batch mode: stop enumerating lock-graph cycles "
                           "after N")
    p_an.add_argument("--max-size", type=int, default=None, help="cap deadlock size")
    p_an.add_argument("--overlap", type=_overlap_fraction, default=0.5,
                      help="window overlap fraction in [0, 1) "
                           "(with --window; default 0.5)")
    p_an.add_argument("--max-memory-events", type=int, default=None, metavar="M",
                      help="bounded-memory eviction horizon: with --stream, "
                           "evict detector state older than M events (sound, "
                           "may miss); with --window, stream the file and "
                           "evict session columns behind the open window")
    p_an.add_argument("--json", action="store_true", help="machine-readable output")
    p_an.set_defaults(func=_cmd_analyze)

    p_st = sub.add_parser("stats", help="print trace characteristics")
    p_st.add_argument("trace")
    p_st.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("generate", help="emit a benchmark-suite trace")
    p_gen.add_argument("benchmark", help="Table 1 benchmark name, e.g. Picklock")
    p_gen.set_defaults(func=_cmd_generate)

    p_wit = sub.add_parser("witness", help="witness schedule for a size-2 pattern")
    p_wit.add_argument("trace")
    p_wit.add_argument("first", type=int)
    p_wit.add_argument("second", type=int)
    p_wit.set_defaults(func=_cmd_witness)

    p_rc = sub.add_parser("races", help="sync-preserving race prediction")
    p_rc.add_argument("trace")
    p_rc.add_argument("--all", action="store_true",
                      help="enumerate beyond the first race per group pair")
    p_rc.set_defaults(func=_cmd_races)

    p_cmp = sub.add_parser("compare", help="run all detectors and diff verdicts")
    p_cmp.add_argument("trace")
    p_cmp.add_argument("--no-dirk", action="store_true",
                       help="skip the (slow) Dirk stand-in")
    p_cmp.set_defaults(func=_cmd_compare)

    p_aud = sub.add_parser("audit", help="false-negative classification (Sec. 6.1)")
    p_aud.add_argument("trace")
    p_aud.set_defaults(func=_cmd_audit)

    p_ex = sub.add_parser("explain", help="why is this pattern (not) a deadlock?")
    p_ex.add_argument("trace")
    p_ex.add_argument("first", type=int)
    p_ex.add_argument("second", type=int)
    p_ex.set_defaults(func=_cmd_explain)

    p_pr = sub.add_parser("profile", help="lock contention / thread breakdown")
    p_pr.add_argument("trace")
    p_pr.set_defaults(func=_cmd_profile)

    p_gr = sub.add_parser("graph", help="DOT dump of the abstract lock graph")
    p_gr.add_argument("trace")
    p_gr.add_argument("--lock-order", action="store_true",
                      help="emit the classic lock-order graph instead")
    p_gr.set_defaults(func=_cmd_graph)

    p_bench = sub.add_parser(
        "bench", help="run/report/diff evaluation campaigns (repro.exp)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_brun = bench_sub.add_parser("run", help="execute a campaign file")
    p_brun.add_argument("--campaign", required=True,
                        help="campaign spec (.toml or .json)")
    p_brun.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (1 = serial in-process)")
    p_brun.add_argument("--runner", choices=["process", "inline"],
                        default="process",
                        help="force the serial runner even with -j > 1")
    p_brun.add_argument("--out", default=None,
                        help="output directory (default bench_runs/<name>)")
    p_brun.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the result cache")
    p_brun.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress on stderr")
    p_brun.add_argument("--resume", default=None, metavar="RUN",
                        help="replay completed cells from a previous run's "
                             "journal (a run output directory or the "
                             "journal.jsonl itself) and execute only the "
                             "remainder")
    p_brun.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry failed cells up to N attempts with "
                             "backoff; cells still failing are quarantined "
                             "(overrides the campaign's [retry] "
                             "max_attempts)")
    p_brun.add_argument("--obs", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="enable engine telemetry (repro.obs): stream "
                             "the span log to DIR (default OUT/obs) and "
                             "embed per-cell wall/cpu/RSS rollups in "
                             "run.json; also enabled by a campaign [obs] "
                             "table or REPRO_OBS in the environment")
    p_brun.set_defaults(func=_cmd_bench_run)

    p_bcache = bench_sub.add_parser(
        "cache", help="inspect/repair a bench result cache"
    )
    p_bcache.add_argument("dir", help="bench-run output directory (or the "
                                      "cache directory itself)")
    p_bcache.add_argument("--verify", action="store_true",
                          help="scan every entry and prune corrupt ones")
    p_bcache.add_argument("--no-prune", action="store_true",
                          help="with --verify: report corrupt entries "
                               "without deleting them")
    p_bcache.set_defaults(func=_cmd_bench_cache)

    p_brep = bench_sub.add_parser("report", help="re-render a run.json")
    p_brep.add_argument("run", help="run.json from 'bench run'")
    p_brep.set_defaults(func=_cmd_bench_report)

    p_bdiff = bench_sub.add_parser(
        "diff", help="compare two runs cell-by-cell (exit 1 on changes)"
    )
    p_bdiff.add_argument("old", help="baseline run.json")
    p_bdiff.add_argument("new", help="candidate run.json")
    p_bdiff.set_defaults(func=_cmd_bench_diff)

    p_bprof = bench_sub.add_parser(
        "profile", help="top-k span tree + counters of a telemetry run"
    )
    p_bprof.add_argument("out", help="bench-run output directory (a run "
                                     "executed with --obs / REPRO_OBS)")
    p_bprof.add_argument("--trace", default=None,
                         help="render one cell instead (with --detector)")
    p_bprof.add_argument("--detector", default=None,
                         help="the cell's detector id (with --trace)")
    p_bprof.add_argument("-k", "--top", type=int, default=20,
                         help="span paths shown in the tree (default 20)")
    p_bprof.set_defaults(func=_cmd_bench_profile)

    p_obs = sub.add_parser(
        "obs", help="telemetry tooling (span logs from repro.obs)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_oexp = obs_sub.add_parser(
        "export", help="convert a span log to Chrome trace-event JSON"
    )
    p_oexp.add_argument("run", help="spans.jsonl, an obs directory, or a "
                                    "bench-run output directory")
    p_oexp.add_argument("-o", "--out", default=None,
                        help="output path (default: trace_events.json "
                             "beside the span log)")
    p_oexp.set_defaults(func=_cmd_obs_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and dispatch; returns the exit code, *propagates* exceptions.

    In-process callers (tests, scripting) get the raw exception; the
    process entry point (:func:`entry`) maps it to the exit-code
    contract below.
    """
    import repro.kernels as kernels

    args = build_parser().parse_args(argv)
    # Resolve eagerly: a numpy request (flag or REPRO_KERNELS) on a box
    # without numpy is a usage error at startup.
    if getattr(args, "kernels", None) is not None:
        # Scoped, not global: in-process callers (tests, scripting)
        # must not leak one invocation's backend into the next.
        with kernels.use(args.kernels):
            kernels.backend()
            return args.func(args)
    kernels.backend()
    return args.func(args)


#: exception types that mean "your input is bad", not "we broke".
def _usage_error_types():
    from repro.exp.campaign import CampaignError
    from repro.faults import FaultSpecError
    from repro.kernels import KernelsError
    from repro.trace.compiled import TraceReadError
    from repro.trace.parser import ParseError

    return (FileNotFoundError, IsADirectoryError, PermissionError,
            ParseError, TraceReadError, CampaignError, FaultSpecError,
            KernelsError)


def entry(argv: Optional[List[str]] = None) -> int:
    """Process entry point enforcing the exit-code contract:

    - ``0`` — success, nothing found;
    - ``1`` — findings (deadlocks/races reported, diff not clean,
      corrupt cache entries found);
    - ``2`` — usage or input error (bad flags, missing/corrupt files,
      malformed campaign);
    - ``3`` — internal error, or a run with crashed / quarantined /
      fault-injected cells;
    - ``130`` — interrupted (SIGINT convention).

    Every error is a single actionable line on stderr; set
    ``REPRO_DEBUG=1`` to re-raise with the full traceback.
    """
    try:
        return main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        code = 2 if isinstance(exc, _usage_error_types()) else 3
        kind = "error" if code == 2 else "internal error"
        detail = " ".join(str(exc).split()) or type(exc).__name__
        print(f"repro-deadlock: {kind}: {detail} "
              f"(set REPRO_DEBUG=1 for the traceback)", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(entry())
