#!/usr/bin/env bash
# CI entry point: tier-1 tests plus the perf smoke benchmark with the
# machine-relative throughput floors skipped (REPRO_BENCH_SKIP_PERF=1;
# detector-output bit-stability is still asserted).  See the
# re-baselining notes in benchmarks/test_perf_regression.py.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
export REPRO_BENCH_SKIP_PERF=1

echo "== byte-compile =="
python -m compileall -q src

echo "== lint (ruff) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
elif python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks
else
    echo "ruff not installed; skipping lint (CI installs it)"
fi

echo "== tier-1 tests (includes the property-equivalence suites:"
echo "   tests/test_perf_equivalence.py + tests/test_trace_index.py, the"
echo "   streaming-session slice: tests/test_stream.py, the resilience +"
echo "   chaos bit-identity suites: tests/test_resilience.py +"
echo "   tests/test_chaos.py (inline and process-pool runners), the"
echo "   2-cycle join differential: tests/test_alg_join.py, ALG's 2-cycles"
echo "   by a direct join against Johnson's algorithm; the prefix-walk"
echo "   differential: tests/test_prefix_walk.py, offline phase 2's"
echo "   prefix-closure walk against Algorithm 2's plain walk; and the"
echo "   per-thread check differential: tests/test_prefix_seed.py,"
echo "   SPDOnline/SPDOnlineK deciding each queued entry by P[new] or one"
echo "   joint fix-point against a persistent closure per context, fed by"
echo "   step(), run() and checkpoint/restore cuts (plus the wide-stream"
echo "   heap ceiling in tests/test_spd_online.py); the mixed-source"
echo "   differential:"
echo "   tests/test_mixed_feed.py, SPDOnline/SPDOnlineK/FastTrack fed by a"
echo "   session, step() and a second compiled trace at once against every"
echo "   event stepped into one detector; every kernel backend runs the"
echo "   same python code, so one run covers them all) =="
python -m pytest -x -q

echo "== runner leak check (dev mode: a file left unclosed, such as a cell's"
echo "   result or stderr file, fails the step; tests/test_pool.py also"
echo "   counts the parent's fds and live workers around each pool run) =="
python -X dev -m pytest -q -W error::ResourceWarning \
    -W error::pytest.PytestUnraisableExceptionWarning \
    tests/test_pool.py tests/test_chaos.py tests/test_exp.py \
    tests/test_resilience.py

echo "== examples (any non-zero exit fails) =="
for example in examples/*.py; do
    echo "-- $example --"
    python "$example" > /dev/null
done

echo "== campaign cache across processes (examples/paper_tables.toml run twice"
echo "   into one --out with -j 2, in fresh interpreters under different"
echo "   PYTHONHASHSEED values; the re-run must be served entirely from the"
echo "   cache, as README promises) =="
campaign_out=$(mktemp -d)
for hashseed in 1 2; do
    PYTHONHASHSEED=$hashseed python -m repro bench run \
        --campaign examples/paper_tables.toml -j 2 --out "$campaign_out" \
        --quiet > /dev/null
done
python - "$campaign_out/run.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    run = json.load(fh)
print(f"re-run: {run['cache_hits']} of {run['num_cells']} cells from the cache")
sys.exit(run["num_cells"] == 0 or run["cache_hits"] != run["num_cells"])
PY
rm -rf "$campaign_out"

echo "== perfbench harness tests (the repo benchmark every perf claim uses) =="
python -m pytest -q perfbench/tests

echo "== paper checks (the benchmarks/ files that pin the paper's claims:"
echo "   every Table 1 row's SPD and SeqCheck bug counts, Table 2,"
echo "   precision, figures, online-K, audit, races, windowed, closure"
echo "   ablation, hardness; benchmark timing loops off) =="
python -m pytest -q --benchmark-disable \
    benchmarks/test_table1.py benchmarks/test_table2.py \
    benchmarks/test_precision.py benchmarks/test_paper_figures.py \
    benchmarks/test_online_k.py benchmarks/test_audit.py \
    benchmarks/test_races.py benchmarks/test_windowed.py \
    benchmarks/test_ablation.py benchmarks/test_hardness.py

echo "== perf smoke + obs overhead (floors skipped) + bounded-memory ceiling =="
python -m pytest -q benchmarks/test_perf_regression.py \
    benchmarks/test_stream_memory.py

# Nightly-style long fuzz loops: opt in with e.g. REPRO_FUZZ_ITERS=5000
# (their quick slices above always run as part of tier-1).
# Non-numeric values (a mistyped workflow_dispatch input) are ignored
# rather than tripping set -e on the integer comparison.
case "${REPRO_FUZZ_ITERS:-0}" in
    ''|*[!0-9]*)
        echo "ignoring non-numeric REPRO_FUZZ_ITERS=${REPRO_FUZZ_ITERS:-}" ;;
    0)
        : ;;
    *)
        echo "== streaming + prefix-walk + per-thread check (prefix-seed) + mixed-feed fuzz loops + seeded detector fault sweeps (REPRO_FUZZ_ITERS=${REPRO_FUZZ_ITERS}) =="
        python -m pytest -q -m fuzz tests/test_stream.py tests/test_chaos.py \
            tests/test_prefix_walk.py tests/test_prefix_seed.py \
            tests/test_mixed_feed.py ;;
esac
