"""Windowed (bounded-memory) mode vs full SPDOffline.

The deployment trade-off: a fraction of the trace in memory, identical
reports when bugs are window-local (they are, on the suite replicas),
documented misses when they are not.
"""

import pytest

from repro.core.spd_offline import spd_offline
from repro.stream.windowed import spd_offline_windowed
from repro.synth.suite import SUITE_BY_NAME, build_benchmark


@pytest.mark.benchmark(group="windowed")
def test_windowed_mode(benchmark):
    trace = build_benchmark(SUITE_BY_NAME["JDBCMySQL-4"])
    res = benchmark(lambda: spd_offline_windowed(trace, window=2_000, overlap=0.25))
    assert len(res.unique_bugs()) == 2


@pytest.mark.benchmark(group="windowed")
def test_full_mode_reference(benchmark):
    trace = build_benchmark(SUITE_BY_NAME["JDBCMySQL-4"])
    res = benchmark(lambda: spd_offline(trace))
    assert len(res.unique_bugs()) == 2
