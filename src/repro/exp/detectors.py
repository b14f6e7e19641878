"""The campaign detector registry.

Every detector the repo ships is exposed here under a stable name with
a uniform adapter signature ``adapter(trace, config) -> dict``.  The
returned dict is the cell's *output*: JSON-serializable, deterministic
for a fixed (trace, config) pair, and carrying a ``primary`` key — the
headline number a Table 2 cell displays (deadlocks for the deadlock
predictors, races for the race detectors, warnings for the unsound
screens).

Tool *failures by design* (SeqCheck on non-well-nested traces, Dirk
hitting its own budget) are part of the paper's evaluation — Table 1
prints them as ``F``/``TO`` — so adapters report them as data
(``failed: True`` / ``timed_out: True``) rather than raising; the
runner reserves ``status="error"`` for genuine crashes.

The detector modules are imported at the top of this module, so
importing the registry loads every detector: a pool parent that
imports it forks workers whose cells import nothing.  That includes
:mod:`repro.stream.windowed`, which ``spd_offline_windowed`` imports
only when called (the two modules import each other).

``_sleep`` and ``_crash`` are debug detectors used by the test suite
to exercise the runner's timeout and crash isolation; they are
excluded from :func:`detector_names`.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

import repro.obs as obs
import repro.stream.windowed  # noqa: F401  (see the module docstring)
from repro.baselines.dirk import dirk
from repro.baselines.goodlock import goodlock
from repro.baselines.naive import naive_sp_detector
from repro.baselines.seqcheck import SeqCheckFailure, seqcheck
from repro.baselines.undead import undead
from repro.core.races import sp_races
from repro.core.spd_offline import spd_offline
from repro.core.spd_online import spd_online
from repro.core.spd_online_k import spd_online_k
from repro.core.windowed import spd_offline_windowed
from repro.hb.fasttrack import fasttrack_races
from repro.trace.stats import compute_stats

Adapter = Callable[[object, dict], dict]

#: name -> adapter; see :func:`register` / :func:`get_adapter`.
_REGISTRY: Dict[str, Adapter] = {}

#: name -> telemetry wrapper around the registered adapter (memoized so
#: repeated get_adapter calls hand back one stable callable).
_WRAPPED: Dict[str, Adapter] = {}


def register(name: str) -> Callable[[Adapter], Adapter]:
    """Decorator registering an adapter under a campaign-file name."""
    def deco(fn: Adapter) -> Adapter:
        _REGISTRY[name] = fn
        return fn
    return deco


def _instrumented(name: str, fn: Adapter) -> Adapter:
    """The one telemetry wrapper every detector entry point runs under:
    a ``detector`` span around the adapter call.  ``functools.wraps``
    keeps the adapter's name and docstring, and its ``__wrapped__``
    lets :func:`get_adapter` tell whether the registration changed."""
    @functools.wraps(fn)
    def adapter(trace, config: dict) -> dict:
        with obs.span("detector", cat="detector", detector=name):
            return fn(trace, config)
    return adapter


def get_adapter(name: str) -> Adapter:
    """Resolve a registry name; raises ``KeyError`` listing options."""
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown detector {name!r}; options: {', '.join(detector_names())}"
        ) from None
    wrapped = _WRAPPED.get(name)
    if wrapped is None or wrapped.__wrapped__ is not fn:
        wrapped = _WRAPPED[name] = _instrumented(name, fn)
    return wrapped


def detector_names() -> List[str]:
    """Public detector names (debug detectors hidden)."""
    return sorted(n for n in _REGISTRY if not n.startswith("_"))


def _bug_list(bug_ids) -> List[List[str]]:
    """Canonical JSON form of a set of location-tuple bug ids."""
    return sorted([list(b) for b in bug_ids])


# -- trace characteristics (Table 1) ------------------------------------


@register("stats")
def _stats(trace, config: dict) -> dict:
    s = compute_stats(trace)
    out = s.as_dict()
    out["primary"] = s.num_events
    return out


# -- sync-preserving deadlock prediction (the paper's tools) ------------


@register("spd_offline")
def _spd_offline(trace, config: dict) -> dict:
    res = spd_offline(
        trace,
        max_size=config.get("max_size"),
        max_cycles=config.get("max_cycles"),
    )
    return {
        "primary": res.num_deadlocks,
        "deadlocks": res.num_deadlocks,
        "cycles": res.num_cycles,
        "abstract_patterns": res.num_abstract_patterns,
        "concrete_patterns": res.num_concrete_patterns,
        "bugs": _bug_list(res.unique_bugs()),
    }


@register("spd_online")
def _spd_online(trace, config: dict) -> dict:
    res = spd_online(trace)
    bugs = res.unique_bugs()
    return {
        "primary": len(bugs),
        "deadlocks": len(bugs),
        "reports": res.num_reports,
        "bugs": _bug_list(bugs),
    }


@register("spd_online_k")
def _spd_online_k(trace, config: dict) -> dict:
    det = spd_online_k(trace, max_size=config.get("max_size", 3))
    bugs = {r.bug_id for r in det.k_reports}
    return {
        "primary": len(bugs),
        "deadlocks": len(bugs),
        "reports": len(det.k_reports),
        "bugs": _bug_list(bugs),
    }


@register("windowed")
def _windowed(trace, config: dict) -> dict:
    res = spd_offline_windowed(
        trace,
        window=config.get("window", 50_000),
        overlap=config.get("overlap", 0.5),
        max_size=config.get("max_size"),
    )
    return {
        "primary": res.num_deadlocks,
        "deadlocks": res.num_deadlocks,
        "windows": res.windows,
        "bugs": _bug_list(res.unique_bugs()),
    }


# -- baselines ----------------------------------------------------------


@register("goodlock")
def _goodlock(trace, config: dict) -> dict:
    res = goodlock(trace)
    return {
        "primary": res.num_warnings,
        "warnings": res.num_warnings,
        "cycles": res.num_cycles,
    }


@register("undead")
def _undead(trace, config: dict) -> dict:
    res = undead(trace)
    return {
        "primary": res.num_warnings,
        "warnings": res.num_warnings,
        "dependencies": res.num_dependencies,
    }


@register("naive")
def _naive(trace, config: dict) -> dict:
    res = naive_sp_detector(trace)
    return {
        "primary": len(res.reports),
        "deadlocks": len(res.reports),
        "patterns_checked": res.patterns_checked,
        "bugs": _bug_list({r.bug_id for r in res.reports}),
    }


@register("seqcheck")
def _seqcheck(trace, config: dict) -> dict:
    try:
        res = seqcheck(
            trace,
            first_hit_per_abstract=not config.get("all_instantiations", True),
        )
    except SeqCheckFailure as exc:
        return {"primary": None, "deadlocks": None, "failed": True,
                "failure": str(exc)}
    bugs = {r.bug_id for r in res.reports}
    return {
        "primary": len(bugs),
        "deadlocks": len(bugs),
        "patterns_checked": res.patterns_checked,
        "bugs": _bug_list(bugs),
    }


@register("dirk")
def _dirk(trace, config: dict) -> dict:
    res = dirk(
        trace,
        window=config.get("window", 10_000),
        timeout=config.get("timeout", 30.0),
    )
    bugs = {r.bug_id for r in res.reports}
    return {
        "primary": len(bugs),
        "deadlocks": len(bugs),
        "windows": res.windows,
        "timed_out": res.timed_out,
        "bugs": _bug_list(bugs),
    }


# -- race detection -----------------------------------------------------


@register("fasttrack")
def _fasttrack(trace, config: dict) -> dict:
    res = fasttrack_races(trace)
    return {
        "primary": res.num_races,
        "races": res.num_races,
        "racy_variables": sorted(res.racy_variables()),
    }


@register("sp_races")
def _sp_races(trace, config: dict) -> dict:
    res = sp_races(
        trace,
        first_hit_per_pair=config.get("first_hit_per_pair", True),
    )
    return {
        "primary": res.num_races,
        "races": res.num_races,
        "pairs_considered": res.pairs_considered,
    }


# -- debug detectors (runner tests only) --------------------------------


@register("_sleep")
def _sleep(trace, config: dict) -> dict:
    time.sleep(float(config.get("seconds", 60.0)))
    return {"primary": 0, "slept": config.get("seconds", 60.0)}


@register("_crash")
def _crash(trace, config: dict) -> dict:
    mode = config.get("mode", "exit")
    if mode == "exit":                       # simulates a segfault/OOM kill
        import os
        import sys

        # last words on stderr: pins the pool's per-cell stderr capture
        sys.stderr.write("synthetic crash: about to _exit\n")
        sys.stderr.flush()
        os._exit(int(config.get("code", 139)))
    raise RuntimeError("synthetic detector crash")
