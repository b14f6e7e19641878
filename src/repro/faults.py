"""Deterministic fault injection for the resilience test harness.

Every recovery path in the execution layer (:mod:`repro.exp`) is
proven by injecting the fault it recovers from and asserting the run's
final output is bit-identical to an undisturbed run.  That proof needs
faults that are *deterministic* (seeded, matched on exact cell
coordinates — never "random 1% of the time") and that *reach forked
workers* (the process-pool runner re-executes cells in child
processes, so an injector configured only in the parent's memory would
never fire where the crash matters).

Activation is therefore environment-driven: :data:`ENV_VAR` holds a
JSON list of fault specs, which forked/spawned workers inherit for
free.  Production code calls :func:`fire` at a handful of named
points; with no specs active (the normal case) that is one cached dict
lookup and a ``None`` check.

Fire points currently instrumented:

- ``cell`` — entry of :func:`repro.exp.runner.run_cell`, context
  ``index`` / ``attempt`` / ``detector`` / ``trace``;
- ``std_read`` — per line-chunk of the streaming STD reader, context
  ``path``;
- ``journal_write`` — before a :class:`repro.exp.resilience.RunJournal`
  record is appended, context ``kind`` (and ``cells`` for final
  records);
- ``pool_tick`` — each scheduler pass of the process-pool runner
  (one per wake-up: a worker exit, a deadline, a retry coming due or
  a signal), context ``done`` (completed cell count).

Actions:

- ``raise`` — raise :class:`InjectedFault` (a typed, retryable error:
  the runner maps it to ``status="fault"``);
- ``crash`` — ``os._exit(spec["exit_code"])``, simulating a
  segfault/OOM kill (default exit code 139);
- ``stall`` — sleep ``spec["delay"]`` seconds (default 3600), long
  enough to trip any configured wall-clock timeout;
- ``sigint`` / ``sigterm`` — deliver the signal to the current
  process, exercising the drain-and-finalize path;
- ``torn`` — used by the journal: write only ``spec["keep"]`` bytes
  (default half) of the record, then ``os._exit`` — a torn tail the
  loader must tolerate.

A spec fires when its ``point`` matches and every key of its ``when``
dict equals the corresponding :func:`fire` context value, at most
``count`` times (default 1) per process — so "crash attempt 1 of cell
3" fires exactly once and the retry proceeds undisturbed.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Tuple

ENV_VAR = "REPRO_FAULTS"


class InjectedFault(Exception):
    """A deterministic injected failure (``status="fault"`` in cells)."""


class FaultSpecError(ValueError):
    """Malformed :data:`ENV_VAR` contents."""


#: the instrumented fire points (see the module docstring).
_VALID_POINTS = ("cell", "std_read", "journal_write", "pool_tick")

_VALID_ACTIONS = ("raise", "crash", "stall", "sigint", "sigterm", "torn")

#: parsed spec cache: (env string) -> spec list; fire counts ride along
#: so a changed env (tests monkeypatching) resets both.
_parsed: Optional[Tuple[str, List[dict], List[int]]] = None


def parse_specs(raw: str) -> List[dict]:
    """Parse and validate a JSON fault-spec list (raises on nonsense —
    a mistyped chaos-test spec must fail loudly, not silently never
    fire)."""
    try:
        specs = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FaultSpecError(f"{ENV_VAR}: invalid JSON: {exc}") from None
    if not isinstance(specs, list):
        raise FaultSpecError(f"{ENV_VAR}: expected a JSON list of specs")
    for spec in specs:
        if not isinstance(spec, dict) or "point" not in spec:
            raise FaultSpecError(f"{ENV_VAR}: spec needs a 'point': {spec!r}")
        if spec["point"] not in _VALID_POINTS:
            raise FaultSpecError(
                f"{ENV_VAR}: unknown point {spec['point']!r} "
                f"(options: {', '.join(_VALID_POINTS)})"
            )
        action = spec.get("action", "raise")
        if action not in _VALID_ACTIONS:
            raise FaultSpecError(
                f"{ENV_VAR}: unknown action {action!r} "
                f"(options: {', '.join(_VALID_ACTIONS)})"
            )
        if not isinstance(spec.get("when", {}), dict):
            raise FaultSpecError(f"{ENV_VAR}: 'when' must be a dict: {spec!r}")
    return specs


def _active() -> Optional[Tuple[List[dict], List[int]]]:
    global _parsed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        if _parsed is not None:
            _parsed = None
        return None
    if _parsed is None or _parsed[0] != raw:
        specs = parse_specs(raw)
        _parsed = (raw, specs, [0] * len(specs))
    return _parsed[1], _parsed[2]


def install(specs: List[dict]) -> None:
    """Activate ``specs`` for this process *and its future children*
    (writes :data:`ENV_VAR`; call :func:`clear` to deactivate)."""
    os.environ[ENV_VAR] = json.dumps(parse_specs(json.dumps(specs)))


def clear() -> None:
    """Deactivate injection (removes :data:`ENV_VAR`)."""
    os.environ.pop(ENV_VAR, None)


def _matches(spec: dict, ctx: Dict) -> bool:
    for key, want in spec.get("when", {}).items():
        if key not in ctx or ctx[key] != want:
            return False
    return True


def fire(point: str, **ctx) -> None:
    """Trigger any active fault spec matching ``point`` + ``ctx``.

    No-op (one env lookup) when injection is inactive.  May raise
    :class:`InjectedFault`, sleep, signal, or exit the process,
    depending on the matched spec's action.
    """
    active = _active()
    if active is None:
        return
    specs, fired = active
    for i, spec in enumerate(specs):
        if spec.get("point") != point:
            continue
        if fired[i] >= spec.get("count", 1):
            continue
        if not _matches(spec, ctx):
            continue
        fired[i] += 1
        _act(spec, point, ctx)


def _act(spec: dict, point: str, ctx: Dict) -> None:
    action = spec.get("action", "raise")
    if action == "raise":
        raise InjectedFault(
            f"injected fault at {point} ({json.dumps(ctx, sort_keys=True, default=str)})"
        )
    if action == "crash":
        os._exit(int(spec.get("exit_code", 139)))
    if action == "stall":
        import time

        time.sleep(float(spec.get("delay", 3600.0)))
        return
    if action in ("sigint", "sigterm"):
        import signal

        sig = signal.SIGINT if action == "sigint" else signal.SIGTERM
        os.kill(os.getpid(), sig)
        return
    if action == "torn":
        # handled by a cooperating writer (it needs the record bytes);
        # reaching here means the spec matched a point that cannot
        # tear — a plain injected fault so the test notices.
        raise InjectedFault(
            f"writer-cooperative 'torn' fault matched non-writer point {point}")


def torn_spec_for(point: str, ctx: Dict) -> Optional[dict]:
    """The matching ``torn`` spec for a write about to happen, if any
    (consumes a fire).  The journal calls this instead of :func:`fire`
    so it can emit the partial bytes itself."""
    active = _active()
    if active is None:
        return None
    specs, fired = active
    for i, spec in enumerate(specs):
        if (spec.get("point") == point and spec.get("action") == "torn"
                and fired[i] < spec.get("count", 1) and _matches(spec, ctx)):
            fired[i] += 1
            return spec
    return None


# -- deterministic file corruption helpers (chaos tests) ----------------------


def flip_byte(path: str, seed: int = 0, offset: Optional[int] = None) -> int:
    """XOR one byte of ``path`` with 0xFF in place; returns the offset.

    The offset is drawn from ``random.Random(seed)`` over the file
    length, so a given (file, seed) pair always corrupts the same byte
    — chaos runs are replayable.
    """
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not data:
        raise ValueError(f"{path}: cannot corrupt an empty file")
    if offset is None:
        offset = random.Random(seed).randrange(len(data))
    data[offset] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    return offset


def truncate_file(path: str, seed: int = 0, keep: Optional[int] = None) -> int:
    """Truncate ``path`` to a seed-chosen prefix; returns the new size.

    Keeps at least one byte and strictly fewer than all, so the result
    is always a *proper* truncation.
    """
    size = os.path.getsize(path)
    if size < 2:
        raise ValueError(f"{path}: too small to truncate meaningfully")
    if keep is None:
        keep = 1 + random.Random(seed).randrange(size - 1)
    keep = max(1, min(keep, size - 1))
    with open(path, "rb+") as fh:
        fh.truncate(keep)
    return keep
