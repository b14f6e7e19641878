"""Fault-tolerant campaign execution: run journal, resume, retry policy.

A killed ``bench run`` used to forfeit every in-flight cell; a flaky
worker crash looked exactly like a poison cell.  This module gives the
runners (:mod:`repro.exp.runner`) the three pieces that fix that:

- :class:`RunJournal` — a crash-safe JSONL journal beside the result
  cache.  Every completed cell (and every retry attempt) is appended
  with flush + fsync, so the journal is a prefix-correct record of the
  run no matter where the process dies; the loader tolerates a torn
  final line.  Distinct from the cache on purpose: journal records are
  keyed *without* the code version (:func:`journal_key`), so a run
  interrupted while debugging cache-key invalidation still resumes.
- **Resume** (:meth:`RunJournal.load`): ``bench run --resume`` replays
  cells whose final outcome is journaled (``ok`` / ``timeout`` /
  ``quarantined`` — crashes and injected faults re-run, mirroring the
  cache's "errors always re-run" rule) and re-executes only the rest.
- :class:`RetryPolicy` — declarative per-campaign/per-detector retry:
  max attempts, exponential backoff with *deterministic seeded jitter*
  (two runs of the same campaign back off identically), and a
  ``retry_on`` set over the failure classes ``crash`` / ``timeout`` /
  ``fault``.  Cells that exhaust retries are *quarantined*: reported
  as their own status with full diagnostics (attempt timeline, exit
  detail, captured stderr tail) instead of aborting or silently
  degrading the campaign.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import repro.faults as faults
import repro.obs as obs

#: journal file name, always beside the cache under the run directory.
JOURNAL_NAME = "journal.jsonl"

JOURNAL_SCHEMA = 1

#: final outcomes resume may replay; crashes/faults always re-execute.
REPLAYABLE_STATUSES = ("ok", "timeout", "quarantined")

#: retry classes — what a failed attempt is classified as.
CLASS_CRASH = "crash"        # status "error": exception, signal, dead worker
CLASS_TIMEOUT = "timeout"    # status "timeout": wall-clock budget expired
CLASS_FAULT = "fault"        # status "fault": injected fault (repro.faults)

_STATUS_CLASS = {"error": CLASS_CRASH, "timeout": CLASS_TIMEOUT,
                 "fault": CLASS_FAULT}


def failure_class(status: str) -> Optional[str]:
    """The retry class of a cell status (None for non-failures)."""
    return _STATUS_CLASS.get(status)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry/backoff/quarantine policy for campaign cells.

    ``delay_for`` is deterministic: the jitter is seeded by ``(seed,
    cell key, attempt)``, so a re-run of the same campaign schedules
    byte-identical backoffs — chaos tests can assert timelines.
    """

    max_attempts: int = 1
    backoff: float = 0.05           # base delay before attempt 2, seconds
    backoff_factor: float = 2.0     # exponential growth per attempt
    max_backoff: float = 30.0       # delay ceiling
    jitter: float = 0.1             # +/- fraction of the delay
    seed: int = 0                   # jitter seed (deterministic)
    retry_on: Tuple[str, ...] = (CLASS_CRASH, CLASS_TIMEOUT, CLASS_FAULT)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")
        bad = set(self.retry_on) - {CLASS_CRASH, CLASS_TIMEOUT, CLASS_FAULT}
        if bad:
            raise ValueError(
                f"unknown retry_on classes {sorted(bad)} "
                f"(options: crash, timeout, fault)"
            )

    def should_retry(self, status: str, attempt: int) -> bool:
        """Retry after ``attempt`` (1-based) ended with ``status``?"""
        cls = failure_class(status)
        return (cls is not None and cls in self.retry_on
                and attempt < self.max_attempts)

    def exhausted(self, status: str, attempt: int) -> bool:
        """Did ``attempt`` exhaust the retry budget for ``status``?

        True only when retries were actually in play (``max_attempts >
        1``) — a policy-less campaign keeps the plain ``error`` /
        ``timeout`` statuses instead of quarantining everything.
        """
        cls = failure_class(status)
        return (cls is not None and cls in self.retry_on
                and self.max_attempts > 1 and attempt >= self.max_attempts)

    def delay_for(self, key: str, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` (deterministic)."""
        delay = min(self.backoff * (self.backoff_factor ** (attempt - 1)),
                    self.max_backoff)
        if self.jitter and delay:
            rng = random.Random(f"{self.seed}:{key}:{attempt}")
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def to_json(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "max_backoff": self.max_backoff,
            "jitter": self.jitter,
            "seed": self.seed,
            "retry_on": list(self.retry_on),
        }

    @classmethod
    def from_json(cls, data: Optional[dict],
                  base: Optional["RetryPolicy"] = None) -> "RetryPolicy":
        """Build from a spec dict, layering over ``base`` (a detector's
        ``retry`` table overrides only the fields it sets)."""
        merged = base.to_json() if base is not None else {}
        merged.update(data or {})
        if "retry_on" in merged:
            merged["retry_on"] = tuple(merged["retry_on"])
        try:
            return cls(**merged)
        except TypeError as exc:
            raise ValueError(f"bad retry policy spec: {exc}") from None


#: the do-nothing default: one attempt, classic error/timeout statuses.
NO_RETRY = RetryPolicy()


def journal_key(task) -> str:
    """The journal identity of a cell: everything the cache key hashes
    *except the code version*.  A journal must survive the exact
    situation where the cache goes cold — code edits mid-debug —
    because resume answers "which cells did this run already finish",
    not "is this result still valid for the current code"."""
    from repro.exp.cache import cell_key

    return cell_key(task.trace_digest, task.detector.name,
                    task.detector.config, task.timeout, task.repeats,
                    version="journal")


@dataclass
class JournalState:
    """Parsed journal contents (the resume input)."""

    path: str
    meta: Dict = field(default_factory=dict)
    #: journal key -> final cell record (latest wins)
    cells: Dict[str, dict] = field(default_factory=dict)
    #: journal key -> number of executed attempts
    attempts: Dict[str, int] = field(default_factory=dict)
    finalized: bool = False
    torn_lines: int = 0

    def replayable(self, key: str) -> Optional[dict]:
        """The journaled record to replay for ``key``, if its final
        status is one resume trusts."""
        rec = self.cells.get(key)
        if rec is not None and rec.get("status") in REPLAYABLE_STATUSES:
            return rec
        return None


class RunJournal:
    """Append-only JSONL journal of one campaign run.

    Records (one JSON object per line):

    - ``{"kind": "meta", ...}`` — run header (campaign name, schema);
    - ``{"kind": "attempt", "key": k, "attempt": n, "status": s, ...}``
      — one executed attempt (including the final one);
    - ``{"kind": "cell", "key": k, "result": {...}}`` — a cell's final
      outcome (what resume replays);
    - ``{"kind": "end", ...}`` — written by :meth:`finalize`; its
      absence marks an interrupted/crashed run.

    Writes are line-buffered with flush + fsync per record: a crash
    can tear at most the final line, which :meth:`load` tolerates.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    # -- writing -----------------------------------------------------------

    def _append(self, record: dict) -> None:
        data = json.dumps(record, sort_keys=True, separators=(",", ":"))
        torn = faults.torn_spec_for("journal_write", record)
        if self._fh is None:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        if torn is not None:
            keep = int(torn.get("keep", max(1, len(data) // 2)))
            self._fh.write(data[:keep])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            os._exit(int(torn.get("exit_code", 23)))
        faults.fire("journal_write", kind=record.get("kind"), **{
            k: v for k, v in record.items()
            if k in ("key", "attempt", "cells") and k != "kind"
        })
        self._fh.write(data + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        obs.count("journal.writes")
        obs.count(f"journal.{record.get('kind', 'unknown')}_records")

    def start(self, campaign_name: str, resumed: bool = False) -> None:
        self._append({"kind": "meta", "schema": JOURNAL_SCHEMA,
                      "campaign": campaign_name, "resumed": resumed})

    def record_attempt(self, key: str, attempt: int, status: str,
                       error: Optional[str] = None) -> None:
        rec = {"kind": "attempt", "key": key, "attempt": attempt,
               "status": status}
        if error:
            rec["error"] = error[-500:]
        self._append(rec)

    def record_cell(self, key: str, result_record: dict) -> None:
        self._append({"kind": "cell", "key": key, "result": result_record})

    def finalize(self, cells: int, interrupted: bool = False) -> None:
        self._append({"kind": "end", "cells": cells,
                      "interrupted": interrupted})
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> JournalState:
        """Parse a journal file into a :class:`JournalState`.

        Undecodable lines (a torn tail from a crash mid-append) are
        counted, not fatal: everything fsync'd before the tear is still
        trusted, which is the whole point of the journal.
        """
        state = JournalState(path=path)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    state.torn_lines += 1
                    continue
                kind = rec.get("kind")
                if kind == "meta":
                    state.meta = rec
                elif kind == "attempt" and "key" in rec:
                    state.attempts[rec["key"]] = (
                        state.attempts.get(rec["key"], 0) + 1
                    )
                elif kind == "cell" and "key" in rec and "result" in rec:
                    state.cells[rec["key"]] = rec["result"]
                elif kind == "end":
                    state.finalized = True
        obs.event("journal.loaded", path=path, cells=len(state.cells),
                  torn=state.torn_lines, finalized=state.finalized)
        return state


def locate_journal(run: str) -> str:
    """Resolve a ``--resume`` argument to a journal path: accepts the
    journal file itself or a run output directory containing one."""
    if os.path.isdir(run):
        return os.path.join(run, JOURNAL_NAME)
    return run
