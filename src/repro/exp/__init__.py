"""``repro.exp`` — parallel experiment orchestration.

The paper's evaluation is a detector×benchmark matrix (Tables 1-2);
this package runs such matrices as *campaigns*:

- :mod:`repro.exp.campaign` — declarative campaign specs (Python API
  plus TOML/JSON files): trace sources × detector configs, timeouts,
  repetition counts;
- :mod:`repro.exp.detectors` — the detector registry mapping campaign
  names (``spd_offline``, ``spd_online``, ``fasttrack``, ...) to
  normalized adapters;
- :mod:`repro.exp.runner` — a multiprocess runner with per-cell
  wall-clock timeouts and crash isolation, plus a serial in-process
  runner with identical result semantics;
- :mod:`repro.exp.cache` — a content-addressed result cache keyed by
  (trace digest, detector, config, code version), so re-running a
  campaign only executes changed cells;
- :mod:`repro.exp.report` — paper-style Table 1 / Table 2 emitters
  (Markdown + JSON) and a run-to-run diff;
- :mod:`repro.exp.resilience` — the fault-tolerance layer: crash-safe
  run journal + resume, declarative retry/backoff policies, and
  quarantine for cells that exhaust their retries.

The CLI front door is ``repro-deadlock bench run|report|diff``.
"""

from repro.exp.cache import ResultCache, cell_key, code_version
from repro.exp.campaign import (
    Campaign,
    CampaignError,
    DetectorSpec,
    TraceSource,
    load_campaign,
)
from repro.exp.resilience import (
    JournalState,
    RetryPolicy,
    RunJournal,
    journal_key,
    locate_journal,
)
from repro.exp.runner import CellResult, CellTask, InlineRunner, ProcessPoolRunner, RunResult
from repro.exp.report import diff_runs, render_markdown, run_to_json

__all__ = [
    "Campaign",
    "CampaignError",
    "CellResult",
    "CellTask",
    "DetectorSpec",
    "InlineRunner",
    "JournalState",
    "ProcessPoolRunner",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "RunResult",
    "TraceSource",
    "cell_key",
    "code_version",
    "diff_runs",
    "journal_key",
    "load_campaign",
    "locate_journal",
    "render_markdown",
    "run_to_json",
]
