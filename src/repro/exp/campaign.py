"""Declarative campaign specs: trace sources × detector configs.

A :class:`Campaign` is the unit the runner executes — the evaluation
matrix of the paper expressed as data.  It can be built directly in
Python (the perf benchmark does) or loaded from a TOML/JSON file
(:func:`load_campaign`), e.g.::

    name = "paper-tables"
    default_timeout = 120.0

    [[traces]]
    kind = "file"
    glob = "corpus/*.std"          # relative to this file

    [[traces]]
    kind = "synth"
    benchmark = "Picklock"         # a Table 1 row replica

    [[detectors]]
    name = "spd_offline"

    [[detectors]]
    name = "windowed"
    config = { window = 2000 }
    only = ["sigma*"]              # fnmatch over trace names
    retry = { max_attempts = 1 }   # opt this column out of retries

    [retry]                        # campaign-wide RetryPolicy
    max_attempts = 3               # (see repro.exp.resilience); a
    backoff = 1.0                  # detector's own retry table is
    jitter = 0.25                  # layered on top of it

Trace sources know how to *digest* themselves (the content address the
result cache keys on) and how to *load* themselves inside a worker
process; detectors are registry names plus a JSON-able config.
"""

from __future__ import annotations

import fnmatch
import glob as globlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exp.detectors import get_adapter


class CampaignError(Exception):
    """Malformed campaign spec."""


_SUITE_ENV_CAPS = ("REPRO_SUITE_MAX_EVENTS", "REPRO_SUITE_MAX_THREADS",
                   "REPRO_SUITE_MAX_LOCKS", "REPRO_SUITE_MAX_VARS")


@dataclass
class TraceSource:
    """One trace of the campaign matrix.

    Kinds:

    - ``file``: an on-disk STD trace (``.std`` / ``.std.gz``);
    - ``synth``: a Table 1 benchmark replica from
      :data:`repro.synth.suite.SUITE_BY_NAME` (generated in the worker);
    - ``random``: a :class:`~repro.synth.random_traces.RandomTraceConfig`
      workload (the perf benchmark's traces).
    """

    kind: str
    name: str
    path: Optional[str] = None          # kind == "file"
    benchmark: Optional[str] = None     # kind == "synth"
    params: Dict = field(default_factory=dict)  # kind == "random"

    def __post_init__(self) -> None:
        if self.kind not in ("file", "synth", "random"):
            raise CampaignError(f"unknown trace kind {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise CampaignError(f"trace {self.name!r}: {self.kind} kind needs a path")
        if self.kind == "synth" and not self.benchmark:
            raise CampaignError(f"trace {self.name!r}: synth kind needs a benchmark")

    def digest(self) -> str:
        """Content address of the trace (what the cache keys on).

        Files hash their bytes; generated sources hash the generator
        identity and every knob that affects the emitted events (for
        suite replicas that includes the scaling-cap environment).
        """
        h = hashlib.sha256()
        if self.kind == "file":
            with open(self.path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        elif self.kind == "synth":
            caps = {k: os.environ.get(k) for k in _SUITE_ENV_CAPS}
            h.update(json.dumps(["synth", self.benchmark, caps],
                                sort_keys=True).encode())
        else:
            h.update(json.dumps(["random", self.params],
                                sort_keys=True).encode())
        return h.hexdigest()

    def load(self):
        """Materialize the trace (called inside the worker process)."""
        if self.kind == "file":
            from repro.trace.compiled import load_compiled_trace

            return load_compiled_trace(self.path, name=self.name)
        if self.kind == "synth":
            from repro.synth.suite import SUITE_BY_NAME, build_benchmark
            from repro.trace.compiled import compile_trace

            spec = SUITE_BY_NAME.get(self.benchmark)
            if spec is None:
                raise CampaignError(f"unknown suite benchmark {self.benchmark!r}")
            return compile_trace(build_benchmark(spec), name=self.name)
        from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
        from repro.trace.compiled import compile_trace

        return compile_trace(
            generate_random_trace(RandomTraceConfig(**self.params)),
            name=self.name,
        )

    def to_json(self) -> dict:
        out = {"kind": self.kind, "name": self.name}
        if self.path:
            out["path"] = self.path
        if self.benchmark:
            out["benchmark"] = self.benchmark
        if self.params:
            out["params"] = self.params
        return out


@dataclass
class DetectorSpec:
    """One detector column: registry name + config + cell policy.

    ``retry`` is a raw :class:`~repro.exp.resilience.RetryPolicy` spec
    dict; it layers over the campaign-level policy field by field (the
    effective policy is resolved in :meth:`Campaign.cells`).
    """

    name: str
    id: str = ""                        # display id; defaults to name
    config: Dict = field(default_factory=dict)
    timeout: Optional[float] = None     # None = campaign default
    repeats: Optional[int] = None       # None = campaign default
    only: List[str] = field(default_factory=list)  # fnmatch over trace names
    retry: Optional[Dict] = None        # RetryPolicy overrides

    def __post_init__(self) -> None:
        try:
            get_adapter(self.name)      # fail fast on unknown detectors
        except KeyError as exc:
            raise CampaignError(exc.args[0]) from None
        if self.timeout is not None and self.timeout <= 0:
            raise CampaignError(
                f"detector {self.name!r}: timeout must be positive "
                "(omit it for no timeout)"
            )
        if self.retry is not None:
            from repro.exp.resilience import RetryPolicy

            try:                        # fail fast on a bad spec
                RetryPolicy.from_json(self.retry)
            except ValueError as exc:
                raise CampaignError(
                    f"detector {self.name!r}: {exc}") from None
        if not self.id:
            self.id = self.name

    def applies_to(self, trace_name: str) -> bool:
        return not self.only or any(
            fnmatch.fnmatchcase(trace_name, pat) for pat in self.only
        )

    def to_json(self) -> dict:
        out = {"name": self.name, "id": self.id}
        if self.config:
            out["config"] = self.config
        if self.timeout is not None:
            out["timeout"] = self.timeout
        if self.repeats is not None:
            out["repeats"] = self.repeats
        if self.only:
            out["only"] = self.only
        if self.retry is not None:
            out["retry"] = self.retry
        return out


@dataclass
class Campaign:
    """The full matrix: every applicable (trace, detector) pair."""

    name: str
    traces: List[TraceSource] = field(default_factory=list)
    detectors: List[DetectorSpec] = field(default_factory=list)
    default_timeout: Optional[float] = 120.0
    default_repeats: int = 1
    include_stats: bool = True          # implicit Table 1 stats cell per trace
    retry: Optional[Dict] = None        # campaign-wide RetryPolicy spec
    obs: Optional[Dict] = None          # telemetry: {"enabled": bool}

    def __post_init__(self) -> None:
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise CampaignError("default_timeout must be positive "
                                "(use None for no timeout)")
        if self.obs is not None:
            bad = set(self.obs) - {"enabled"}
            if bad:
                raise CampaignError(
                    f"unknown [obs] keys {sorted(bad)} (options: enabled)")
            if not isinstance(self.obs.get("enabled", True), bool):
                raise CampaignError("[obs] enabled must be a boolean")
        if self.retry is not None:
            from repro.exp.resilience import RetryPolicy

            try:
                RetryPolicy.from_json(self.retry)
            except ValueError as exc:
                raise CampaignError(str(exc)) from None
        names = [t.name for t in self.traces]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise CampaignError(f"duplicate trace names: {sorted(dupes)}")
        ids = [d.id for d in self.detectors]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise CampaignError(
                f"duplicate detector ids: {sorted(dupes)} (set 'id' to disambiguate)"
            )

    def effective_retry(self, det: DetectorSpec):
        """The resolved retry policy for one detector column: its
        ``retry`` table layered over the campaign's (None when neither
        sets one — the runner keeps classic single-attempt statuses)."""
        if self.retry is None and det.retry is None:
            return None
        from repro.exp.resilience import RetryPolicy

        base = (RetryPolicy.from_json(self.retry)
                if self.retry is not None else None)
        if det.retry is None:
            return base
        return RetryPolicy.from_json(det.retry, base=base)

    def cells(self) -> List["CellTask"]:
        """The deterministic cell list: trace-major, detector-minor,
        with the implicit ``stats`` cell first in each trace group."""
        from repro.exp.runner import CellTask

        columns = list(self.detectors)
        # match by name *or* id: a detector merely id'd "stats" must
        # not collide with the injected column either
        if self.include_stats and not any(
            d.name == "stats" or d.id == "stats" for d in columns
        ):
            columns.insert(0, DetectorSpec(name="stats", repeats=1))
        tasks: List[CellTask] = []
        policies = {d.id: self.effective_retry(d) for d in columns}
        for trace in self.traces:
            digest = trace.digest()
            for det in columns:
                if not det.applies_to(trace.name):
                    continue
                tasks.append(CellTask(
                    index=len(tasks),
                    trace=trace,
                    trace_digest=digest,
                    detector=det,
                    timeout=det.timeout if det.timeout is not None
                    else self.default_timeout,
                    repeats=det.repeats if det.repeats is not None
                    else self.default_repeats,
                    retry=policies[det.id],
                ))
        return tasks

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "default_timeout": self.default_timeout,
            "default_repeats": self.default_repeats,
            "traces": [t.to_json() for t in self.traces],
            "detectors": [d.to_json() for d in self.detectors],
        }
        if self.retry is not None:
            out["retry"] = self.retry
        if self.obs is not None:
            out["obs"] = self.obs
        return out

    @property
    def obs_enabled(self) -> bool:
        """Does the campaign itself opt into telemetry (``[obs]``)?"""
        return bool(self.obs) and bool(self.obs.get("enabled", True))


def _trace_name_for_path(path: str) -> str:
    base = os.path.basename(path)
    for suffix in (".std.gz", ".std", ".gz"):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return base


def _parse_traces(entries, base_dir: str) -> List[TraceSource]:
    sources: List[TraceSource] = []
    for entry in entries:
        kind = entry.get("kind", "file")
        if kind == "file":
            paths = []
            if "glob" in entry:
                pattern = os.path.join(base_dir, entry["glob"])
                paths = sorted(globlib.glob(pattern))
                if not paths:
                    raise CampaignError(f"glob matched no traces: {entry['glob']!r}")
            elif "path" in entry:
                paths = [os.path.join(base_dir, entry["path"])]
            else:
                raise CampaignError("file trace needs 'path' or 'glob'")
            for p in paths:
                sources.append(TraceSource(
                    kind="file",
                    name=entry.get("name") or _trace_name_for_path(p),
                    path=p,
                ))
        elif kind == "synth":
            if "suite" in entry:
                from repro.synth.suite import resolve_suite

                for bench in resolve_suite(entry["suite"]):
                    sources.append(TraceSource(kind="synth", name=bench,
                                               benchmark=bench))
            elif "benchmark" in entry:
                bench = entry["benchmark"]
                sources.append(TraceSource(
                    kind="synth", name=entry.get("name") or bench,
                    benchmark=bench,
                ))
            else:
                raise CampaignError("synth trace needs 'benchmark' or 'suite'")
        elif kind == "random":
            if "name" not in entry:
                raise CampaignError("random trace needs a 'name'")
            # accept both spellings so a campaign embedded in a
            # run.json (which serializes 'params') round-trips
            sources.append(TraceSource(
                kind="random", name=entry["name"],
                params=dict(entry.get("config") or entry.get("params") or {}),
            ))
        else:
            raise CampaignError(f"unknown trace kind {kind!r}")
    return sources


def load_campaign(path: str) -> Campaign:
    """Load a campaign file (``.toml`` or ``.json``).

    Relative trace paths/globs resolve against the campaign file's
    directory, so campaign files are position-independent.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".json"):
        try:
            data = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise CampaignError(f"{path}: invalid JSON: {exc}") from None
    else:
        try:
            import tomllib
        except ImportError as exc:                      # Python < 3.11
            raise CampaignError(
                "TOML campaigns need Python >= 3.11 (tomllib); "
                "use the JSON form instead"
            ) from exc
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise CampaignError(f"{path}: invalid TOML: {exc}") from None

    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        detectors = [
            DetectorSpec(
                name=d["name"],
                id=d.get("id", ""),
                config=dict(d.get("config", {})),
                timeout=d.get("timeout"),
                repeats=d.get("repeats"),
                only=list(d.get("only", [])),
                retry=dict(d["retry"]) if "retry" in d else None,
            )
            for d in data.get("detectors", [])
        ]
    except KeyError as exc:
        raise CampaignError(f"detector entry missing {exc}") from None
    campaign = Campaign(
        name=data.get("name") or _trace_name_for_path(path),
        traces=_parse_traces(data.get("traces", []), base_dir),
        detectors=detectors,
        default_timeout=data.get("default_timeout", 120.0),
        default_repeats=int(data.get("default_repeats", 1)),
        include_stats=bool(data.get("include_stats", True)),
        retry=dict(data["retry"]) if "retry" in data else None,
        obs=dict(data["obs"]) if "obs" in data else None,
    )
    if not campaign.traces:
        raise CampaignError(f"campaign {campaign.name!r} has no traces")
    if not campaign.detectors:
        raise CampaignError(f"campaign {campaign.name!r} has no detectors")
    return campaign
