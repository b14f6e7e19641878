"""Content-addressed result cache for campaign cells.

A cell's key digests everything that can change its output:

- the *trace digest* (file bytes, or generator identity + knobs);
- the detector registry name and its canonical-JSON config;
- the cell policy that shapes results (timeout, repetition count);
- the *code version* (:func:`code_version`): the digest of every
  source file of the ``repro`` package.  Any module can change a
  cell's output — its detector and the modules that detector imports,
  statically or dynamically, the trace pipeline, the runner that
  shapes the record — so any source edit invalidates every cell.

The selected kernel backend (``REPRO_KERNELS`` /
:func:`repro.kernels.set_backend`) is not part of the key: every
backend runs the same python code, so a record computed under one is
valid for all.

:class:`ResultCache` keeps records as JSON files under
``<root>/<key[:2]>/<key>.json``, written atomically (tmp + rename) so a
crashed run never leaves a torn record for the next run to trust, and
schema-validates every record it serves.  Only ``ok`` and ``timeout``
cells are cached; ``error`` cells (crashed workers) always re-run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, Iterator, Optional

import repro.obs as obs

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file (memoized per process).

    Hashes each ``.py`` file's path relative to the package root and
    its bytes, in a fixed traversal order, so two checkouts of the same
    sources under different roots share keys.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()                 # fixes the traversal order
            for fn in sorted(filenames):
                if not fn.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


def detector_code_version(detector_name: str) -> str:
    """The code version of ``detector_name``'s cells: the whole-package
    :func:`code_version`, whatever the detector.  Kept for callers that
    version by detector name, such as ``perfbench/workloads.py``."""
    return code_version()


def cell_key(trace_digest: str, detector_name: str, config: dict,
             timeout: Optional[float], repeats: int,
             version: Optional[str] = None) -> str:
    """The cache key of one (trace, detector, config) cell."""
    payload = json.dumps(
        {
            "trace": trace_digest,
            "detector": detector_name,
            "config": config,
            "timeout": timeout,
            "repeats": repeats,
            "code": version if version is not None else code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: the contract a cached record must satisfy to be served: ``status``
#: is required; the rest are type-checked when present.  A record that
#: parses as JSON but fails this (truncated rewrite, foreign file,
#: flipped type) is corruption, not data.
_REQUIRED_FIELDS = {"status": str}
_OPTIONAL_FIELDS = {
    "trace": str,
    "trace_digest": str,
    "detector": str,
    "detector_name": str,
    "config": dict,
    "output": dict,
    "error": str,
    "times": list,
    "cpu_times": list,
    "num_events": int,
    "attempts": list,
    "obs": dict,
}


def validate_record(record) -> bool:
    """Is ``record`` a well-formed cached cell result?"""
    if not isinstance(record, dict):
        return False
    for name, types in _REQUIRED_FIELDS.items():
        if name not in record or not isinstance(record[name], types):
            return False
    for name, types in _OPTIONAL_FIELDS.items():
        value = record.get(name)
        if value is not None and not isinstance(value, types):
            return False
    return True


class ResultCache:
    """Schema-validated cell-result store: one JSON file per key under
    ``root``.

    Records live at ``<root>/<key[:2]>/<key>.json`` and are written
    atomically (tmp + rename), so a reader never observes a torn
    record.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def _path(self, key: str) -> str:
        """Filesystem location of ``key``."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _discard(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def _keys(self) -> Iterator[str]:
        for dirpath, _, files in os.walk(self.root):
            for fn in sorted(files):
                if fn.endswith(".json"):
                    yield fn[: -len(".json")]

    def get(self, key: str) -> Optional[dict]:
        """The record under ``key``, or None.

        Corruption degrades to a miss: unreadable files, invalid JSON,
        and schema-invalid records (a torn write that still parses, a
        record from a future schema) all return None — and the bad
        entry is discarded so the re-computed result can replace it.
        """
        try:
            with open(self._path(key), "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            obs.count("cache.miss")
            return None
        except OSError:
            data = b"\xff"                      # unreadable == corrupt
        try:
            record = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            obs.count("cache.corrupt")
            self._discard(key)
            return None
        if not validate_record(record):
            obs.count("cache.corrupt")
            self._discard(key)
            return None
        obs.count("cache.hit")
        return record

    def verify(self, prune: bool = True) -> Dict[str, int]:
        """Scan every entry; optionally prune the corrupt ones.

        Returns ``{"scanned": n, "ok": n, "corrupt": n, "pruned": n}``
        (``repro bench cache --verify``).
        """
        obs.count("cache.verify_scans")
        stats = {"scanned": 0, "ok": 0, "corrupt": 0, "pruned": 0}
        for key in self._keys():
            stats["scanned"] += 1
            try:
                with open(self._path(key), "rb") as fh:
                    record = json.loads(fh.read().decode("utf-8"))
                good = validate_record(record)
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                good = False
            if good:
                stats["ok"] += 1
                continue
            stats["corrupt"] += 1
            if prune:
                self._discard(key)
                stats["pruned"] += 1
        return stats

    def put(self, key: str, record: dict) -> None:
        obs.count("cache.put")
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(record, sort_keys=True).encode("utf-8"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self._keys())
