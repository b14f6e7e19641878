"""Content-addressed result cache for campaign cells.

A cell's key digests everything that can change its output:

- the *trace digest* (file bytes, or generator identity + knobs);
- the detector registry name and its canonical-JSON config;
- the cell policy that shapes results (timeout, repetition count);
- the *code version* — by default the digest of the **detector's
  module dependency closure** (:func:`detector_code_version`): the
  adapter function's source, every ``repro`` module it imports, and
  everything those import transitively, plus the shared trace/synth
  loading pipeline.  Editing a detector (or anything under it)
  invalidates exactly the cells that could change; cells of untouched
  detectors stay warm across commits.

:class:`ResultCache` keeps records as JSON files under
``<root>/<key[:2]>/<key>.json``, written atomically (tmp + rename) so a
crashed run never leaves a torn record for the next run to trust, and
schema-validates every record it serves.  Only ``ok`` and ``timeout``
cells are cached; ``error`` cells (crashed workers) always re-run.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from typing import Dict, Iterator, Optional, Set, Tuple

import repro.obs as obs

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the installed ``repro`` package sources (memoized).

    The whole-package fallback: any source change invalidates every
    cell.  Prefer :func:`detector_code_version` where a detector name
    is known."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        h = hashlib.sha256()
        for name, digest in sorted(_module_digests().items()):
            h.update(name.encode())
            h.update(digest)
        _CODE_VERSION = h.hexdigest()[:16]
    return _CODE_VERSION


# -- per-detector dependency-closure versions ----------------------------

#: modules every cell depends on regardless of detector: trace sources
#: are parsed / generated / compiled through these before the adapter
#: ever runs, and the exp execution layer shapes the recorded result
#: (repetitions, timing, record fields), so a change to any of them can
#: alter any cell's output.  The registry module itself
#: (repro.exp.detectors, pulled in via repro.exp.runner) is hashed as
#: its *scaffold* — see :func:`_registry_scaffold_digest` — so one
#: adapter's edit still doesn't invalidate its siblings.
_PIPELINE_ROOTS = (
    "repro.trace.events",
    "repro.trace.parser",
    "repro.trace.compiled",
    "repro.trace.index",
    "repro.trace.trace",
    "repro.synth.suite",
    "repro.synth.random_traces",
    "repro.exp.runner",
    "repro.exp.campaign",
    "repro.exp.cache",
)

_MODULE_DIGESTS: Optional[Dict[str, bytes]] = None
_MODULE_IMPORTS: Optional[Dict[str, Set[str]]] = None
_DETECTOR_VERSIONS: Dict[str, str] = {}
_DETECTOR_MODULES: Dict[str, Tuple[str, ...]] = {}


def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _walk_modules():
    """Yield ``(module name, path)`` for every ``repro`` source file."""
    root = _package_root()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()                 # fixes the traversal order
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root)
            parts = rel[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            yield ".".join(["repro"] + parts), path


def _module_digests() -> Dict[str, bytes]:
    """module name -> sha256 of its source (memoized)."""
    global _MODULE_DIGESTS
    if _MODULE_DIGESTS is None:
        out: Dict[str, bytes] = {}
        for name, path in _walk_modules():
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).digest()
        _MODULE_DIGESTS = out
    return _MODULE_DIGESTS


def _repro_imports(tree: ast.AST, modules: Dict[str, bytes]) -> Set[str]:
    """Every ``repro`` module an AST imports, module- or function-level.

    ``from repro.core import spd_offline`` resolves the attribute to
    the submodule when one exists."""
    found: Set[str] = set()

    def note(name: str) -> None:
        if name in modules:
            found.add(name)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    note(alias.name)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "repro" or mod.startswith("repro."):
                note(mod)
                for alias in node.names:
                    note(f"{mod}.{alias.name}")
    return found


def _module_import_graph() -> Dict[str, Set[str]]:
    """Intra-package import graph over ``repro`` modules (memoized)."""
    global _MODULE_IMPORTS
    if _MODULE_IMPORTS is None:
        modules = _module_digests()
        graph: Dict[str, Set[str]] = {}
        for name, path in _walk_modules():
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
            except SyntaxError:
                graph[name] = set(modules)      # be safe: depend on all
                continue
            graph[name] = _repro_imports(tree, modules)
        _MODULE_IMPORTS = graph
    return _MODULE_IMPORTS


def dependency_closure(roots) -> Tuple[str, ...]:
    """Transitive ``repro``-module closure of ``roots`` (sorted)."""
    graph = _module_import_graph()
    seen: Set[str] = set()
    work = [r for r in roots if r in graph]
    while work:
        mod = work.pop()
        if mod in seen:
            continue
        seen.add(mod)
        work.extend(graph.get(mod, ()))
    return tuple(sorted(seen))


def closure_with_shims(roots, modules: Dict[str, bytes],
                       graph: Dict[str, Set[str]]) -> Set[str]:
    """The module set a detector version digests: the transitive
    closure of ``roots`` plus ancestor packages and their re-exports.

    Ancestor packages' ``__init__`` modules run on import, so their
    digests are included — and because such modules are typically pure
    re-export *shims* (``from repro.x.impl import thing``), their
    **direct** imports are included too (one level, not transitively:
    following a top-level ``__init__`` transitively would drag the
    whole package into every closure).  Without that one level, moving
    an implementation behind an unchanged shim would leave stale cache
    entries live.
    """
    closure: Set[str] = set()
    work = [r for r in roots if r in graph]
    while work:
        mod = work.pop()
        if mod in closure:
            continue
        closure.add(mod)
        work.extend(graph.get(mod, ()))
    for mod in tuple(closure):
        while "." in mod:
            mod = mod.rpartition(".")[0]
            if mod in modules and mod not in closure:
                closure.add(mod)
                # one level of the shim's own re-export imports
                closure |= {d for d in graph.get(mod, ()) if d in modules}
    return closure


def _registry_scaffold_digest(module_name: str) -> bytes:
    """Digest of a registry module's *shared* code.

    The adapter functions themselves are hashed per-detector; what this
    covers is everything else in the module — shared helpers like
    ``_bug_list`` that shape many adapters' outputs — without letting
    an edit to one adapter invalidate every other detector's cells.
    Hashes the module source with every ``@register``-decorated
    top-level function body blanked out.
    """
    import importlib
    import inspect

    mod = importlib.import_module(module_name)
    source = inspect.getsource(mod)
    lines = source.split("\n")
    tree = ast.parse(source)
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "register"
            for d in node.decorator_list
        ):
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        for i in range(start - 1, node.end_lineno):
            lines[i] = ""
    return hashlib.sha256("\n".join(lines).encode()).digest()


def _adapter_imports(detector_name: str):
    """``(adapter, its dedented source, the repro modules it imports)``
    for a registry name; raises ``KeyError`` for an unknown one."""
    import inspect
    import textwrap

    from repro.exp.detectors import get_adapter

    adapter = get_adapter(detector_name)
    source = textwrap.dedent(inspect.getsource(adapter))
    return adapter, source, _repro_imports(ast.parse(source), _module_digests())


def detector_modules(detector_name: str) -> Tuple[str, ...]:
    """The ``repro`` modules ``detector_name``'s adapter imports, closed
    transitively (sorted, memoized): what a process must have imported
    for the adapter's first call to cost no more than its later ones.

    The closure follows function-level imports too, so it reaches the
    lazily imported kernel modules.  The shared loading pipeline
    (``_PIPELINE_ROOTS``) is left out: ``repro.synth.suite`` reads its
    ``REPRO_SUITE_MAX_*`` caps at import time, so it keeps loading
    wherever the trace is built.  A detector whose adapter cannot be
    resolved has no modules; its cells report that themselves.
    """
    cached = _DETECTOR_MODULES.get(detector_name)
    if cached is None:
        try:
            _, _, imports = _adapter_imports(detector_name)
        except Exception:
            imports = set()
        cached = _DETECTOR_MODULES[detector_name] = tuple(
            m for m in dependency_closure(imports) if m not in _PIPELINE_ROOTS)
    return cached


def detector_code_version(detector_name: str) -> str:
    """Digest of everything that can change ``detector_name``'s output.

    Hashes the adapter function's own source, the registry module's
    shared scaffold (module-level helpers the adapters call), and the
    digests of the detector's module dependency closure (the modules
    the adapter imports, transitively, unioned with the shared
    trace/synth loading pipeline).  Cheaper invalidation than
    :func:`code_version`: a commit that only touches other detectors
    leaves this key — and the caches under it — intact.  Falls back to
    the whole-package digest when the adapter's source cannot be
    resolved.

    Kernel backends share keys deliberately: the digest covers the
    import closure (which pulls in the :mod:`repro.kernels` dispatch
    sites and the ``*_np`` modules they load), but the *selected*
    backend — ``REPRO_KERNELS``/:func:`repro.kernels.set_backend` — is
    not part of the key.  The kernels are proven bit-identical to the
    canonical python paths (``tests/test_kernels.py``), so a record
    computed under either backend is valid for both; editing any
    kernel module still invalidates, through the closure digest.
    """
    cached = _DETECTOR_VERSIONS.get(detector_name)
    if cached is not None:
        return cached
    try:
        adapter, source, imports = _adapter_imports(detector_name)
        modules = _module_digests()
        missing = [r for r in _PIPELINE_ROOTS if r not in modules]
        if missing:
            # A renamed/mistyped pipeline root must not silently stop
            # being tracked; the raise lands in the conservative
            # whole-package fallback below.
            raise ValueError(f"unknown pipeline root modules: {missing}")
        roots = imports | set(_PIPELINE_ROOTS)
        scaffold = _registry_scaffold_digest(adapter.__module__)
        # Transitive closure of the roots, plus ancestor __init__
        # shims and — one level deep — the modules those shims
        # re-export (see closure_with_shims): moving an implementation
        # behind an unchanged shim must still invalidate.
        closure = closure_with_shims(roots, modules, _module_import_graph())
        h = hashlib.sha256()
        h.update(source.encode())
        h.update(scaffold)
        for mod in sorted(closure):
            h.update(mod.encode())
            # The registry module contributes its scaffold (shared
            # helpers only): its full digest would couple every
            # detector to every other adapter's source.
            h.update(scaffold if mod == adapter.__module__ else modules[mod])
        version = h.hexdigest()[:16]
    except Exception:
        version = code_version()
    _DETECTOR_VERSIONS[detector_name] = version
    return version


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
