"""Kernel-backend selection; no area dispatches to numpy.

The NumPy kernels that once sat under the columnar core are gone.
Prefix closures left the two closure kernels (a batched pattern check
and an online closure) no margin, and python derives the
``TraceIndex`` and the abstract lock graph about as fast as the last
two (``index_np``, ``alg_np``) did, while every process that loaded
numpy for them carried 12–18 MB more peak RSS.  ALG's 2-cycles, the
``max_size=2`` scope, now come from a direct join without building the
graph (:mod:`repro.core.alg`).  Every path is python under every
backend, so no analysis process imports numpy.

Backend selection
-----------------

The selector stays because callers outside the package (the
``perfbench`` harness's set-up, its recorded-backend check and its
dense-pattern oracle) still call it; it goes with the next change to
that benchmark.  ``REPRO_KERNELS`` picks the backend:

- ``python`` — numpy is never imported.
- ``numpy``  — require numpy: :func:`backend` imports it at once and
  raises :class:`KernelsError` if it is not importable.
- ``auto``   — (default) ``"numpy"`` when numpy is installed, else
  ``"python"``; resolving it only looks numpy up
  (``importlib.util.find_spec``) and never imports it.

Every backend runs the same code, so outputs, and the experiment
cache keys that ignore the backend (:mod:`repro.exp.cache`), are the
same under each.  :func:`set_backend` / :class:`use` override the
environment for the CLI ``--kernels`` flag and for tests.

:func:`record_dispatch` / :func:`counters` keep the per-area dispatch
counters that ``repro obs`` reports; cycle enumeration records
``kernels.johnson_scc.incremental`` (:mod:`repro.graph.johnson`).
"""

from __future__ import annotations

import importlib.util
import os
from typing import Dict, Optional

__all__ = [
    "KernelsError",
    "backend",
    "counters",
    "record_dispatch",
    "requested",
    "set_backend",
    "use",
]

_VALID = ("python", "numpy", "auto")

#: :func:`set_backend` override; ``None`` = follow ``REPRO_KERNELS``.
_FORCED: Optional[str] = None

# Memoized numpy probes (not the selection: REPRO_KERNELS may
# legitimately change between calls in tests).  ``_HAVE_NUMPY`` is
# None until probed, then whether numpy's spec is installed, then,
# once an import was tried, whether it succeeded.
_NUMPY = None
_HAVE_NUMPY: Optional[bool] = None


class KernelsError(RuntimeError):
    """Invalid kernel-backend selection."""


def _numpy_installed() -> bool:
    global _HAVE_NUMPY
    if _HAVE_NUMPY is None:
        _HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
    return _HAVE_NUMPY


def _import_numpy():
    global _NUMPY, _HAVE_NUMPY
    if _NUMPY is None and _numpy_installed():
        try:
            import numpy  # noqa: F401

            _NUMPY = numpy
        except ImportError:
            _HAVE_NUMPY = False
    return _NUMPY


def requested() -> str:
    """The *requested* backend (before numpy availability is consulted)."""
    if _FORCED is not None:
        return _FORCED
    value = os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"
    if value not in _VALID:
        raise KernelsError(
            f"REPRO_KERNELS={value!r}: expected one of {', '.join(_VALID)}"
        )
    return value


def backend() -> str:
    """The resolved backend: ``"python"`` or ``"numpy"``.

    An explicit ``numpy`` request imports numpy here and raises
    :class:`KernelsError` when it is not importable.  ``auto`` does not
    import it: it answers the outcome of an import already tried, else
    whether numpy is installed.
    """
    req = requested()
    if req == "python":
        return "python"
    if req == "numpy":
        if _import_numpy() is None:
            raise KernelsError(
                "REPRO_KERNELS=numpy but numpy is not importable; "
                "install the optional extra (pip install repro[numpy]) "
                "or select REPRO_KERNELS=python"
            )
        return "numpy"
    return "numpy" if _numpy_installed() else "python"


def set_backend(name: Optional[str]) -> None:
    """Force a backend (CLI ``--kernels`` / tests); ``None`` restores
    environment-driven selection."""
    global _FORCED
    if name is not None and name not in _VALID:
        raise KernelsError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(_VALID)}"
        )
    _FORCED = name


class use:
    """``with kernels.use("python"): ...`` — scoped backend override."""

    def __init__(self, name: Optional[str]) -> None:
        self._name = name
        self._prev: Optional[str] = None

    def __enter__(self) -> "use":
        self._prev = _FORCED
        set_backend(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        set_backend(self._prev)
        return False


# -- telemetry ---------------------------------------------------------------
#
# Dispatch decisions are per-batch / per-trace, not per-event, so plain
# always-on counters are cheap enough (unlike the patch-on-enable
# wrappers of repro.vc.clock).  The probe snapshot feeds `repro obs`.

_COUNTS: Dict[str, int] = {}


def record_dispatch(area: str, used: str, events: int = 0) -> None:
    """Count one dispatch decision of ``area`` to backend ``used``.

    ``events`` accumulates the batch size under
    ``kernels.<area>.events`` so the obs report shows both how often a
    kernel ran and how much work it vectorized.
    """
    c = _COUNTS
    key = f"kernels.{area}.{used}"
    c[key] = c.get(key, 0) + 1
    if events:
        key = f"kernels.{area}.events"
        c[key] = c.get(key, 0) + events


def counters() -> Dict[str, int]:
    """Snapshot of the dispatch/batch-size counters."""
    return dict(_COUNTS)


def _obs_register() -> None:
    import repro.obs as obs

    obs.register_probe("kernels", counters)


_obs_register()
