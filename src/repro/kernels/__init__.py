"""Optional vectorized (NumPy) kernels under the columnar core.

The PR-3/PR-5 refactors compiled every hot path down to interned int
columns — exactly the layout an array library consumes in bulk.  This
package holds NumPy ports of the inner loops, each behind the existing
API of the subsystem it accelerates:

- :mod:`repro.kernels.index_np` — the ``TraceIndex`` O(N) derivation
  pass as column-at-a-time array passes (incremental ``extend()``
  included, so :class:`repro.stream.StreamSession` benefits too).
- :mod:`repro.kernels.alg_np` — abstract-lock-graph edge construction
  as a sorted join plus held-set bitmasks.
- :mod:`repro.kernels.offline_np` — Algorithm 2 (``CheckAbsDdlck``)
  batched across *all* abstract patterns in lockstep.
- :mod:`repro.kernels.online_np` — the per-context Algorithm 1 closure
  of SPDOnline (and of SPDOnlineK's contexts) over flat row arrays.
  An exact detector starts on the python closure and promotes to this
  kernel once its stream has 64 (thread, lock) histories
  (``repro.core.spd_online.PROMOTE_HISTORIES``); narrower streams never
  reach it, even under ``numpy``.

FastTrack, Goodlock, the naive checker and SPDOnlineK's signature
sweep have python loops only; under numpy they still run on the
index, ALG, offline and online kernels above.

Backend selection
-----------------

``REPRO_KERNELS`` picks the backend:

- ``python`` — the canonical pure-python paths only.
- ``numpy``  — require numpy; raise if it is not importable.
- ``auto``   — (default) numpy when importable, else python.

numpy is an *optional extra* (``pip install repro[numpy]``), never a
hard dependency: every dispatch site falls back to the canonical
python implementation, which remains the differential oracle — the
kernels are proven bit-identical against it corpus-wide and over
seeded random traces by ``tests/test_kernels.py``.  Because outputs
are bit-identical, experiment cache keys are *shared* across backends
(see :mod:`repro.exp.cache`).

:func:`set_backend` / :class:`use` override the environment for the
CLI ``--kernels`` flag and for tests.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "KernelsError",
    "backend",
    "counters",
    "numpy_or_none",
    "record_dispatch",
    "requested",
    "set_backend",
    "use",
]

_VALID = ("python", "numpy", "auto")

#: :func:`set_backend` override; ``None`` = follow ``REPRO_KERNELS``.
_FORCED: Optional[str] = None

# Memoized numpy import probe (the import itself, not the selection:
# REPRO_KERNELS may legitimately change between calls in tests).
_NUMPY = None
_NUMPY_CHECKED = False


class KernelsError(RuntimeError):
    """Invalid kernel-backend selection."""


def _import_numpy():
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy  # noqa: F401

            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
        _NUMPY_CHECKED = True
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

    ``auto`` resolves to numpy exactly when numpy is importable;
    an explicit ``numpy`` request without numpy installed is an error
    rather than a silent slowdown.
    """
    req = requested()
    if req == "python":
        return "python"
    if _import_numpy() is None:
        if req == "numpy":
            raise KernelsError(
                "REPRO_KERNELS=numpy but numpy is not importable; "
                "install the optional extra (pip install repro[numpy]) "
                "or select REPRO_KERNELS=python"
            )
        return "python"
    return "numpy"


def numpy_or_none():
    """The numpy module when the resolved backend is numpy, else None.

    The one-call dispatch test every integration site uses::

        np = kernels.numpy_or_none()
        if np is not None and <batch big enough>:
            ... vectorized path ...
    """
    return _import_numpy() if backend() == "numpy" else None


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
