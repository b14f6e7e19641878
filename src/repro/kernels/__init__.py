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

Every Algorithm 1 closure is python under every backend: SPDOffline's
phase 2, SPDOnline and SPDOnlineK all run
:class:`repro.core.closure.SPClosure`.  FastTrack, Goodlock, the naive
checker and SPDOnlineK's signature sweep have python loops only too;
under numpy they all still run on the index and ALG kernels above.
Prefix closures left the two closure kernels (a batched pattern check
and an online closure) no margin to earn their code: phase 2's decide
most pattern instantiations without a fix-point
(:mod:`repro.core.spd_offline`), and SPDOnline's start each new
context at the fix-point a fresh closure would first compute
(:mod:`repro.core.spd_online`).

Backend selection
-----------------

``REPRO_KERNELS`` picks the backend:

- ``python`` — the canonical pure-python paths only; numpy is never
  imported.
- ``numpy``  — require numpy: :func:`backend` imports it at once and
  raises if it is not importable.
- ``auto``   — (default) numpy when installed, else python.  Resolving
  ``auto`` only looks numpy up (``importlib.util.find_spec``); numpy
  is imported at the first dispatch whose size floor says the numpy
  path runs, so a process that never reaches one (FastTrack, an online
  stream) never loads it.  If that import fails, ``auto``
  means python for the rest of the process.

Each kernel entry point checks its own size floor before it calls
:func:`numpy_or_none`, the one place numpy is imported.

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

import importlib.util
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

    An explicit ``numpy`` request imports numpy here, so a missing
    numpy is an error at startup rather than a silent slowdown.
    ``auto`` does not import it: it answers the outcome of an import
    already tried, else whether numpy is installed.
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


def numpy_or_none():
    """The numpy module when the resolved backend is numpy, else None.

    The one place numpy is imported.  Every kernel entry point calls
    it only once its own size floor says the numpy path runs::

        if <batch big enough>:
            np = kernels.numpy_or_none()
            if np is not None:
                ... vectorized path ...

    Under ``auto`` a failed import returns None, and :func:`backend`
    reads python from then on.
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
