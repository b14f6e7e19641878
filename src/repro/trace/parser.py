"""Text format for traces (RAPID "STD" style).

One event per line::

    t1|acq(l1)
    t1|w(x)|Main.java:12
    t2|r(x)
    t1|fork(t2)

Lines starting with ``#`` and blank lines are ignored.  The optional
third field is a source location used for bug deduplication.

There is one parser: :func:`repro.trace.compiled.parse_std_into`,
which interns names and op codes as it reads.  :func:`parse_trace` and
:func:`load_trace` wrap its :class:`~repro.trace.compiled.CompiledTrace`
in a :class:`Trace` view, so every loader accepts the same dialect and
raises the same errors.
"""

from __future__ import annotations

from repro.trace.compiled import load_compiled_trace, parse_compiled
from repro.trace.trace import Trace


class ParseError(Exception):
    """Raised on malformed trace text."""

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}: {line!r}")
        self.lineno = lineno
        self.line = line


def parse_trace(text: str, name: str = "trace") -> Trace:
    """Parse the STD text format into a :class:`Trace`."""
    return Trace(parse_compiled(text.splitlines(), name=name), name=name)


def format_trace(trace: Trace) -> str:
    """Inverse of :func:`parse_trace` (modulo comments/whitespace)."""
    lines = []
    for ev in trace:
        base = f"{ev.thread}|{ev.op}({ev.target})"
        if ev.loc is not None:
            base += f"|{ev.loc}"
        lines.append(base)
    return "\n".join(lines) + ("\n" if lines else "")


def load_trace(path: str, name: str = "") -> Trace:
    """Read a trace file from ``path`` (``.gz`` transparently inflated).

    A :class:`Trace` view over
    :func:`repro.trace.compiled.load_compiled_trace`, with its error
    contract: a missing file raises ``FileNotFoundError``, a malformed
    line ``ParseError``, and any other read failure
    :class:`~repro.trace.compiled.TraceReadError`.
    """
    compiled = load_compiled_trace(path, name=name)
    return Trace(compiled, name=compiled.name)


def save_trace(trace: Trace, path: str) -> None:
    """Write ``trace`` to ``path`` (gzipped when it ends in ``.gz``)."""
    if path.endswith(".gz"):
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(format_trace(trace))
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_trace(trace))
