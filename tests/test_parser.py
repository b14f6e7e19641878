"""Parser/formatter round-trip and error handling.

The regex parser below (:func:`parse_events`) is the test oracle for
the one STD parser in :mod:`repro.trace.compiled`: every loader must
give the oracle's events, or raise the oracle's ``ParseError``.
"""

import gzip
import os
import re
import tempfile
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.stream import StreamSession
from repro.synth.random_traces import RandomTraceConfig, generate_random_trace
from repro.trace.compiled import _iter_std_lines, load_compiled_trace
from repro.trace.events import Event
from repro.trace.parser import ParseError, format_trace, load_trace, parse_trace

_LINE_RE = re.compile(
    r"^(?P<thread>[^|]+)\|(?P<op>r|w|acq|rel|req|fork|join)\((?P<target>[^)]*)\)"
    r"(?:\|(?P<loc>.*))?$"
)


def parse_events(lines) -> List[Event]:
    """Parse an iterable of STD-format lines into events (the oracle)."""
    events: List[Event] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ParseError(lineno, line, "malformed event")
        target = m.group("target").strip()
        if not target:
            raise ParseError(lineno, line, "empty target")
        loc = m.group("loc")
        events.append(
            Event(len(events), m.group("thread").strip(), m.group("op"), target,
                  loc.strip() if loc else None)
        )
    return events


class TestParsing:
    def test_basic(self):
        t = parse_trace("t1|acq(l1)\nt1|w(x)\nt1|rel(l1)\n")
        assert len(t) == 3
        assert t[0].is_acquire and t[0].target == "l1"
        assert t[1].is_write and t[1].target == "x"

    def test_comments_and_blank_lines_skipped(self):
        t = parse_trace("# header\n\nt1|r(x)\n  \n# tail\n")
        assert len(t) == 1

    def test_location_field(self):
        t = parse_trace("t1|acq(l1)|Main.java:42\n")
        assert t[0].loc == "Main.java:42"

    def test_whitespace_tolerated(self):
        t = parse_trace("  t1|fork(t2)  \n")
        assert t[0].is_fork and t[0].target == "t2"

    def test_all_ops(self):
        text = "\n".join(
            f"t|{op}(tgt)" for op in ["r", "w", "acq", "rel", "req", "fork", "join"]
        )
        assert len(parse_trace(text)) == 7

    def test_malformed_line_raises_with_lineno(self):
        with pytest.raises(ParseError) as exc:
            parse_trace("t1|acq(l1)\nbogus line\n")
        assert exc.value.lineno == 2

    def test_empty_target_rejected(self):
        with pytest.raises(ParseError):
            parse_trace("t1|acq()\n")

    def test_unknown_op_rejected(self):
        with pytest.raises(ParseError):
            parse_trace("t1|lock(l1)\n")

    @pytest.mark.parametrize("bad, message", [
        ("|acq(l1)", "malformed event"),       # a known tail, no thread
        ("t1|acq(l1)x", "malformed event"),    # a known thread, junk tail
        ("t1|acq( )", "empty target"),
    ])
    def test_repeated_parts_keep_their_errors(self, bad, message):
        with pytest.raises(ParseError) as exc:
            parse_trace(f"t1|acq(l1)\nt2|acq(l1)|A.java:3\n{bad}\n")
        assert (exc.value.lineno, exc.value.line) == (3, bad)
        assert message in str(exc.value)


class TestRoundTrip:
    def test_format_then_parse(self):
        text = "t1|acq(l1)|A.java:1\nt1|w(x)\nt2|r(x)\nt1|rel(l1)\n"
        t = parse_trace(text)
        assert format_trace(t) == text

    def test_empty_trace(self):
        assert format_trace(parse_trace("")) == ""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_traces_round_trip(self, seed):
        trace = generate_random_trace(RandomTraceConfig(seed=seed, num_events=60))
        reparsed = parse_trace(format_trace(trace))
        assert len(reparsed) == len(trace)
        for a, b in zip(trace, reparsed):
            assert (a.thread, a.op, a.target, a.loc) == (b.thread, b.op, b.target, b.loc)


# -- one line-end rule, one parser: the regex oracle differential ------------

# Characters str.splitlines() breaks on besides \n and \r: parse_trace
# splits in-memory text with it, while files only end lines at \n, \r\n
# or \r, so the generated names leave these out.
_EXOTIC_EOL = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_NAME = st.characters(exclude_categories=("Cs",),
                      exclude_characters="|()\n\r" + _EXOTIC_EOL)
_TARGET = st.one_of(_NAME, st.sampled_from("(| "))
_LOC = st.one_of(_NAME, st.sampled_from("()| "))
_PAD = st.sampled_from(["", "", " ", "\t", " \t "])
_OPS = st.sampled_from(["r", "w", "acq", "rel", "req", "fork", "join"])
_BAD_OPS = st.sampled_from(["lock", "ACQ", "", "acq ", " r"])


@st.composite
def _std_line(draw):
    # kinds 0-1: comment, blank; 2-6: one defect each (empty thread,
    # empty target, bad close, junk after ')', unknown op); else valid
    kind = draw(st.integers(0, 29))
    if kind == 0:
        return draw(_PAD) + "#" + draw(st.text(_LOC, max_size=6))
    if kind == 1:
        return draw(_PAD)
    thread = draw(st.text(_NAME, min_size=kind != 2, max_size=3))
    op = draw(_BAD_OPS if kind == 6 else _OPS)
    target = draw(st.text(_TARGET, min_size=kind != 3, max_size=3))
    close = ")" if kind != 4 else draw(st.sampled_from(["", "))"]))
    after = draw(st.text(_LOC, max_size=2)) if kind == 5 else ""
    loc = draw(st.none() | st.text(_LOC, max_size=5))
    if loc is not None:
        after += "|" + loc
    return (draw(_PAD) + thread + "|" + op + "(" + target + close
            + after + draw(_PAD))


@st.composite
def _std_text(draw):
    # Lines come from a small pool, with repetition, so the parser's
    # head and tail memos hit.  A picked line may lose its thread or
    # gain junk at its end: a malformed line that shares its tail or
    # its thread with an earlier valid one.
    pool = draw(st.lists(_std_line(), min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 7)),
                          max_size=12))
    lines = []
    for line, variant in picks:
        if variant == 6:
            line = "|" + line.partition("|")[2]
        elif variant == 7:
            line = line.rstrip() + "x"
        lines.append(line)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]    # no line end after the last line
    return text


def _outcome(parse):
    """Events as (thread, op, target, loc), or the ParseError's
    (line number, stripped line, message)."""
    try:
        return [(e.thread, e.op, e.target, e.loc) for e in parse()]
    except ParseError as exc:
        return ("ParseError", exc.lineno, exc.line, str(exc))


_KIND = {"acq": "lock", "rel": "lock", "req": "lock", "fork": "thread",
         "join": "thread", "r": "var", "w": "var"}


def _intern_order(events):
    """The intern tables of a one-pass parse of ``events``: each event
    interns its thread, then its target in its op's table."""
    tables = {"thread": [], "lock": [], "var": []}
    for thread, op, target, _ in events:
        for kind, name in (("thread", thread), (_KIND[op], target)):
            if name not in tables[kind]:
                tables[kind].append(name)
    return tables


def _stream_events(path):
    session = StreamSession(name="s")
    session.feed_file(path, batch_size=3)   # line numbers span batches
    return session.compiled


class TestOracleDifferential:
    @settings(max_examples=200, deadline=None)
    @given(text=_std_text())
    def test_every_loader_matches_the_regex_oracle(self, text):
        expected = _outcome(lambda: parse_events(text.splitlines()))
        assert _outcome(lambda: parse_trace(text)) == expected
        with tempfile.TemporaryDirectory() as tmp:
            plain = os.path.join(tmp, "t.std")
            packed = os.path.join(tmp, "t.std.gz")
            data = text.encode("utf-8")
            with open(plain, "wb") as fh:
                fh.write(data)
            with gzip.open(packed, "wb") as fh:
                fh.write(data)
            for path in (plain, packed):
                for load in (load_trace, load_compiled_trace, _stream_events):
                    got = _outcome(lambda: load(path))
                    assert got == expected, (load.__name__, path)
            if isinstance(expected, list):
                comp = load_compiled_trace(plain)
                assert {"thread": comp.threads_tab.names,
                        "lock": comp.locks_tab.names,
                        "var": comp.vars_tab.names} == _intern_order(expected)


class TestLineEnds:
    TEXT = "t1|acq(l)\r\nt1|w(\u00fc)\r\n\rt2|rel(l)\rt3|r(x)\r"
    LINES = ["t1|acq(l)", "t1|w(\u00fc)", "", "t2|rel(l)", "t3|r(x)"]

    def test_crlf_split_across_chunks(self, tmp_path):
        """Every chunk size, including those whose chunk ends between
        the \r and \n of a \r\n, yields the universal-newline lines,
        and the offset stays an exact count of decompressed bytes."""
        data = self.TEXT.encode("utf-8")
        assert self.TEXT.splitlines() == self.LINES
        for suffix, write in ((".std", open), (".std.gz", gzip.open)):
            path = str(tmp_path / ("t" + suffix))
            with write(path, "wb") as fh:
                fh.write(data)
            for chunk_size in range(1, len(self.TEXT) + 2):
                state = {"offset": 0}
                lines = list(_iter_std_lines(path, chunk_size=chunk_size,
                                             state=state))
                assert lines == self.LINES, (suffix, chunk_size)
                assert state["offset"] == len(data), (suffix, chunk_size)
