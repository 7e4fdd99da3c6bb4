"""Raw-log (de)serialization: the pipe-delimited "ETL" text format.

Format (one record per line):

``EVENT|eid|timestamp|pid|process|tid|category|opcode|name``
``STACK|eid|frame_index|module|function|address``

``STACK`` lines follow the ``EVENT`` line they belong to and must carry
the same ``eid``; ``frame_index`` runs 0..k-1 from the app entry point
toward the kernel.  ``address`` is hexadecimal (``0x...``).

The parser is the Introperf-like front end of the paper's workflow: it
correlates stack walks with their events and slices per process.

Parsing runs under one of three policies (DESIGN.md §8):

* ``"strict"`` (default) — the first structurally invalid line raises
  :class:`ParseError`, exactly as historical behaviour;
* ``"warn"`` — every invalid line is classified
  (:class:`~repro.etw.recovery.ParseErrorKind`), recorded in a
  :class:`~repro.etw.recovery.ParseReport`, emitted as a
  :class:`~repro.etw.recovery.ParseWarning`, and the parser
  resynchronizes at the next well-formed ``EVENT`` line;
* ``"drop"`` — like ``"warn"`` without the warnings.

Recovery drops the event whose stack block the error corrupted (its
already-consumed lines are accounted as discarded) and skips lines
until the next well-formed ``EVENT`` line.  An unknown record tag does
not discard the open event — a stray foreign line between two event
blocks must not lose the completed event before it.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.etw.events import EventColumns, EventRecord, StackFrame
from repro.etw.recovery import (
    ParseErrorKind,
    ParseReport,
    ParseWarning,
)


class ParseError(ValueError):
    """Raised on a structurally invalid raw-log line."""

    #: events an incremental parser call completed before the failing
    #: line, as :class:`~repro.etw.events.EventColumns`
    #: (:class:`~repro.etw.fastparse.StreamingParser` fills it) —
    #: exactly what :func:`iter_parse` would have yielded before raising
    events: Optional[EventColumns] = None

    def __init__(
        self,
        message: str,
        lineno: Optional[int] = None,
        kind: Optional[ParseErrorKind] = None,
    ):
        self.lineno = lineno
        self.kind = kind
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


_EVENT_FIELDS = 9
_STACK_FIELDS = 6

PARSE_POLICIES = ("strict", "warn", "drop")

#: Process-wide frame intern table.  Stack walks are massively
#: repetitive — a whole fleet of logs from one application collapses to
#: a few hundred distinct frames — so equal frames parse to the *same*
#: :class:`StackFrame` object even across separate parse runs: one
#: object per distinct frame in memory, and walk-tuple comparisons (the
#: capture encoder's walk table, a stream's scalar-mode walks) that
#: short-circuit on identity instead of per-field comparisons.
#:
#: Growth bound: one entry per distinct ``(index, module, function,
#: address)`` tuple ever parsed in this process — for any one
#: application that is a few hundred entries, but a long-lived process
#: parsing logs of *many* unrelated applications (or address-randomized
#: rebuilds) accumulates every distinct frame it has ever seen.  Such
#: hosts should call :func:`clear_frame_intern` between tenants; the
#: test suite clears it per test (``tests/conftest.py``) so no test
#: depends on frames interned by another.
_FRAME_INTERN: dict = {}


def clear_frame_intern() -> int:
    """Drop every interned :class:`StackFrame`; returns the number of
    entries released.

    Interning is a pure cache — equal frames stay equal whether or not
    they are the same object — so clearing is always safe; already-built
    events keep their frames, and subsequent parses simply re-intern.
    """
    count = len(_FRAME_INTERN)
    _FRAME_INTERN.clear()
    return count


#: Default ceiling for :func:`evict_frame_intern`: ~1M distinct frames
#: is far beyond any single application's population (a few hundred) but
#: small enough that the table's RSS stays in the low hundreds of MB.
FRAME_INTERN_MAX_ENTRIES = 1_000_000


@dataclass(frozen=True)
class FrameInternStats:
    """Size of the process-global frame intern table.

    ``approx_bytes`` estimates the retained heap: the dict itself plus,
    per entry, the key tuple, the :class:`StackFrame`, and its module /
    function strings (strings shared between frames are counted once per
    frame, so this is an upper bound).
    """

    entries: int
    approx_bytes: int


def frame_intern_stats() -> FrameInternStats:
    """Observability for long-lived processes: how big has the
    process-global frame intern table grown?"""
    entries = len(_FRAME_INTERN)
    approx = sys.getsizeof(_FRAME_INTERN)
    for key, frame in list(_FRAME_INTERN.items()):
        approx += (
            sys.getsizeof(key)
            + sys.getsizeof(frame)
            + sys.getsizeof(frame.module)
            + sys.getsizeof(frame.function)
        )
    return FrameInternStats(entries=entries, approx_bytes=approx)


def evict_frame_intern(max_entries: int = FRAME_INTERN_MAX_ENTRIES) -> int:
    """Bound the intern table for always-on processes; returns the
    number of entries released (0 when under the ceiling).

    A server that parses logs of many unrelated applications (or of
    address-randomized payload rebuilds) accumulates every distinct
    frame it has ever seen — the table grows without bound over weeks of
    uptime even though any one tenant needs only a few hundred entries.
    This is the safe eviction point such processes call at quiet moments
    (the serving workers call it between model-bundle reloads): eviction
    is all-or-nothing because interning is a pure cache — subsequent
    parses re-intern the hot frames within one log's worth of lines, and
    already-built events keep their frame objects regardless.
    """
    if max_entries < 0:
        raise ValueError("max_entries must be >= 0")
    if len(_FRAME_INTERN) <= max_entries:
        return 0
    return clear_frame_intern()


def intern_frame(index: int, module: str, function: str, address: int) -> StackFrame:
    """The interned :class:`StackFrame` for these fields — shared with
    the parser's hot loop, so frames built by other front ends (the
    columnar capture reader, the vectorized text parser) are the *same*
    objects the line parser would have produced."""
    key = (index, module, function, address)
    frame = _FRAME_INTERN.get(key)
    if frame is None:
        frame = StackFrame(
            index=index, module=module, function=function, address=address
        )
        _FRAME_INTERN[key] = frame
    return frame


#: A raw-log line handed to :func:`iter_parse`: ``str`` normally, or the
#: undecoded ``bytes`` when :func:`read_log_lines` hit invalid UTF-8 —
#: the parser classifies such lines as ``BAD_ENCODING`` instead of
#: letting a ``UnicodeDecodeError`` escape.
LogLine = Union[str, bytes]


def split_log_text(text: str) -> List[str]:
    """Split raw log text on ``\\n`` / ``\\r\\n`` boundaries *only*.

    ``str.splitlines`` also breaks on Unicode line boundaries
    (``\\x85``, ``\\x0b``, ``\\u2028``, …) that line-by-line file
    iteration does not, so a text-based parse could silently disagree
    with streaming the same file.  A single trailing newline (the POSIX
    text-file convention) does not produce a trailing empty line.
    """
    if "\r" in text:  # far cheaper than a replace that finds nothing
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def read_log_lines(path: Union[str, os.PathLike]) -> List[LogLine]:
    """Read a raw log file into parse-ready lines (see
    :func:`split_log_bytes`).

    Parsers need no line list: ``parse_fast`` takes the file's bytes
    whole and is equivalent to parsing these lines.
    """
    return split_log_bytes(Path(os.fspath(path)).read_bytes())


def split_log_bytes(data: bytes) -> List[LogLine]:
    """Split raw log bytes into parse-ready lines.

    Splits on ``\\n`` / ``\\r\\n`` boundaries only (never on Unicode
    line boundaries — see :func:`split_log_text`) and decodes UTF-8.  A
    line that is not valid UTF-8 is returned as the raw ``bytes``
    instead of raising, so :func:`iter_parse` can classify it
    (``ParseErrorKind.BAD_ENCODING``) under the caller's policy rather
    than crash the whole scan with a ``UnicodeDecodeError``.
    """
    try:
        return split_log_text(data.decode("utf-8"))
    except UnicodeDecodeError:
        pass
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    raw_lines = data.split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    lines: List[LogLine] = []
    for raw in raw_lines:
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(raw)
    return lines


def _event_from_fields(fields: Sequence[str]) -> EventRecord:
    """Build an :class:`EventRecord` from a split EVENT line; raises
    ``ValueError`` on any non-numeric numeric field."""
    return EventRecord(
        eid=int(fields[1]),
        timestamp=int(fields[2]),
        pid=int(fields[3]),
        process=fields[4],
        tid=int(fields[5]),
        category=fields[6],
        opcode=int(fields[7]),
        name=fields[8],
    )


def iter_parse(
    lines: Iterable[str],
    *,
    policy: str = "strict",
    report: Optional[ParseReport] = None,
    require_complete_tail: bool = False,
) -> Iterator[EventRecord]:
    """Stream :class:`EventRecord` objects out of raw log lines.

    Stack–event correlation is enforced: a ``STACK`` line whose ``eid``
    does not match the preceding ``EVENT`` is an error, as is a ``STACK``
    line with no event to attach to or a non-contiguous frame index.

    ``policy`` selects strict (raise) or recovering (warn/drop)
    behaviour; ``report`` is an optional :class:`ParseReport` filled in
    as lines are consumed (usable under every policy).  With
    ``require_complete_tail=True`` a log that ends mid-stack-walk raises
    in strict mode and drops the suspect final event in recovering
    modes; otherwise the short-stacked final event is yielded and only
    ``ParseReport.truncated_tail`` signals the condition.
    """
    if policy not in PARSE_POLICIES:
        raise ValueError(
            f"unknown parse policy {policy!r}; expected one of {PARSE_POLICIES}"
        )
    return _iter_parse(
        lines,
        policy,
        report if report is not None else ParseReport(),
        require_complete_tail,
    )


class ParseMachine:
    """Push-mode core of :func:`iter_parse`: feed one line at a time,
    receive at most one completed :class:`EventRecord` back per line,
    then :meth:`finish` at end of input.

    This *is* the parser — :func:`iter_parse` is a thin pull driver over
    it — so push-mode consumers (the always-on detection service feeds
    each stream's lines as they arrive off a socket) get bit-identical
    events, reports, and exceptions by construction, not by a parallel
    reimplementation.  The cross-line state is exactly what the old
    generator kept in locals: the open event and its frames, the
    resynchronization flag, the per-etype shallowest-complete-walk table
    powering the truncated-tail heuristic, and the running line number.
    """

    def __init__(
        self,
        policy: str = "strict",
        report: Optional[ParseReport] = None,
        require_complete_tail: bool = False,
    ):
        if policy not in PARSE_POLICIES:
            raise ValueError(
                f"unknown parse policy {policy!r}; expected one of {PARSE_POLICIES}"
            )
        self.policy = policy
        self.strict = policy == "strict"
        self.report = report if report is not None else ParseReport()
        self.require_complete_tail = require_complete_tail
        #: the open event awaiting the rest of its stack block
        self.current: Optional[EventRecord] = None
        self.frames: List[StackFrame] = []
        #: lines consumed by the open event (its EVENT line + stack lines)
        self.pending = 0
        #: resynchronizing: discard lines until the next well-formed EVENT
        self.skipping = False
        #: shallowest completed stack walk per etype — the truncated-tail
        #: heuristic: a final walk shallower than *every* complete walk
        #: seen for its etype is suspect; one at a previously-seen depth
        #: is a legitimate ending (stack depths vary per call site)
        self.depths: dict = {}
        self.lineno = 0

    # -- bookkeeping helpers ------------------------------------------
    def _issue(self, kind: ParseErrorKind, message: str, num: int) -> None:
        self.report.record(kind, num, message)
        self.report.error_lines += 1
        if self.policy == "warn":
            warnings.warn(f"line {num}: {message}", ParseWarning, stacklevel=4)

    def _fatal(self, kind: ParseErrorKind, message: str, num: int) -> ParseError:
        # Strict-mode bookkeeping: finalize the report *before* raising
        # so its exhaustive accounting (blank + consumed + error +
        # discarded == total) holds even for an aborted parse.  The
        # fatal line is the error line; the open event was never
        # yielded, so its already-consumed lines are discarded with it.
        report = self.report
        report.record(kind, num, message)
        report.error_lines += 1
        if self.current is not None:
            report.discarded_lines += self.pending
            report.events_dropped += 1
            self.current, self.frames, self.pending = None, [], 0
        return ParseError(message, num, kind=kind)

    def _complete(self, event: EventRecord, walk: List[StackFrame]) -> EventRecord:
        self.report.events_yielded += 1
        known = self.depths.get(event.etype)
        if known is None or len(walk) < known:
            self.depths[event.etype] = len(walk)
        return event.with_frames(walk)

    def _drop_current(self) -> None:
        if self.current is not None:
            self.report.discarded_lines += self.pending
            self.report.events_dropped += 1
            self.current, self.frames, self.pending = None, [], 0

    # -- the per-line state machine -----------------------------------
    def feed(self, raw: LogLine) -> Optional[EventRecord]:
        """Advance the machine by one raw line; returns the event the
        line completed, if any.  Strict mode raises :class:`ParseError`
        exactly where the batch parser would."""
        self.lineno += 1
        lineno = self.lineno
        report = self.report
        strict = self.strict
        report.total_lines += 1
        if isinstance(raw, (bytes, bytearray)):
            # read_log_lines hands undecodable lines through as raw
            # bytes; classify instead of crashing mid-scan.  The line's
            # tag is unreadable, so like any garbled field it corrupts
            # the open event's stack block.
            if self.skipping:
                report.discarded_lines += 1
                return None
            message = "line is not valid UTF-8"
            if strict:
                raise self._fatal(ParseErrorKind.BAD_ENCODING, message, lineno)
            self._issue(ParseErrorKind.BAD_ENCODING, message, lineno)
            self._drop_current()
            self.skipping = True
            return None
        line = raw.rstrip("\n")
        if not line.strip():
            report.blank_lines += 1
            return None
        fields = line.split("|")
        tag = fields[0]

        if self.skipping:
            # Resynchronize at the next well-formed EVENT line; everything
            # until then belongs to the corrupt region and is discarded
            # (without recording further issues for the same region).
            if tag == "EVENT" and len(fields) == _EVENT_FIELDS:
                try:
                    candidate = _event_from_fields(fields)
                except ValueError:
                    candidate = None
                if candidate is not None:
                    emitted = None
                    if self.current is not None:
                        report.consumed_lines += self.pending
                        emitted = self._complete(self.current, self.frames)
                    self.skipping = False
                    self.current, self.frames, self.pending = candidate, [], 1
                    return emitted
            if tag == "EVENT":
                report.events_dropped += 1
            report.discarded_lines += 1
            return None

        if tag == "EVENT":
            if len(fields) != _EVENT_FIELDS:
                message = f"EVENT needs {_EVENT_FIELDS} fields, got {len(fields)}"
                if strict:
                    raise self._fatal(ParseErrorKind.BAD_FIELD, message, lineno)
                # The previous event is complete; the malformed one is lost.
                emitted = None
                if self.current is not None:
                    report.consumed_lines += self.pending
                    emitted = self._complete(self.current, self.frames)
                    self.current, self.frames, self.pending = None, [], 0
                self._issue(ParseErrorKind.BAD_FIELD, message, lineno)
                report.events_dropped += 1
                self.skipping = True
                return emitted
            emitted = None
            if self.current is not None:
                report.consumed_lines += self.pending
                emitted = self._complete(self.current, self.frames)
                self.current, self.frames, self.pending = None, [], 0
            try:
                self.current = _event_from_fields(fields)
            except ValueError as exc:
                message = f"bad EVENT field: {exc}"
                if strict:
                    raise self._fatal(
                        ParseErrorKind.BAD_FIELD, message, lineno
                    ) from None
                self._issue(ParseErrorKind.BAD_FIELD, message, lineno)
                report.events_dropped += 1
                self.skipping = True
                return emitted
            self.frames = []
            self.pending = 1
            return emitted
        elif tag == "STACK":
            if len(fields) != _STACK_FIELDS:
                message = f"STACK needs {_STACK_FIELDS} fields, got {len(fields)}"
                if strict:
                    raise self._fatal(ParseErrorKind.BAD_FIELD, message, lineno)
                self._issue(ParseErrorKind.BAD_FIELD, message, lineno)
                self._drop_current()
                self.skipping = True
                return None
            if self.current is None:
                message = "STACK line before any EVENT"
                if strict:
                    raise self._fatal(ParseErrorKind.ORPHAN_STACK, message, lineno)
                self._issue(ParseErrorKind.ORPHAN_STACK, message, lineno)
                self.skipping = True
                return None
            try:
                eid = int(fields[1])
                index = int(fields[2])
                address = int(fields[5], 16)
            except ValueError as exc:
                message = f"bad STACK field: {exc}"
                if strict:
                    raise self._fatal(
                        ParseErrorKind.BAD_FIELD, message, lineno
                    ) from None
                self._issue(ParseErrorKind.BAD_FIELD, message, lineno)
                self._drop_current()
                self.skipping = True
                return None
            if eid != self.current.eid:
                message = (
                    f"STACK eid {eid} does not match EVENT eid {self.current.eid}"
                )
                if strict:
                    raise self._fatal(ParseErrorKind.EID_MISMATCH, message, lineno)
                self._issue(ParseErrorKind.EID_MISMATCH, message, lineno)
                self._drop_current()
                self.skipping = True
                return None
            if index != len(self.frames):
                message = (
                    f"non-contiguous frame index {index} "
                    f"(expected {len(self.frames)})"
                )
                if strict:
                    raise self._fatal(ParseErrorKind.FRAME_GAP, message, lineno)
                self._issue(ParseErrorKind.FRAME_GAP, message, lineno)
                self._drop_current()
                self.skipping = True
                return None
            key = (index, fields[3], fields[4], address)
            frame = _FRAME_INTERN.get(key)
            if frame is None:
                frame = StackFrame(
                    index=index, module=fields[3], function=fields[4], address=address
                )
                _FRAME_INTERN[key] = frame
            self.frames.append(frame)
            self.pending += 1
            return None
        else:
            message = f"unknown record tag {tag!r}"
            if strict:
                raise self._fatal(ParseErrorKind.UNKNOWN_TAG, message, lineno)
            self._issue(ParseErrorKind.UNKNOWN_TAG, message, lineno)
            # Keep the open event: a stray foreign line between two event
            # blocks must not lose the completed event before it.  Its
            # EVENT/STACK lines stay pending until the next resync exit.
            self.skipping = True
            return None

    def finish(self) -> Optional[EventRecord]:
        """End of input: run truncated-tail detection and flush (or
        drop) the open event.  Returns the final event, if one is
        yielded."""
        report = self.report
        lineno = self.lineno
        tail_suspect = self.skipping
        if self.current is not None and not tail_suspect:
            known = self.depths.get(self.current.etype)
            if known is not None and len(self.frames) < known:
                tail_suspect = True
        if tail_suspect:
            report.truncated_tail = True
            message = "log ends mid-stack-walk (truncated tail)"
            report.record(ParseErrorKind.TRUNCATED_TAIL, max(lineno, 1), message)
            if self.policy == "warn":
                warnings.warn(
                    f"line {max(lineno, 1)}: {message}", ParseWarning, stacklevel=4
                )
            if self.require_complete_tail:
                if self.strict:
                    # Finalize the report before raising: the truncated
                    # tail is an end-of-input condition (no error *line*),
                    # but the open event's consumed lines are lost with it.
                    self._drop_current()
                    raise ParseError(
                        message, max(lineno, 1), kind=ParseErrorKind.TRUNCATED_TAIL
                    )
                self._drop_current()
        if self.current is not None:
            report.consumed_lines += self.pending
            emitted = self._complete(self.current, self.frames)
            self.current, self.frames, self.pending = None, [], 0
            return emitted
        return None


def _iter_parse(
    lines: Iterable[str],
    policy: str,
    report: ParseReport,
    require_complete_tail: bool,
) -> Iterator[EventRecord]:
    machine = ParseMachine(
        policy=policy, report=report, require_complete_tail=require_complete_tail
    )
    for raw in lines:
        event = machine.feed(raw)
        if event is not None:
            yield event
    event = machine.finish()
    if event is not None:
        yield event


def parse_with_report(
    lines: Iterable[str],
    *,
    policy: str = "drop",
    require_complete_tail: bool = False,
) -> Tuple[List[EventRecord], ParseReport]:
    """Recovering parse convenience: drain the stream, return the kept
    events alongside the fully-populated :class:`ParseReport`."""
    report = ParseReport()
    events = list(
        iter_parse(
            lines,
            policy=policy,
            report=report,
            require_complete_tail=require_complete_tail,
        )
    )
    return events, report


class RawLogParser:
    """Parse raw ETL text into :class:`EventRecord` sequences.

    ``policy`` sets the default parse policy for every ``parse_*``
    method; each call may override it.
    """

    def __init__(self, policy: str = "strict"):
        if policy not in PARSE_POLICIES:
            raise ValueError(
                f"unknown parse policy {policy!r}; expected one of {PARSE_POLICIES}"
            )
        self.policy = policy

    def parse_lines(
        self,
        lines: Union[str, bytes, Iterable[LogLine]],
        *,
        policy: Optional[str] = None,
        report: Optional[ParseReport] = None,
        require_complete_tail: bool = False,
    ) -> List[EventRecord]:
        """Parse raw log text, bytes or lines into records with
        :func:`~repro.etw.fastparse.parse_fast`."""
        from repro.etw.fastparse import parse_fast  # circular at import

        return parse_fast(
            lines,
            policy=policy or self.policy,
            report=report,
            require_complete_tail=require_complete_tail,
        )

    def parse_file(self, path, **kwargs) -> List[EventRecord]:
        return self.parse_lines(Path(os.fspath(path)).read_bytes(), **kwargs)

    def slice_process(
        self,
        events: Sequence[EventRecord],
        process: str,
        pid: Optional[int] = None,
    ) -> List[EventRecord]:
        """Per-process slicing of a whole-machine log.

        With ``pid=None`` every process instance sharing the image name
        is returned (historical behaviour — fine for single-instance
        captures); pass the pid to keep Algorithm-1 implicit-edge
        inference from connecting stacks of unrelated same-named
        processes.
        """
        return [
            event
            for event in events
            if event.process == process and (pid is None or event.pid == pid)
        ]

    def processes(
        self, events: Sequence[EventRecord]
    ) -> List[Tuple[str, int]]:
        """Distinct ``(process, pid)`` pairs in first-appearance order —
        the enumeration to drive pid-aware :meth:`slice_process` calls."""
        seen: dict = {}
        for event in events:
            seen.setdefault((event.process, event.pid), None)
        return list(seen)


def serialize_event(event: EventRecord) -> List[str]:
    """Render one event (and its stack walk) back to raw-log lines."""
    lines = [
        "|".join(
            (
                "EVENT",
                str(event.eid),
                str(event.timestamp),
                str(event.pid),
                event.process,
                str(event.tid),
                event.category,
                str(event.opcode),
                event.name,
            )
        )
    ]
    for frame in event.frames:
        lines.append(
            "|".join(
                (
                    "STACK",
                    str(event.eid),
                    str(frame.index),
                    frame.module,
                    frame.function,
                    f"0x{frame.address:x}",
                )
            )
        )
    return lines


def serialize_events(events: Iterable[EventRecord]) -> List[str]:
    lines: List[str] = []
    for event in events:
        lines.extend(serialize_event(event))
    return lines
