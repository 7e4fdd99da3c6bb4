"""Block-level text parser: each distinct stack walk is validated once.

:func:`parse_fast` produces exactly what draining
:func:`repro.etw.parser.iter_parse` over the same lines produces —
same :class:`EventRecord` list, same interned frames, same
:class:`ParseReport` accounting, same exceptions — but parses *clean*
logs a stack block at a time instead of a line at a time.  Every event
carries its full stack walk, and walks repeat heavily: an 8000-event
application log has ~78k lines but only a few dozen distinct walks.
:func:`parse_columns` is the same parse emitting
:class:`~repro.etw.events.EventColumns`, for training and the batch
scan, and :class:`StreamingParser` emits it a region at a time, for the
stream scan.

Every text input takes the same path.  ``str`` is used as is,
``bytes`` are decoded once, and a line sequence is joined once; then

1. one ``split("\\nEVENT|")`` cuts the text into per-event blocks, each
   an event head line followed by its stack lines;
2. each block is proven to hold nothing but STACK lines of its own
   event: its newline count must equal its count of
   ``"\\nSTACK|<eid>|"``, where ``<eid>`` is the head's eid text (every
   occurrence starts at a line start, and the trailing ``|`` keeps eid
   ``1`` from matching ``12``).  Stripping that prefix leaves an
   eid-free walk text;
3. the walk texts are memoized — per parse, or for a stream's life —
   so each *distinct* walk is field-checked (four fields, integer index
   equal to its position, hex address) and interned through
   :func:`~repro.etw.parser.intern_frame` once; the memo hands out walk
   ids, with the walk table in first-appearance order;
4. the head lines are columnized with C-level passes (a per-head pipe
   count proves a flat ``"|".join(...).split("|")`` aligned), and their
   numeric fields are converted with the scalar parser's own ``int()``;
5. one of two finishers turns the fields and walk ids into the output:
   :func:`parse_fast` builds records whose events of one walk share one
   frame tuple, and :func:`parse_columns` and :class:`StreamingParser`
   build columns (int64, or Python ints past int64; ``walk_id`` from
   the memo; strings coded in first-appearance order against tables
   the caller gives: fresh ones per parse, the stream's cumulative
   ones).

Blank and whitespace-only lines fail the block proof; the parser then
counts and drops them (the scalar parser's ``not line.strip()`` test)
and proves the remaining text once more, so they stay on the fast path.

**Anything else** the block path cannot prove clean — an unknown tag, a
wrong field count, a non-numeric field, a STACK eid spelled differently
from its EVENT eid (``07`` vs ``7``), a frame-index gap, undecodable
bytes, a ``\\r`` anywhere, a line-sequence item holding a newline, a
suspect truncated tail — abandons the block path *before touching the
caller's report* and re-parses everything through the scalar
``iter_parse``, so the strict/warn/drop recovery semantics are the
scalar parser's own, not a reimplementation.
"""

from __future__ import annotations

import gc
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.etw.events import (
    INT_FIELDS,
    STRING_FIELDS,
    EventColumns,
    EventRecord,
    StackFrame,
    intern_codes,
)
from repro.etw.parser import (
    PARSE_POLICIES,
    LogLine,
    ParseError,
    ParseMachine,
    _event_from_fields,
    intern_frame,
    iter_parse,
    split_log_bytes,
    split_log_text,
)
from repro.etw.recovery import ParseReport

#: EVENT fields after the ``EVENT|`` tag: eid, timestamp, pid, process,
#: tid, category, opcode, name
_HEAD_FIELDS = 8
_EVENT_TAG = "EVENT|"
_BLOCK_SEP = "\nEVENT|"

Walk = Tuple[StackFrame, ...]


class _Fallback(Exception):
    """Internal: the block path met something only the scalar parser can
    classify; no observable state has been touched yet."""


def _scalar(
    lines: Iterable[LogLine],
    policy: str,
    report: Optional[ParseReport],
    require_complete_tail: bool,
) -> List[EventRecord]:
    return list(
        iter_parse(
            lines,
            policy=policy,
            report=report,
            require_complete_tail=require_complete_tail,
        )
    )


def _columns(lines: List[str], n_fields: int) -> List[List[str]]:
    """Columnize record lines without a per-line split: verify every
    line has exactly ``n_fields - 1`` pipes (which makes the flat
    ``join().split`` below provably aligned), then stride-slice the one
    flat field list into columns — all C-level passes."""
    n_pipes = n_fields - 1
    if any(line.count("|") != n_pipes for line in lines):
        raise _Fallback
    if not lines:
        return [[] for _ in range(n_fields)]
    fields = "|".join(lines).split("|")
    return [fields[start::n_fields] for start in range(n_fields)]


def _ints(column: Sequence[str]) -> List[int]:
    # The same int() the scalar parser applies per field, so accepted
    # spellings ("007", "+3", unicode digits) stay bit-for-bit identical.
    try:
        return list(map(int, column))
    except ValueError:
        raise _Fallback from None


def _walk(text: str) -> Walk:
    """Validate and intern one stripped walk text (``"\\n0|mod|fn|0x1"``
    per frame, ``""`` for no frames) — the scalar parser's STACK field
    checks, once per distinct walk."""
    frames = []
    try:
        for position, line in enumerate(text.split("\n")[1:]):
            fields = line.split("|")
            if len(fields) != 4:
                raise _Fallback
            index_text, module, function, address_text = fields
            if int(index_text) != position:
                raise _Fallback
            frames.append(
                intern_frame(position, module, function, int(address_text, 16))
            )
    except ValueError:
        raise _Fallback from None
    return tuple(frames)


def _blocks(text: str, memo: dict, walks: List[Walk]) -> Tuple[List[str], List[int]]:
    """Cut clean text into event head lines and their walks; returns
    ``(heads, walk_ids)``, each head's index into ``walks``.  ``memo``
    maps each validated stripped walk text to its id; a walk new to it
    is validated, interned and appended to ``walks``, so the caller
    chooses how long a walk stays validated (one parse, or a stream's
    life).  Raises :class:`_Fallback` unless every line is an EVENT line
    or a STACK line carrying the eid text of the EVENT line above it."""
    blocks = text.split(_BLOCK_SEP)
    first = blocks[0]
    if not first.startswith(_EVENT_TAG):
        raise _Fallback  # blank, orphan STACK or foreign first line
    blocks[0] = first[len(_EVENT_TAG):]
    heads: List[str] = []
    walk_ids: List[int] = []
    add_head, add_id = heads.append, walk_ids.append
    for block in blocks:
        cut = block.find("\n")
        if cut < 0:
            cut = len(block)  # no stack lines: the empty walk text
        head = block[:cut]
        add_head(head)
        rest = block[cut:]
        prefix = "\nSTACK|" + head[: head.find("|")] + "|"
        key = rest.replace(prefix, "\n")
        walk_id = memo.get(key)
        if walk_id is None:
            # every line of the block must be a STACK line of this eid
            if rest.count(prefix) != rest.count("\n"):
                raise _Fallback
            walk = _walk(key)
            walk_id = memo[key] = len(walks)
            walks.append(walk)
        elif len(rest) - len(key) != len(walks[walk_id]) * (len(prefix) - 1):
            # A validated key has one line per frame, and each prefix
            # replaced shrinks the text by len(prefix) - 1: the same
            # proof without rescanning the block.
            raise _Fallback
        add_id(walk_id)
    return heads, walk_ids


#: The block path's finisher: ``(ints, strings, walk_ids, walks)`` —
#: the ``INT_FIELDS`` and ``STRING_FIELDS`` per event, each event's walk
#: id and the walk table — to the parse output.
Finisher = Callable[[list, list, List[int], List[Walk]], object]


def _parse_body(
    body: str, finish: Finisher, memo: dict, walks: List[Walk],
    check_tail: bool = True, expected: Optional[int] = None,
) -> Tuple[object, int, int, int]:
    """The block path proper over ``body`` — the lines joined by
    ``"\\n"``, ``\\r``-free, no trailing-newline convention — with the
    walk ``memo`` and table ``walks`` (see :func:`_blocks`).  Returns
    ``(finish(...), n_events, n_lines, n_blank)``; raises
    :class:`_Fallback` on anything the scalar parser would classify, and
    before finishing when ``body`` does not hold ``expected`` lines
    (a joined line-list item held a newline).

    ``check_tail=False`` skips the truncated-tail heuristic — only valid
    when the caller *knows* the final block is complete, i.e. for a
    streaming region cut immediately before a valid ``EVENT`` line
    (:class:`StreamingParser`); end-of-input always checks."""
    n_blank = 0
    try:
        heads, walk_ids = _blocks(body, memo, walks)
    except _Fallback:
        lines = body.split("\n")
        kept = [line for line in lines if line.strip()]
        n_blank = len(lines) - len(kept)
        if not n_blank:
            raise
        heads, walk_ids = _blocks("\n".join(kept), memo, walks) if kept else ([], [])
    depths = list(map(len, map(walks.__getitem__, walk_ids)))
    n_lines = len(heads) + sum(depths) + n_blank
    if expected is not None and n_lines != expected:
        raise _Fallback

    ecols = _columns(heads, _HEAD_FIELDS)
    # INT_FIELDS and STRING_FIELDS order of the EVENT line's fields
    ints = [_ints(ecols[field]) for field in (0, 1, 2, 4, 6)]
    strings = [ecols[3], ecols[5], ecols[7]]
    if check_tail:
        _check_tail(strings[1], ints[4], strings[2], depths)
    return finish(ints, strings, walk_ids, walks), len(heads), n_lines, n_blank


def _records(
    ints: list, strings: list, walk_ids: List[int], walks: List[Walk]
) -> List[EventRecord]:
    """The record finisher of :func:`parse_fast`."""
    events: List[EventRecord] = []
    append = events.append
    new = EventRecord.__new__
    # Field values came out of a pipe split of newline-split CR-free
    # text, so the _check_field invariants hold by construction and
    # __init__ can be bypassed.
    for eid, timestamp, pid, tid, opcode, process, category, name, walk in zip(
        *ints, *strings, map(walks.__getitem__, walk_ids)
    ):
        record = new(EventRecord)
        record.eid = eid
        record.timestamp = timestamp
        record.pid = pid
        record.process = process
        record.tid = tid
        record.category = category
        record.opcode = opcode
        record.name = name
        record.frames = walk
        append(record)
    return events


def _check_tail(
    categories: List[str],
    opcodes: List[int],
    names: List[str],
    depths: List[int],
) -> None:
    """Raise :class:`_Fallback` when the scalar truncated-tail heuristic
    would fire: the final walk (``depths`` per event) is shallower than
    *every* earlier walk of the same etype.  Suspect tails take the
    scalar path — it owns the report/raise semantics for them."""
    last = len(depths) - 1
    if last < 1:
        return
    category, opcode, name = categories[last], opcodes[last], names[last]
    depth = depths[last]
    suspect = False
    for position in range(last):
        if (
            names[position] == name
            and opcodes[position] == opcode
            and categories[position] == category
        ):
            if depths[position] <= depth:
                return  # an earlier walk at or below the tail's depth
            suspect = True
    if suspect:
        raise _Fallback  # every same-etype walk is deeper


def _parse_guarded(
    body: str, finish: Finisher, memo: dict, walks: List[Walk], **checks
):
    """:func:`_parse_body` with generational GC paused (the parse
    allocates several objects per event; collections rescanning them
    mid-parse cost more than the parse) and the caller's GC state
    restored; returns ``None`` where the block path gave up."""
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _parse_body(body, finish, memo, walks, **checks)
    except _Fallback:
        return None
    finally:
        if gc_was_enabled:
            gc.enable()


def _join_lines(lines: List[LogLine]) -> Optional[str]:
    """One text for a line list, or ``None`` when an item is not
    ``str`` (undecodable ``bytes`` lines are the scalar parser's).
    Trailing newlines — file iteration keeps them — are stripped per
    line first, as the scalar parser does."""
    first = lines[0]
    if isinstance(first, str) and first.endswith("\n"):
        lines = [
            line.rstrip("\n") if isinstance(line, str) else line
            for line in lines
        ]
    try:
        return "\n".join(lines)
    except TypeError:
        return None


def _parse(
    source: Union[str, bytes, Iterable[LogLine]],
    policy: str,
    report: Optional[ParseReport],
    require_complete_tail: bool,
    finish: Finisher,
):
    """What :func:`parse_fast` and :func:`parse_columns` share: the
    block path finished by ``finish``, or else the scalar parser's
    record list."""
    if policy not in PARSE_POLICIES:
        raise ValueError(
            f"unknown parse policy {policy!r}; expected one of {PARSE_POLICIES}"
        )

    expected = None  # line count a joined line list must reproduce
    if isinstance(source, (str, bytes)):
        # The membership scan is far cheaper than a replace that finds
        # nothing, and most logs hold no \r at all.
        if isinstance(source, bytes):
            if b"\r" in source:
                source = source.replace(b"\r\n", b"\n")
            try:
                text = source.decode("utf-8")
            except UnicodeDecodeError:
                return _scalar(
                    split_log_bytes(source), policy, report, require_complete_tail
                )
        else:
            text = source.replace("\r\n", "\n") if "\r" in source else source
        if not text:
            return []
        # A single trailing newline ends the last line; it is not a line.
        body = text[:-1] if text.endswith("\n") else text
    else:
        lines = source if isinstance(source, list) else list(source)
        if not lines:
            return []
        body = _join_lines(lines)
        if body is None:
            return _scalar(lines, policy, report, require_complete_tail)
        expected = len(lines)

    parsed = None
    # A lone \r is field content to the scalar parser (classified
    # BAD_FIELD via the EventRecord delimiter check) — scalar owns it.
    # A line-list item holding a newline joins into extra lines, which
    # the scalar parser sees as one line: ``expected`` catches it.
    if "\r" not in body:
        parsed = _parse_guarded(body, finish, {}, [], expected=expected)
    if parsed is None:
        if expected is None:
            lines = split_log_text(text)
        return _scalar(lines, policy, report, require_complete_tail)

    out, n_events, n_lines, n_blank = parsed
    if report is not None:
        report.total_lines += n_lines
        report.blank_lines += n_blank
        report.consumed_lines += n_lines - n_blank
        report.events_yielded += n_events
    return out


def parse_fast(
    source: Union[str, bytes, Iterable[LogLine]],
    *,
    policy: str = "strict",
    report: Optional[ParseReport] = None,
    require_complete_tail: bool = False,
) -> List[EventRecord]:
    """Parse raw log text, bytes or lines into events, fast.

    Equivalent to ``list(iter_parse(lines, ...))`` for every input and
    policy — identical events, reports, and exceptions — via the block
    path when the log is clean and the scalar parser otherwise.
    ``bytes`` input (a whole file's contents) mirrors
    :func:`~repro.etw.parser.read_log_lines`: ``\\n``/``\\r\\n``
    boundaries only, and undecodable lines reach the parser as raw
    ``bytes`` for ``BAD_ENCODING`` classification.  Events of one
    distinct walk share one frame tuple, which
    :meth:`~repro.etw.events.EventColumns.from_records` dedupes by
    identity.
    """
    return _parse(source, policy, report, require_complete_tail, _records)


def parse_columns(
    source: Union[str, bytes, Iterable[LogLine]],
    *,
    policy: str = "strict",
    report: Optional[ParseReport] = None,
    require_complete_tail: bool = False,
) -> EventColumns:
    """:func:`parse_fast` as :class:`~repro.etw.events.EventColumns`:
    ``parse_columns(...).records()`` equals ``parse_fast(...)``, with
    the same report accounting and the same exceptions.  The block path
    codes its walk memo straight into ``walk_id`` and ``walks`` and
    builds no record; input it cannot prove clean takes the scalar
    parser, whose records convert through
    :meth:`~repro.etw.events.EventColumns.from_records`.
    """
    parsed = _parse(
        source, policy, report, require_complete_tail, EventColumns.from_fields
    )
    if isinstance(parsed, list):
        return EventColumns.from_records(parsed)
    return parsed


def _opens_event(line: LogLine) -> bool:
    """Whether the scalar parser would open a new event on ``line`` —
    the only kind of line that provably completes the block before it
    (a malformed ``EVENT`` line may instead drop that block)."""
    if not isinstance(line, str) or not line.startswith(_EVENT_TAG):
        return False
    fields = line.split("|")
    if len(fields) != _HEAD_FIELDS + 1:
        return False
    try:
        _event_from_fields(fields)
    except ValueError:
        return False
    return True


class StreamingParser:
    """Incremental :func:`parse_columns`: feed a live stream's lines in
    arbitrary chunks, get completed events back as
    :class:`~repro.etw.events.EventColumns`, bit-identically to one
    scalar parse of the whole stream.

    The serving workers keep one of these per connected stream.  Clean
    input goes through the same block path as :func:`parse_columns`, one
    *region* at a time: fed lines accumulate in a holdback list, and
    whenever a line arrives on which the scalar parser would open a new
    event (a well-formed ``EVENT`` line), the lines *before* the last
    such line — whole, provably complete stack blocks — are joined and
    block-parsed, while the potentially still-growing final block stays
    held.  Regions skip the truncated-tail heuristic (their last block
    is complete by construction); :meth:`finish` scalar-feeds the
    holdback and runs the real end-of-input tail logic via the shared
    :class:`~repro.etw.parser.ParseMachine`.

    Every block the parser hands out indexes one set of cumulative
    tables, kept for the stream's life: the walk memo and walk table
    (each distinct walk is validated and interned once per stream), and
    the process, category and name vocabularies.  They grow with the
    stream's distinct walks and strings and die with the parser.

    The first region the block path cannot prove clean flips the stream
    permanently to scalar mode — every subsequent line goes through
    ``ParseMachine.feed`` — so strict/warn/drop recovery semantics,
    report accounting, and error line numbers are the scalar parser's
    own; its records enter the same tables, walks keyed by value.  A
    stream that never shows an ``EVENT`` line is bounded by
    ``backlog_limit``: past it, the stream goes scalar rather than
    buffering without bound.
    """

    #: holdback bound (lines) for streams that never start an event
    BACKLOG_LIMIT = 65536

    def __init__(
        self,
        policy: str = "strict",
        report: Optional[ParseReport] = None,
        require_complete_tail: bool = False,
        backlog_limit: int = BACKLOG_LIMIT,
    ):
        self.machine = ParseMachine(
            policy=policy,
            report=report,
            require_complete_tail=require_complete_tail,
        )
        self.report = self.machine.report
        self.backlog_limit = backlog_limit
        self._holdback: List[LogLine] = []
        self._scalar_mode = False
        self._finished = False
        self._memo: dict = {}  # stripped walk text → walk id
        self._walk_ids: dict = {}  # scalar-mode walk tuple → walk id
        self._walks: List[Walk] = []
        self._tables = [({}, []) for _ in STRING_FIELDS]

    @property
    def scalar_mode(self) -> bool:
        """True once the stream has permanently left the block path."""
        return self._scalar_mode

    def feed_lines(self, lines: Sequence[LogLine]) -> EventColumns:
        """Feed the next chunk of (already newline-split, ``\\r\\n``-
        normalized) lines; returns the events they completed.  Strict
        mode raises :class:`~repro.etw.parser.ParseError` exactly as the
        scalar parser would, with matching line numbers; the events the
        call completed before the failing line ride on it as ``events``."""
        if self._finished:
            raise RuntimeError("feed_lines() after finish()")
        return self._emit(self._feed, lines)

    def finish(self) -> EventColumns:
        """End of stream: drain the holdback through the scalar machine
        and run the real truncated-tail logic.  Returns the final
        events, if any (on ``ParseError.events`` if it raises)."""
        if self._finished:
            return self._scalar_columns([])
        self._finished = True
        return self._emit(self._drain)

    def _emit(self, step, *args) -> EventColumns:
        """Run one parse step: its block region, or else the scalar
        records it left in ``out`` as columns, also on a ``ParseError``."""
        out: List[EventRecord] = []
        try:
            block = step(*args, out)
        except ParseError as error:
            error.events = self._scalar_columns(out)
            raise
        return self._scalar_columns(out) if block is None else block

    def _drain(self, out: List[EventRecord]) -> None:
        held, self._holdback = self._holdback, []
        self._feed_scalar(held, out)
        event = self.machine.finish()
        if event is not None:
            out.append(event)

    def _feed(
        self, lines: Sequence[LogLine], out: List[EventRecord]
    ) -> Optional[EventColumns]:
        """One feed: the block region it completed, or ``None`` with the
        scalar parser's records in ``out``."""
        if self._scalar_mode:
            self._feed_scalar(lines, out)
            return None
        cut = None
        for position in range(len(lines) - 1, -1, -1):
            if _opens_event(lines[position]):
                cut = position
                break
        if cut is None:
            if not lines:
                return None
            self._holdback.extend(lines)
            if len(self._holdback) > self.backlog_limit:
                self._scalar_mode = True
                held, self._holdback = self._holdback, []
                self._feed_scalar(held, out)
            return None
        region = self._holdback + list(lines[:cut])
        self._holdback = list(lines[cut:])
        return self._bulk_region(region, out) if region else None

    def _feed_scalar(
        self, lines: Sequence[LogLine], out: List[EventRecord]
    ) -> None:
        feed = self.machine.feed
        for raw in lines:
            event = feed(raw)
            if event is not None:
                out.append(event)

    def _bulk_region(
        self, region: List[LogLine], out: List[EventRecord]
    ) -> Optional[EventColumns]:
        # Block mode never leaves an open event in the machine, so the
        # region starts at a block boundary.
        parsed = None
        try:
            body = "\n".join(region)
        except TypeError:
            body = None  # undecodable bytes lines are the scalar parser's
        # Same \r gate as parse_fast.
        if body is not None and "\r" not in body:
            parsed = _parse_guarded(
                body, self._finish, self._memo, self._walks,
                check_tail=False, expected=len(region),
            )
        if parsed is None:
            self._scalar_mode = True
            self._feed_scalar(region, out)
            held, self._holdback = self._holdback, []
            self._feed_scalar(held, out)
            return None
        block, n_events, n_lines, n_blank = parsed
        report = self.machine.report
        report.total_lines += n_lines
        report.blank_lines += n_blank
        report.consumed_lines += n_lines - n_blank
        report.events_yielded += n_events
        self.machine.lineno += n_lines
        return block

    def _finish(
        self, ints: list, strings: list, walk_ids: List[int], walks: List[Walk]
    ) -> EventColumns:
        """The stream's columns finisher: the region over the stream's
        tables, and the machine's truncated-tail depth table kept as a
        line-by-line feed would, once per distinct (event type, walk)."""
        depths = self.machine.depths
        for category, opcode, name, walk_id in dict.fromkeys(
            zip(strings[1], ints[4], strings[2], walk_ids)
        ):
            etype, depth = (category, opcode, name), len(walks[walk_id])
            if depth < depths.get(etype, depth + 1):
                depths[etype] = depth
        return EventColumns.from_fields(
            ints, strings, walk_ids, walks, self._tables
        )

    def _scalar_columns(self, records: List[EventRecord]) -> EventColumns:
        """Scalar-mode records as columns over the stream's tables; their
        walks are keyed by value, as each record has its own tuple."""

        def column(name: str) -> list:
            return list(map(attrgetter(name), records))

        walk_ids = intern_codes(self._walk_ids, self._walks, column("frames"))
        return EventColumns.from_fields(
            [column(name) for name in INT_FIELDS],
            [column(name) for name in STRING_FIELDS],
            walk_ids, self._walks, self._tables,
        )
