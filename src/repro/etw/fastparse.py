"""Block-level text parser: each distinct stack walk is validated once.

:func:`parse_fast` produces exactly what draining
:func:`repro.etw.parser.iter_parse` over the same lines produces —
same :class:`EventRecord` list, same interned frames, same
:class:`ParseReport` accounting, same exceptions — but parses *clean*
logs a stack block at a time instead of a line at a time.  Every event
carries its full stack walk, and walks repeat heavily: an 8000-event
application log has ~78k lines but only a few dozen distinct walks.

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
3. the walk texts are memoized per parse, so each *distinct* walk is
   field-checked (four fields, integer index equal to its position,
   hex address) and interned through
   :func:`~repro.etw.parser.intern_frame` once, and its events share
   one frame tuple;
4. the head lines are columnized with C-level passes (a per-head pipe
   count proves a flat ``"|".join(...).split("|")`` aligned), and their
   numeric fields are converted with the scalar parser's own ``int()``.

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
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.etw.events import EventRecord, StackFrame
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
    per frame) — the scalar parser's STACK field checks, once per
    distinct walk."""
    frames = []
    try:
        for position, line in enumerate(text[1:].split("\n")):
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


def _blocks(text: str) -> Tuple[List[str], List[Walk], int]:
    """Cut clean text into event head lines and their walks; returns
    ``(heads, walks, n_frames)``.  Raises :class:`_Fallback` unless
    every line is an EVENT line or a STACK line carrying the eid text of
    the EVENT line above it."""
    blocks = text.split(_BLOCK_SEP)
    first = blocks[0]
    if not first.startswith(_EVENT_TAG):
        raise _Fallback  # blank, orphan STACK or foreign first line
    blocks[0] = first[len(_EVENT_TAG):]
    heads: List[str] = []
    walks: List[Walk] = []
    add_head, add_walk = heads.append, walks.append
    memo: dict = {}
    for block in blocks:
        cut = block.find("\n")
        if cut < 0:
            add_head(block)
            add_walk(())
            continue
        head = block[:cut]
        add_head(head)
        rest = block[cut:]
        prefix = "\nSTACK|" + head[: head.find("|")] + "|"
        key = rest.replace(prefix, "\n")
        walk = memo.get(key)
        if walk is None:
            # every line of the block must be a STACK line of this eid
            if rest.count(prefix) != rest.count("\n"):
                raise _Fallback
            walk = memo[key] = _walk(key)
        elif len(rest) - len(key) != len(walk) * (len(prefix) - 1):
            # A validated key has one line per frame, and each prefix
            # replaced shrinks the text by len(prefix) - 1: the same
            # proof without rescanning the block.
            raise _Fallback
        add_walk(walk)
    return heads, walks, sum(map(len, walks))


def _parse_body(
    body: str, check_tail: bool = True
) -> Tuple[List[EventRecord], int, int]:
    """The block path proper over ``body`` — the lines joined by
    ``"\\n"``, ``\\r``-free, no trailing-newline convention.  Returns
    ``(events, n_lines, n_blank)``; raises :class:`_Fallback` on
    anything the scalar parser would classify.

    ``check_tail=False`` skips the truncated-tail heuristic — only valid
    when the caller *knows* the final block is complete, i.e. for a
    streaming region cut immediately before a valid ``EVENT`` line
    (:class:`StreamingParser`); end-of-input always checks."""
    n_blank = 0
    try:
        heads, walks, n_frames = _blocks(body)
    except _Fallback:
        lines = body.split("\n")
        kept = [line for line in lines if line.strip()]
        n_blank = len(lines) - len(kept)
        if not n_blank:
            raise
        if not kept:
            return [], n_blank, n_blank
        heads, walks, n_frames = _blocks("\n".join(kept))
    n_lines = len(heads) + n_frames + n_blank

    ecols = _columns(heads, _HEAD_FIELDS)
    eids = _ints(ecols[0])
    timestamps = _ints(ecols[1])
    pids = _ints(ecols[2])
    tids = _ints(ecols[4])
    opcodes = _ints(ecols[6])
    if check_tail:
        _check_tail(ecols[5], opcodes, ecols[7], walks)

    fields = (eids, timestamps, pids, ecols[3], tids, ecols[5], opcodes,
              ecols[7], walks)
    events: List[EventRecord] = []
    append = events.append
    new = EventRecord.__new__
    # Field values came out of a pipe split of newline-split CR-free
    # text, so the _check_field invariants hold by construction and
    # __init__ can be bypassed.
    for eid, timestamp, pid, process, tid, category, opcode, name, walk in (
        zip(*fields)
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
    return events, n_lines, n_blank


def _check_tail(
    categories: List[str],
    opcodes: List[int],
    names: List[str],
    walks: List[Walk],
) -> None:
    """Raise :class:`_Fallback` when the scalar truncated-tail heuristic
    would fire: the final walk is shallower than *every* earlier walk of
    the same etype.  Suspect tails take the scalar path — it owns the
    report/raise semantics for them."""
    last = len(walks) - 1
    if last < 1:
        return
    category, opcode, name = categories[last], opcodes[last], names[last]
    depth = len(walks[last])
    suspect = False
    for position in range(last):
        if (
            names[position] == name
            and opcodes[position] == opcode
            and categories[position] == category
        ):
            if len(walks[position]) <= depth:
                return  # an earlier walk at or below the tail's depth
            suspect = True
    if suspect:
        raise _Fallback  # every same-etype walk is deeper


def _parse_guarded(body: str, check_tail: bool = True):
    """:func:`_parse_body` with generational GC paused (the record build
    allocates one object per event; collections rescanning them
    mid-parse cost more than the parse) and the caller's GC state
    restored; returns ``None`` where the block path gave up."""
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _parse_body(body, check_tail=check_tail)
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
    distinct walk share one frame tuple, which the capture encoder's
    identity pre-pass exploits.
    """
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
    if "\r" not in body:
        parsed = _parse_guarded(body)
    if parsed is None or (expected is not None and parsed[1] != expected):
        # A line-list item holding a newline joins into extra lines;
        # the scalar parser sees it as one line.
        if expected is None:
            lines = split_log_text(text)
        return _scalar(lines, policy, report, require_complete_tail)

    events, n_lines, n_blank = parsed
    if report is not None:
        report.total_lines += n_lines
        report.blank_lines += n_blank
        report.consumed_lines += n_lines - n_blank
        report.events_yielded += len(events)
    return events


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
    """Incremental :func:`parse_fast`: feed a live stream's lines in
    arbitrary chunks, get completed events back, bit-identically to one
    scalar parse of the whole stream.

    The serving workers keep one of these per connected stream.  Clean
    input goes through the same block path as :func:`parse_fast`, one
    *region* at a time: fed lines accumulate in a holdback list, and
    whenever a line arrives on which the scalar parser would open a new
    event (a well-formed ``EVENT`` line), the lines *before* the last
    such line — whole, provably complete stack blocks — are joined and
    block-parsed, while the potentially still-growing final block stays
    held.  Regions skip the truncated-tail heuristic (their last block
    is complete by construction); :meth:`finish` scalar-feeds the
    holdback and runs the real end-of-input tail logic via the shared
    :class:`~repro.etw.parser.ParseMachine`.

    The first region the block path cannot prove clean flips the stream
    permanently to scalar mode — every subsequent line goes through
    ``ParseMachine.feed`` — so strict/warn/drop recovery semantics,
    report accounting, and error line numbers are the scalar parser's
    own.  A stream that never shows an ``EVENT`` line is bounded by
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
        #: every holdback line is known \r-free str (set by cr_free feeds)
        self._holdback_cr_free = True
        self._scalar_mode = False
        self._finished = False

    @property
    def scalar_mode(self) -> bool:
        """True once the stream has permanently left the block path."""
        return self._scalar_mode

    def feed_lines(
        self, lines: Sequence[LogLine], cr_free: bool = False
    ) -> List[EventRecord]:
        """Feed the next chunk of (already newline-split, ``\\r\\n``-
        normalized) lines; returns the events they completed.  Strict
        mode raises :class:`~repro.etw.parser.ParseError` exactly as the
        scalar parser would, with matching line numbers; the events the
        call completed before the failing line ride on it as ``events``.

        ``cr_free=True`` asserts every line is a ``str`` with no ``\\r``
        anywhere (the byte-fed serving path proves this with one C-speed
        scan of the decoded region), letting the block path skip its
        own scan."""
        if self._finished:
            raise RuntimeError("feed_lines() after finish()")
        out: List[EventRecord] = []
        try:
            self._feed(lines, cr_free, out)
        except ParseError as error:
            error.events = out
            raise
        return out

    def finish(self) -> List[EventRecord]:
        """End of stream: drain the holdback through the scalar machine
        and run the real truncated-tail logic.  Returns the final
        events, if any (on ``ParseError.events`` if it raises)."""
        if self._finished:
            return []
        self._finished = True
        held, self._holdback = self._holdback, []
        out: List[EventRecord] = []
        try:
            self._feed_scalar(held, out)
            event = self.machine.finish()
        except ParseError as error:
            error.events = out
            raise
        if event is not None:
            out.append(event)
        return out

    def _feed(
        self, lines: Sequence[LogLine], cr_free: bool, out: List[EventRecord]
    ) -> None:
        if self._scalar_mode:
            self._feed_scalar(lines, out)
            return
        cut = None
        for position in range(len(lines) - 1, -1, -1):
            if _opens_event(lines[position]):
                cut = position
                break
        if cut is None:
            if not lines:
                return
            self._holdback.extend(lines)
            self._holdback_cr_free = self._holdback_cr_free and cr_free
            if len(self._holdback) > self.backlog_limit:
                self._scalar_mode = True
                held, self._holdback = self._holdback, []
                self._feed_scalar(held, out)
            return
        region = self._holdback + list(lines[:cut])
        region_cr_free = self._holdback_cr_free and cr_free
        self._holdback = list(lines[cut:])
        self._holdback_cr_free = cr_free
        if region:
            self._bulk_region(region, region_cr_free, out)

    def _feed_scalar(
        self, lines: Sequence[LogLine], out: List[EventRecord]
    ) -> None:
        feed = self.machine.feed
        for raw in lines:
            event = feed(raw)
            if event is not None:
                out.append(event)

    def _bulk_region(
        self, region: List[LogLine], cr_free: bool, out: List[EventRecord]
    ) -> None:
        # The machine is virgin here (block mode never leaves an open
        # event in it), so the region starts at a block boundary.
        parsed = None
        try:
            body = "\n".join(region)
        except TypeError:
            body = None  # undecodable bytes lines are the scalar parser's
        # Same \r gate as parse_fast; a cr_free region was already
        # proven clean by the caller's whole-buffer scan.
        if body is not None and (cr_free or "\r" not in body):
            parsed = _parse_guarded(body, check_tail=False)
        if parsed is None or parsed[1] != len(region):
            self._scalar_mode = True
            self._feed_scalar(region, out)
            held, self._holdback = self._holdback, []
            self._feed_scalar(held, out)
            return
        events, n_lines, n_blank = parsed
        report = self.machine.report
        report.total_lines += n_lines
        report.blank_lines += n_blank
        report.consumed_lines += n_lines - n_blank
        self.machine.observe_bulk_events(events)
        self.machine.lineno += n_lines
        out.extend(events)
