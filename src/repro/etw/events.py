"""Event records and stack frames — the unit of everything LEAPS consumes.

A raw "ETL" log (see :mod:`repro.etw.parser`) is an ordered sequence of
system events; each event carries the full stack walk captured at the
moment the event fired, from the app-level entry point (frame 0) down to
the kernel routine that raised the event.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Node identity used throughout CFG inference: (module, function).
FrameNode = Tuple[str, str]


def _check_field(owner: str, name: str, value: str) -> None:
    """Reject values the pipe-delimited raw-log format cannot represent.

    A raw ``|`` (or newline) inside a string field would serialize into
    extra fields and make ``iter_parse(serialize_event(e))`` fail with a
    field-count error; catching it at construction time turns a silent
    round-trip corruption into an immediate, clear error.
    """
    if "|" in value or "\n" in value or "\r" in value:
        raise ValueError(
            f"{owner}.{name} {value!r} contains a raw-log delimiter "
            "('|' or newline); these characters cannot round-trip through "
            "the pipe-delimited ETL format"
        )


@dataclass(frozen=True)
class StackFrame:
    """One frame of a stack walk.

    ``index`` 0 is the outermost (app entry point) frame; indices increase
    toward the kernel routine that raised the event.
    """

    index: int
    module: str
    function: str
    address: int

    def __post_init__(self):
        _check_field("StackFrame", "module", self.module)
        _check_field("StackFrame", "function", self.function)
        # walks are hashed by value (scalar-mode stream walks): hash once
        fields = (self.index, self.module, self.function, self.address)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # unpickling rehashes: str hashes are salted per process
        return StackFrame, (self.index, self.module, self.function, self.address)

    @property
    def node(self) -> FrameNode:
        """CFG node identity of this frame."""
        return (self.module, self.function)


@dataclass
class EventRecord:
    """A system event with its correlated stack walk."""

    eid: int
    timestamp: int
    pid: int
    process: str
    tid: int
    category: str
    opcode: int
    name: str
    frames: Tuple[StackFrame, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_field("EventRecord", "process", self.process)
        _check_field("EventRecord", "category", self.category)
        _check_field("EventRecord", "name", self.name)

    @property
    def etype(self) -> Tuple[str, int, str]:
        """Behaviour-level identity of the event (stable across payload
        rebuilds, unlike app-space addresses/function names)."""
        return (self.category, self.opcode, self.name)

    def with_frames(self, frames) -> "EventRecord":
        return replace(self, frames=tuple(frames))


#: the integer fields of an event, in capture storage order
INT_FIELDS = ("eid", "timestamp", "pid", "tid", "opcode")
#: the string fields of an event that columns code against a table
STRING_FIELDS = ("process", "category", "name")


def _codes(index: dict, values: Sequence) -> np.ndarray:
    """``values`` coded through ``index``, as an int64 array."""
    return np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def intern_codes(index: dict, table: list, values: Sequence) -> np.ndarray:
    """``values`` coded as positions in ``table``, after appending the
    values new to ``index`` (value → position) in first-appearance
    order."""
    try:  # a stream's tables soon hold every value it sends
        return _codes(index, values)
    except KeyError:
        pass
    new = [value for value in dict.fromkeys(values) if value not in index]
    index.update(zip(new, range(len(table), len(table) + len(new))))
    table.extend(new)
    return _codes(index, values)


class EventColumns:
    """Events as columns: what the text parsers
    (:func:`~repro.etw.fastparse.parse_columns` and the streaming
    parser), the columnar codec and the generation fast path (DESIGN.md
    §13) produce, and what training, the batch and stream scans
    (:meth:`~repro.preprocessing.features.EventFeaturizer.transform_columns`,
    :class:`~repro.preprocessing.features.StreamFeatures`) and the
    capture encoder consume — none of them builds an
    :class:`EventRecord`.  :meth:`from_records` is the one conversion
    from records.  Invariants (producers guarantee them, the encoder
    and the featurizer rely on them):

    * every column is exactly ``n_events`` long, and every ``*_id``
      column is an int64 array indexing its table;
    * ``eid``, ``timestamp``, ``pid``, ``tid`` and ``opcode`` are int64
      arrays, except that a column with a value outside int64 (the text
      format bounds no integer) is an object array of Python ints; the
      capture and chunk encoders reject such a column;
    * table strings contain no raw-log delimiter, and ``walks`` holds
      walk tuples of :class:`StackFrame` objects;
    * a parsed log's, a converted record list's and a generator's
      tables list distinct values in first-appearance order over the
      events (walks by identity, so equal walks may appear twice); the
      tables of a decoded chunk and of a streaming parser's block are
      the stream's cumulative ones, so they may hold entries no event
      of the block uses.
    """

    #: the per-event columns, in capture storage order
    COLUMNS = (
        "eid", "timestamp", "pid", "tid", "opcode",
        "process_id", "category_id", "name_id", "walk_id",
    )
    __slots__ = ("n_events",) + COLUMNS + (
        "process_vocab", "category_vocab", "name_vocab", "walks",
    )

    def __init__(self):
        self.n_events = 0
        for name in self.COLUMNS:
            setattr(self, name, np.zeros(0, dtype=np.int64))
        self.process_vocab: list = []
        self.category_vocab: list = []
        self.name_vocab: list = []
        self.walks: list = []

    @classmethod
    def from_fields(
        cls,
        ints: Sequence[Sequence[int]],
        strings: Sequence[Sequence[str]],
        walk_id: Sequence[int],
        walks: list,
        tables: Optional[Sequence[Tuple[dict, list]]] = None,
    ) -> "EventColumns":
        """Columns of per-event field lists: ``ints`` holds the
        ``INT_FIELDS`` values and ``strings`` the ``STRING_FIELDS``
        values, each coded by :func:`intern_codes` against its ``tables``
        entry — fresh by default, a stream's cumulative ones
        (:class:`~repro.etw.fastparse.StreamingParser`) otherwise;
        ``walk_id`` indexes ``walks``."""
        cols = cls.__new__(cls)  # every slot is set below
        cols.n_events = len(walk_id)
        for name, values in zip(INT_FIELDS, ints):
            try:
                column = np.array(values, dtype=np.int64)
            except OverflowError:  # the text format bounds no integer
                column = np.array(values, dtype=object)
            setattr(cols, name, column)
        if tables is None:
            tables = [({}, []) for _ in STRING_FIELDS]
        for name, values, (index, vocab) in zip(STRING_FIELDS, strings, tables):
            setattr(cols, f"{name}_vocab", vocab)
            setattr(cols, f"{name}_id", intern_codes(index, vocab, values))
        cols.walk_id = np.asarray(walk_id, dtype=np.int64)
        cols.walks = walks
        return cols

    @classmethod
    def from_records(cls, records: Iterable[EventRecord]) -> "EventColumns":
        """The columns of ``records``, in order: tables in
        first-appearance order, walks deduplicated by identity (events
        of one parsed walk share one tuple)."""
        if not isinstance(records, (list, tuple)):
            records = list(records)

        def column(name: str) -> list:
            return list(map(attrgetter(name), records))

        frames = column("frames")
        by_identity = dict(zip(map(id, frames), frames))
        index = {key: code for code, key in enumerate(by_identity)}
        return cls.from_fields(
            [column(name) for name in INT_FIELDS],
            [column(name) for name in STRING_FIELDS],
            _codes(index, list(map(id, frames))),
            list(by_identity.values()),
        )

    def records(self) -> List[EventRecord]:
        """The events as :class:`EventRecord` objects, in order; each
        record's ``frames`` is the shared walk tuple of its table."""
        out: List[EventRecord] = []
        # The hot path: C-driven loops over Python ints and interned
        # objects.  Pause generational GC as in the block-level text
        # parser — the transient containers otherwise trigger rescans
        # costing more than the reconstruction itself.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            processes = self.process_vocab
            categories = self.category_vocab
            names = self.name_vocab
            walks = self.walks
            append = out.append
            new = EventRecord.__new__
            # Table strings are delimiter-free and integer columns hold
            # exact integers (the invariants above), so __init__ can be
            # bypassed exactly as in the block-level text parser.
            for (
                eid, timestamp, pid, tid, opcode,
                process, category, name, walk,
            ) in zip(*[getattr(self, column).tolist() for column in self.COLUMNS]):
                record = new(EventRecord)
                record.eid = eid
                record.timestamp = timestamp
                record.pid = pid
                record.process = processes[process]
                record.tid = tid
                record.category = categories[category]
                record.opcode = opcode
                record.name = names[name]
                record.frames = walks[walk]
                append(record)
        finally:
            if gc_was_enabled:
                gc.enable()
        return out
