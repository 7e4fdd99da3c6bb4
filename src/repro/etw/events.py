"""Event records and stack frames — the unit of everything LEAPS consumes.

A raw "ETL" log (see :mod:`repro.etw.parser`) is an ordered sequence of
system events; each event carries the full stack walk captured at the
moment the event fired, from the app-level entry point (frame 0) down to
the kernel routine that raised the event.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.etw.recovery import ParseReport

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
        # Frames are the unit of the featurization memo (hashed inside
        # every ``event.frames`` cache key, once per event); the
        # dataclass-generated hash rebuilds a field tuple per call, so
        # compute it once here instead.
        object.__setattr__(
            self,
            "_hash",
            hash((self.index, self.module, self.function, self.address)),
        )

    def __hash__(self) -> int:
        return self._hash

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

    def iter_nodes(self) -> Iterator[FrameNode]:
        for frame in self.frames:
            yield frame.node


class EventColumns:
    """Events as columns: the generation fast path's sink (DESIGN.md
    §13), which :func:`~repro.etw.capture.write_capture_columns` encodes,
    and the columnar codec's output, which a capture scan featurizes
    (:meth:`~repro.preprocessing.features.EventFeaturizer.transform_columns`)
    — neither builds an :class:`EventRecord`.  Invariants (producers
    guarantee them, the encoder and the featurizer rely on them):

    * the integer and id columns are int64 arrays exactly ``n_events``
      long, and every ``*_id`` column indexes its table;
    * table strings contain no raw-log delimiter, and ``walks`` holds
      walk tuples of :class:`StackFrame` objects;
    * a generator's tables list distinct values in first-appearance
      order over the events; a decoded chunk's tables are the stream's
      cumulative ones, so they may hold entries no event of the chunk
      uses.
    """

    #: the per-event int64 columns, in capture storage order
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
            # Table strings are delimiter-free and integer fields are
            # exact int64 values (the invariants above), so __init__ can
            # be bypassed exactly as in the block-level text parser.
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


class EventLog(list):
    """A list of already-parsed :class:`EventRecord` objects.

    Front ends that produce events without a text parse (the columnar
    capture reader, pre-parsed in-memory fleets) hand the pipeline an
    ``EventLog`` where raw lines are otherwise expected; parse entry
    points recognize the type and skip re-parsing.  ``report`` carries
    the :class:`~repro.etw.recovery.ParseReport` of whatever parse
    originally produced these events (``None`` when unknown), so
    recovery accounting survives the detour through a binary format.
    ``source`` records where the events came from (the capture
    directory path for the columnar reader, ``None`` for hand-built
    logs) — fleet scans use it to ship a *path* to pool workers instead
    of pickling the whole event list.
    """

    __slots__ = ("report", "source")

    def __init__(
        self,
        events: Iterable[EventRecord] = (),
        report: Optional["ParseReport"] = None,
        source: Optional[str] = None,
    ):
        super().__init__(events)
        self.report = report
        self.source = source

    def __reduce__(self):
        # list subclass with __slots__: default pickling would drop
        # ``report``/``source``; fleet scans ship EventLogs to workers.
        return (type(self), (list(self), self.report, self.source))
