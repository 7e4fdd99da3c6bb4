"""Versioned binary columnar capture format and the one columnar codec.

A *capture* is the columnar form of a parsed raw log, written once so
later scans skip text parsing: a ``<name>.leapscap`` directory holding

``capture.json``
    Schema version (``leaps-capture/v2``), entity counts, provenance of
    the conversion (source path, parse policy), and the full
    :class:`~repro.etw.recovery.ParseReport` of the parse that produced
    the events — recovery accounting survives the binary detour.
``events.lc``
    The events in columnar form, exact: one ``LC`` events chunk, the
    byte form of the serve wire's columnar chunks (below), loaded with
    one read and decoded through ``np.frombuffer`` views.

Chunk layout (header big-endian like the frame protocol, body arrays
little-endian int64 — the explicit ``<i8`` keeps the bytes independent
of either machine)::

    +------+-----+------+-------------+----------------+
    | "LC" | ver | kind | body_len u32| body           |
    +------+-----+------+-------------+----------------+

``kind`` 1 (events) body, in order:

* ``u32 n_events``
* five vocabulary deltas (process, category, name, module, function):
  ``u32 n_new``, ``u32 blob_len``, then the newline-joined new entries
  with a trailing ``"\\n"`` (absent when ``n_new == 0``);
* frame-table delta: ``u32 n_new``, then ``int64[n]`` stack index,
  module id, function id, one ``u8`` address-dtype flag (0 = int64,
  1 = uint64), and the ``n`` addresses;
* walk-table delta: ``u32 n_new_walks``, ``u32 n_flat``, then
  ``int64[n_flat]`` flattened frame ids and ``int64[n_new_walks]``
  per-walk lengths;
* nine ``int64[n_events]`` event columns: eid, timestamp, pid, tid,
  opcode, process_id, category_id, name_id, walk_id.

``kind`` 2 (report) exists on the wire only (:mod:`repro.serve.columnar`).
Every count and length is a u32, so one events chunk holds at most
about 59M events (72 body bytes each); a longer capture raises
:class:`CaptureError` when written.  Field values never contain a
newline (:func:`repro.etw.events._check_field`), so the newline join is
lossless.  Walks are deduplicated, so an event costs nine int64 cells
whatever its stack depth, and frames come out of the parser's
process-wide intern table, exactly as after a text parse.

**One codec, one byte form.**  :class:`DeltaEncoder` keeps cumulative
string, frame and walk tables and turns a run of events into a
:class:`Delta`: the nine event columns plus the vocabulary entries,
frame rows (``frame_address`` int64, or uint64 when an address needs
it) and walks (CSR ``walk_frame_ids``/``walk_offsets``) the run adds to
those tables.  :func:`events_chunk` frames a delta as bytes and
:func:`events_delta` reads it back; :class:`DeltaDecoder` keeps the
same tables on the reading side, checks a delta against them — dtype,
shape, lengths, offsets, id ranges, vocabulary delimiters and frame
numbering — and only then grows them, returning the delta's events as
:class:`~repro.etw.events.EventColumns` over those tables.  Records are
built only on request (:attr:`Capture.events`).  A capture *is* the
first chunk of a fresh encoder; the serve wire's columnar chunks
(:mod:`repro.serve.columnar`) are a stream's later ones.  Each
container passes its own error type, so a capture that fails
validation raises :class:`CaptureError` (:class:`CaptureVersionError`
for an unknown schema): a scanner must never silently misinterpret a
capture written by a newer converter.

Schema ``leaps-capture/v1`` stored the same delta as ``arrays.npz``
members, each vocabulary one newline-joined string scalar;
:func:`load_capture` still reads it, and nothing writes it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.etw.events import (
    INT_FIELDS,
    STRING_FIELDS,
    EventColumns,
    EventRecord,
    StackFrame,
    intern_codes,
)
from repro.etw.fastparse import parse_columns
from repro.etw.parser import intern_frame
from repro.etw.recovery import ParseReport

#: Capture schema identifier; bump the suffix on incompatible changes.
SCHEMA = "leaps-capture/v2"
#: The previous schema: read, never written.
SCHEMA_V1 = "leaps-capture/v1"

#: Directory suffix marking a path as a columnar capture.
CAPTURE_SUFFIX = ".leapscap"

JSON_NAME = "capture.json"
EVENTS_NAME = "events.lc"
#: a v1 capture's arrays
NPZ_NAME = "arrays.npz"

CHUNK_MAGIC = b"LC"
CHUNK_VERSION = 1
#: chunk kinds
CHUNK_EVENTS = 1
CHUNK_REPORT = 2

_CHUNK_HEADER = struct.Struct(">2sBBI")
CHUNK_HEADER_SIZE = _CHUNK_HEADER.size
#: the longest body a chunk header can state
_U32_MAX = 2**32 - 1
_U32 = struct.Struct("<I")
_U8 = struct.Struct("B")
_I64 = np.dtype("<i8")
_U64 = np.dtype("<u8")
#: ``walk_offsets`` of a chunk that adds no walks (read-only, shared)
_FIRST_OFFSET = np.zeros(1, dtype=np.int64)
_FIRST_OFFSET.setflags(write=False)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1

#: vocabulary order of both containers; must never change within a version
_VOCAB_NAMES = ("process", "category", "name", "module", "function")
#: the nine per-event columns, in storage order
_EVENT_COLUMNS = EventColumns.COLUMNS
_FRAME_COLUMNS = (
    "frame_index", "frame_module_id", "frame_function_id", "frame_address",
)
#: every numeric array of a delta, under its capture name
_ARRAYS = _EVENT_COLUMNS + _FRAME_COLUMNS + ("walk_frame_ids", "walk_offsets")


class CaptureError(RuntimeError):
    """The capture is missing, malformed, or cannot be written."""


class CaptureVersionError(CaptureError):
    """The capture's schema version is not one this code understands."""


def is_capture_path(path: Union[str, os.PathLike]) -> bool:
    """Whether a path addresses a columnar capture (by its suffix)."""
    return Path(os.fspath(path)).suffix == CAPTURE_SUFFIX


@dataclass
class Capture:
    """A loaded capture: the decoded columns, the conversion-time parse
    report (``None`` when the writer had none), the raw metadata
    document and the capture path.  A capture scan featurizes
    ``columns``; ``events`` builds records for callers that ask."""

    columns: EventColumns
    report: Optional[ParseReport]
    meta: dict
    source: str

    @property
    def events(self) -> List[EventRecord]:
        """The records, built from ``columns`` on every read."""
        return self.columns.records()


# -- the codec ----------------------------------------------------------


class Delta(NamedTuple):
    """What one run of events adds to the cumulative tables: ``arrays``
    holds the nine event columns, the new frame rows and the new walks
    as CSR (``walk_offsets`` starts at 0) under their capture array
    names; ``vocabs`` holds each vocabulary's new entries."""

    arrays: Dict[str, np.ndarray]
    vocabs: Dict[str, List[str]]


def _int64(name: str, values, error: type) -> np.ndarray:
    # np.asarray performs the int64 range check itself (OverflowError)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise error(f"{name} value out of int64 range") from None


def _address_column(values: Sequence[int], error: type = CaptureError) -> np.ndarray:
    if not values:
        return np.zeros(0, dtype=np.int64)
    low, high = min(values), max(values)
    if _INT64_MIN <= low and high <= _INT64_MAX:
        return np.array(values, dtype=np.int64)
    if 0 <= low and high <= _UINT64_MAX:
        return np.array(values, dtype=np.uint64)
    raise error("frame address out of 64-bit range")


def _join_vocab(name: str, strings: Sequence[str], error: type = CaptureError) -> str:
    for value in strings:
        # Construction-time validation normally guarantees this, but
        # events built by trusted fast paths bypass __init__ — recheck
        # before the newline join becomes the storage format.
        if "\n" in value or "\r" in value or "|" in value:
            raise error(
                f"vocab_{name} entry {value!r} contains a raw-log delimiter"
            )
    return "\n".join(strings) + "\n" if strings else ""


def _split_vocab(text: str, name: str, error: type) -> List[str]:
    if text == "":
        return []
    if not text.endswith("\n"):
        raise error(f"vocab_{name} is missing its trailing sentinel")
    entries = text.split("\n")
    entries.pop()
    return entries


class DeltaEncoder:
    """Writing side of the codec: cumulative string, frame and walk
    tables, grown in first-appearance order.  One instance per capture
    or per wire stream; each delta carries only what the tables did not
    already hold.  Encoding failures raise ``error``."""

    def __init__(self, error: type = CaptureError):
        self._error = error
        self._vocabs = {name: ({}, []) for name in _VOCAB_NAMES}
        self._frames: dict = {}
        self._walks: dict = {}
        # the last walk table met and its walks' ids: tables only grow,
        # so a row range of the same columns translates just new walks
        self._seen: Tuple[Optional[list], List[int]] = (None, [])

    def encode(self, events: Sequence[EventRecord]) -> Delta:
        """The delta of ``events``, in event order."""
        return self.encode_columns(EventColumns.from_records(events))

    def encode_columns(self, cols: EventColumns) -> Delta:
        """The delta of ``cols``: its vocabularies and walks are
        interned into the cumulative tables, and its id columns are
        translated through them, without a record in sight."""
        error = self._error
        new: Dict[str, List[str]] = {name: [] for name in _VOCAB_NAMES}

        def intern(name: str, values: list) -> np.ndarray:
            index, table = self._vocabs[name]
            known = len(table)
            codes = intern_codes(index, table, values)
            new[name] = table[known:]
            return codes

        arrays = {
            name: _int64(name, getattr(cols, name), error) for name in INT_FIELDS
        }
        for name in STRING_FIELDS:
            ids = intern(name, getattr(cols, f"{name}_vocab"))
            arrays[f"{name}_id"] = ids[getattr(cols, f"{name}_id")]

        # One pass per table walk; equal but distinct walk tuples meet
        # in the equality-keyed walk table.
        frame_table, walk_table = self._frames, self._walks
        new_frames: List[StackFrame] = []
        flat: List[int] = []
        offsets = [0]
        seen, walk_ids = self._seen
        if seen is not cols.walks:
            walk_ids = []
        self._seen = (cols.walks, walk_ids)
        for walk in cols.walks[len(walk_ids):]:
            index = walk_table.get(walk)
            if index is None:
                index = walk_table[walk] = len(walk_table)
                for frame in walk:
                    frame_id = frame_table.get(frame)
                    if frame_id is None:
                        frame_id = frame_table[frame] = len(frame_table)
                        new_frames.append(frame)
                    flat.append(frame_id)
                offsets.append(len(flat))
            walk_ids.append(index)
        arrays["walk_id"] = np.array(walk_ids, dtype=np.int64)[cols.walk_id]
        arrays["frame_index"] = _int64(
            "frame_index", [frame.index for frame in new_frames], error
        )
        arrays["frame_module_id"] = intern(
            "module", [frame.module for frame in new_frames]
        )
        arrays["frame_function_id"] = intern(
            "function", [frame.function for frame in new_frames]
        )
        arrays["frame_address"] = _address_column(
            [frame.address for frame in new_frames], error
        )
        arrays["walk_frame_ids"] = np.array(flat, dtype=np.int64)
        arrays["walk_offsets"] = np.array(offsets, dtype=np.int64)
        return Delta(arrays, new)


class DeltaDecoder:
    """Reading side of the codec: the same cumulative tables, as lists
    of strings, interned frames and walk tuples.  :meth:`decode` checks
    a delta against them before any table grows, and raises ``error``
    — the container's own error type — on any failure."""

    def __init__(self, error: type = CaptureError):
        self._error = error
        self._vocabs: Dict[str, List[str]] = {name: [] for name in _VOCAB_NAMES}
        self._frames: List[StackFrame] = []
        # the stack index of every frame in ``_frames``
        self._frame_index = np.zeros(0, dtype=np.int64)
        self._walks: List[tuple] = []

    def decode(self, arrays: dict, vocabs: Dict[str, List[str]]) -> EventColumns:
        """The events of one delta as columns over the cumulative
        tables.  ``arrays`` maps the capture array names to the delta's
        arrays; ``vocabs`` maps each vocabulary name to its new
        entries."""
        error = self._error
        for name in _ARRAYS:
            array = arrays.get(name)
            if array is None:
                raise error(f"missing array {name!r}")
            # kind and itemsize, not an exact dtype: byte order may vary
            # and the check must not copy
            kinds = "iu" if name == "frame_address" else "i"
            if array.ndim != 1 or array.dtype.kind not in kinds or (
                array.dtype.itemsize != 8
            ):
                raise error(f"{name} must be a 1-D 64-bit integer array")
        columns = [arrays[name] for name in _EVENT_COLUMNS]
        frame_index, module_ids, function_ids, addresses = (
            arrays[name] for name in _FRAME_COLUMNS
        )
        flat = arrays["walk_frame_ids"]
        offsets = arrays["walk_offsets"]
        n_events = len(columns[0])
        if any(len(column) != n_events for column in columns):
            raise error("event columns disagree on length")
        n_new_frames = len(frame_index)
        if not (
            len(module_ids) == len(function_ids) == len(addresses)
            == n_new_frames
        ):
            raise error("frame table columns disagree on length")
        if not len(offsets):
            raise error("walk_offsets must have at least one entry")
        if offsets[0] != 0 or offsets[-1] != len(flat):
            raise error("walk_offsets must span walk_frame_ids exactly")
        # compare, not subtract: a difference could wrap around
        if len(offsets) > 1 and (offsets[:-1] > offsets[1:]).any():
            raise error("walk_offsets must be monotonically non-decreasing")

        tables = self._vocabs
        frames, walks = self._frames, self._walks
        sizes = {name: len(tables[name]) + len(vocabs[name]) for name in tables}
        for name, column, bound in (
            ("process_id", columns[5], sizes["process"]),
            ("category_id", columns[6], sizes["category"]),
            ("name_id", columns[7], sizes["name"]),
            ("walk_id", columns[8], len(walks) + len(offsets) - 1),
            ("frame_module_id", module_ids, sizes["module"]),
            ("frame_function_id", function_ids, sizes["function"]),
            ("walk_frame_ids", flat, len(frames) + n_new_frames),
        ):
            if len(column) and (column.min() < 0 or column.max() >= bound):
                raise error(f"{name} out of range [0, {bound})")
        for name, entries in vocabs.items():
            for value in entries:
                if "|" in value or "\r" in value:
                    raise error(
                        f"vocab_{name} entry {value!r} contains a raw-log "
                        "delimiter"
                    )
        # Frame k of every walk carries stack index k, as in a text
        # parse, which rejects any other numbering; frames an earlier
        # delta sent are checked through the cumulative table.
        frame_indices = np.concatenate((self._frame_index, frame_index))
        positions = np.arange(len(flat)) - np.repeat(offsets[:-1], np.diff(offsets))
        if (frame_indices[flat] != positions).any():
            raise error("frame_index disagrees with the frame's walk position")

        for name, entries in vocabs.items():
            tables[name].extend(entries)
        modules, functions = tables["module"], tables["function"]
        frames.extend(
            intern_frame(index, modules[module], functions[function], address)
            for index, module, function, address in zip(
                frame_index.tolist(),
                module_ids.tolist(),
                function_ids.tolist(),
                addresses.tolist(),
            )
        )
        self._frame_index = frame_indices
        walk_frames = list(map(frames.__getitem__, flat.tolist()))
        bounds = offsets.tolist()
        walks.extend(
            tuple(walk_frames[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        )
        cols = EventColumns.__new__(EventColumns)  # every slot is set below
        cols.n_events = n_events
        for name, column in zip(_EVENT_COLUMNS, columns):
            setattr(cols, name, column)
        for name in STRING_FIELDS:
            setattr(cols, f"{name}_vocab", tables[name])
        cols.walks = walks
        return cols


# -- the byte form ----------------------------------------------------


def _little_endian(array: np.ndarray) -> np.ndarray:
    return array.astype(_U64 if array.dtype.kind == "u" else _I64, copy=False)


def chunk_bytes(kind: int, parts: list, error: type) -> bytes:
    """One chunk of ``kind`` whose body is ``parts`` — bytes, or integer
    arrays written little-endian — joined with a single copy."""
    parts = [part if isinstance(part, bytes) else _little_endian(part) for part in parts]
    size = sum(memoryview(part).nbytes for part in parts)
    if size > _U32_MAX:
        raise error(
            f"chunk body of {size} bytes exceeds the u32 length field "
            "(an events chunk holds at most about 59M events)"
        )
    return b"".join([_CHUNK_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, kind, size), *parts])


def events_chunk(delta: Delta, error: type = CaptureError) -> bytes:
    """``delta`` as one events chunk, header included."""
    arrays, vocabs = delta
    address = arrays["frame_address"]
    offsets = arrays["walk_offsets"]
    try:  # a count or vocabulary blob past the u32 range
        parts = [_U32.pack(len(arrays["eid"]))]
        for name in _VOCAB_NAMES:
            blob = _join_vocab(name, vocabs[name], error).encode("utf-8")
            parts += [_U32.pack(len(vocabs[name])), _U32.pack(len(blob)), blob]
        parts += [
            _U32.pack(len(address)),
            arrays["frame_index"],
            arrays["frame_module_id"],
            arrays["frame_function_id"],
            _U8.pack(address.dtype.kind == "u"),
            address,
            _U32.pack(len(offsets) - 1),
            _U32.pack(len(arrays["walk_frame_ids"])),
            arrays["walk_frame_ids"],
            np.diff(offsets),
        ]
    except struct.error:
        raise error("events chunk exceeds a u32 count field") from None
    parts += [arrays[name] for name in _EVENT_COLUMNS]
    return chunk_bytes(CHUNK_EVENTS, parts, error)


def chunk_header(buffer, error: type) -> Tuple[int, int]:
    """The kind and body length of the chunk at the start of ``buffer``,
    once its magic and version check out."""
    magic, version, kind, body_len = _CHUNK_HEADER.unpack_from(buffer)
    if magic != CHUNK_MAGIC:
        raise error(f"bad chunk magic {bytes(magic)!r}")
    if version != CHUNK_VERSION:
        raise error(
            f"chunk version {version} is not supported (expected {CHUNK_VERSION})"
        )
    return kind, body_len


def events_delta(body: memoryview, error: type) -> Delta:
    """The delta of an events chunk ``body``, as read-only views of it;
    a body that breaks the layout raises ``error``."""
    offset = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if len(body) - offset < n:
            raise error(f"chunk body truncated reading {what}")
        offset += n
        return body[offset - n : offset]

    def u32(what: str) -> int:
        return _U32.unpack(take(4, what))[0]

    def array(count: int, what: str, dtype: np.dtype = _I64) -> np.ndarray:
        return np.frombuffer(take(count * 8, what), dtype=dtype)

    n_events = u32("event count")
    vocabs = {}
    for name in _VOCAB_NAMES:
        n_new = u32(f"vocab_{name} count")
        blob = take(u32(f"vocab_{name} blob length"), f"vocab_{name} blob")
        try:
            text = bytes(blob).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"vocab_{name} blob is not UTF-8") from exc
        entries = vocabs[name] = _split_vocab(text, name, error)
        if len(entries) != n_new:
            raise error(
                f"vocab_{name} declares {n_new} entries, blob has {len(entries)}"
            )

    n_new_frames = u32("frame count")
    arrays = {
        name: array(n_new_frames, name)
        for name in ("frame_index", "frame_module_id", "frame_function_id")
    }
    addr_flag = take(1, "frame address dtype")[0]
    if addr_flag not in (0, 1):
        raise error(f"bad frame address dtype flag {addr_flag}")
    arrays["frame_address"] = array(
        n_new_frames, "frame_address", _U64 if addr_flag else _I64
    )
    n_new_walks = u32("walk count")
    n_flat = u32("walk flat length")
    arrays["walk_frame_ids"] = array(n_flat, "walk frame ids")
    lengths = array(n_new_walks, "walk lengths")
    arrays["walk_offsets"] = (
        np.concatenate((_FIRST_OFFSET, lengths.cumsum()))
        if n_new_walks else _FIRST_OFFSET
    )
    for name in _EVENT_COLUMNS:
        arrays[name] = array(n_events, name)
    if offset != len(body):
        raise error(f"{len(body) - offset} trailing bytes in events chunk")
    return Delta(arrays, vocabs)


# -- writing ----------------------------------------------------------


def _finalize_capture(
    path: Path,
    delta: Delta,
    report: Optional[ParseReport],
    source: Optional[dict],
) -> Path:
    """Shared write tail: metadata document and events chunk.  Every
    writer funnels through here (the per-event reference writer in
    ``tests/oracles/capture.py`` too), so metadata and chunk bytes
    cannot drift between entry points."""
    arrays, vocabs = delta
    events = events_chunk(delta)  # fails before anything is written
    meta = {
        "schema": SCHEMA,
        "counts": {
            "events": len(arrays["eid"]),
            "frames": len(arrays["frame_index"]),
            "walks": len(arrays["walk_offsets"]) - 1,
            **{
                f"vocab_{name}": len(strings)
                for name, strings in vocabs.items()
            },
        },
        "source": source,
        "parse_report": None if report is None else report.to_dict(),
    }
    path.mkdir(parents=True, exist_ok=True)
    (path / JSON_NAME).write_text(json.dumps(meta, indent=2) + "\n")
    (path / EVENTS_NAME).write_bytes(events)
    # a v1 capture overwritten in place
    (path / NPZ_NAME).unlink(missing_ok=True)
    return path


def captures_byte_identical(
    a: Union[str, os.PathLike], b: Union[str, os.PathLike]
) -> bool:
    """Whether two captures hold identical bytes, file by file."""
    a, b = Path(os.fspath(a)), Path(os.fspath(b))
    return all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in (JSON_NAME, EVENTS_NAME)
    )


def write_capture(
    path: Union[str, os.PathLike],
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize parsed events to a capture directory ``path``: the
    first chunk of a fresh :class:`DeltaEncoder`.

    Creates the directory (and parents) if needed; overwrites an
    existing capture in place.  Returns the capture path.  Output is
    byte-identical to the per-event reference writer
    (``tests/oracles/capture.py``) for every input.
    """
    return _finalize_capture(
        Path(os.fspath(path)), DeltaEncoder().encode(events), report, source
    )


def write_capture_columns(
    path: Union[str, os.PathLike],
    cols: EventColumns,
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize an :class:`~repro.etw.events.EventColumns` directly.

    The sink of :func:`convert_log` and of the generation fast path:
    column blocks go straight to the events chunk without ever
    materializing an ``EventRecord`` (or a line of text).
    Byte-identical to :func:`write_capture` over the equivalent event
    list — ``tests/test_fastgen.py`` holds the generator's captures to
    the per-event reference writer, and ``tests/test_capture.py``
    holds :func:`convert_log` to :func:`write_capture` over
    :func:`~repro.etw.fastparse.parse_fast`.
    """
    return _finalize_capture(
        Path(os.fspath(path)), DeltaEncoder().encode_columns(cols), report,
        source,
    )


def convert_log(
    src: Union[str, os.PathLike],
    dst: Optional[Union[str, os.PathLike]] = None,
    *,
    policy: str = "drop",
    require_complete_tail: bool = False,
) -> Path:
    """One-time text → columnar conversion of a raw log file.

    Parses ``src`` to columns with
    :func:`~repro.etw.fastparse.parse_columns` under the given recovery
    ``policy`` (default ``"drop"``: corrupt lines are classified and
    skipped, not fatal) and writes them with
    :func:`write_capture_columns` to ``dst`` (default: ``src`` with its
    suffix replaced by ``.leapscap``).  The conversion's
    :class:`~repro.etw.recovery.ParseReport` is recorded in the capture
    metadata, so nothing recovery learned about the text is lost.
    """
    src = Path(os.fspath(src))
    if dst is None:
        dst = src.with_suffix(CAPTURE_SUFFIX)
    report = ParseReport()
    columns = parse_columns(
        src.read_bytes(),
        policy=policy,
        report=report,
        require_complete_tail=require_complete_tail,
    )
    return write_capture_columns(
        dst,
        columns,
        report=report,
        source={
            "path": str(src),
            "policy": policy,
            "require_complete_tail": bool(require_complete_tail),
        },
    )


# -- reading ----------------------------------------------------------


def _read_events(path: Path) -> Delta:
    """A v2 capture's delta: ``events.lc`` must be exactly one events
    chunk."""
    try:
        data = path.read_bytes()
    except OSError as error:
        raise CaptureError(f"unreadable: {error}") from error
    if len(data) < CHUNK_HEADER_SIZE:
        raise CaptureError(f"truncated chunk header ({len(data)} bytes)")
    kind, body_len = chunk_header(data, CaptureError)
    if kind != CHUNK_EVENTS:
        raise CaptureError(f"chunk kind {kind} is not an events chunk")
    if body_len != len(data) - CHUNK_HEADER_SIZE:
        raise CaptureError(f"chunk body length {body_len} disagrees with the "
                           f"file's {len(data) - CHUNK_HEADER_SIZE} body bytes")
    return events_delta(memoryview(data)[CHUNK_HEADER_SIZE:], CaptureError)


def _read_npz(path: Path) -> Delta:
    """A v1 capture's delta, from its ``arrays.npz`` members."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            arrays = {key: data[key] for key in data.files}
    except Exception as error:  # BadZipFile, EOFError, zlib.error, ...
        raise CaptureError(f"unreadable: {error}") from error
    vocabs = {}
    for name in _VOCAB_NAMES:
        raw = arrays.get(f"vocab_{name}")
        if raw is None:
            raise CaptureError(f"capture is missing array 'vocab_{name}'")
        if raw.ndim or raw.dtype.kind != "U":
            raise CaptureError(f"vocab_{name} must be a string scalar")
        vocabs[name] = _split_vocab(str(raw[()]), name, CaptureError)
    return Delta(arrays, vocabs)


def load_capture(path: Union[str, os.PathLike]) -> Capture:
    """Load and validate a capture into columns; its ``events`` are
    bit-identical to the parse that was converted (same interned
    frames, same report).  The columns of a v2 capture are read-only
    views of its file's bytes."""
    path = Path(os.fspath(path))
    json_path = path / JSON_NAME
    if not json_path.is_file():
        raise CaptureError(
            f"{path} is not a capture (needs {JSON_NAME} + {EVENTS_NAME})"
        )
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as error:  # bad JSON, UTF-8 or depth
        raise CaptureError(f"unparseable {json_path}: {error}") from error
    if not isinstance(meta, dict):
        raise CaptureError(f"{json_path} is not a JSON object")
    schema = meta.get("schema")
    if schema == SCHEMA:
        data_path, read = path / EVENTS_NAME, _read_events
    elif schema == SCHEMA_V1:
        data_path, read = path / NPZ_NAME, _read_npz
    else:
        raise CaptureVersionError(
            f"capture schema {schema!r} is not supported (expected {SCHEMA!r})"
        )
    if not data_path.is_file():
        raise CaptureError(
            f"{path} is not a capture (needs {JSON_NAME} + {data_path.name})"
        )
    report_doc = meta.get("parse_report")
    try:
        report = None if report_doc is None else ParseReport.from_dict(report_doc)
    except ValueError as error:
        raise CaptureError(f"bad parse_report in {json_path}: {error}") from error
    try:
        columns = DeltaDecoder().decode(*read(data_path))
    except CaptureError as error:
        raise CaptureError(f"{data_path}: {error}") from error
    return Capture(columns, report, meta, os.fspath(path))


# -- command line ------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.etw.capture`` — convert raw logs and inspect
    captures from the shell:

    ``convert <log> [<out.leapscap>]``
        One-time text → columnar conversion (:func:`convert_log`).
    ``info <capture.leapscap>``
        Schema, entity counts, provenance, and parse-report summary.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.etw.capture",
        description="Columnar capture tools: parse once, scan forever.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    convert = commands.add_parser(
        "convert", help="convert a raw text log to a .leapscap capture"
    )
    convert.add_argument("log", help="raw pipe-delimited log file")
    convert.add_argument(
        "capture", nargs="?", default=None,
        help="output capture directory (default: <log>.leapscap)",
    )
    convert.add_argument(
        "--policy", default="drop", choices=("strict", "warn", "drop"),
        help="parse recovery policy (default: drop)",
    )
    info = commands.add_parser(
        "info", help="print a capture's schema, counts, and provenance"
    )
    info.add_argument("capture", help="capture directory (.leapscap)")
    args = parser.parse_args(argv)

    if args.command == "convert":
        try:
            out = convert_log(args.log, args.capture, policy=args.policy)
        except (OSError, CaptureError) as error:
            print(f"error: {error}")
            return 1
        meta = json.loads((out / JSON_NAME).read_text(encoding="utf-8"))
        counts = meta["counts"]
        print(f"wrote {out}")
        print(
            f"  events={counts['events']}  frames={counts['frames']}  "
            f"walks={counts['walks']}"
        )
        report = meta.get("parse_report") or {}
        if report:
            print(
                f"  lines={report.get('total_lines')}  "
                f"dropped={report.get('events_dropped')}  "
                f"errors={report.get('error_lines')}"
            )
        return 0

    try:
        capture = load_capture(args.capture)
    except CaptureError as error:
        print(f"error: {error}")
        return 1
    meta = capture.meta
    print(f"{args.capture}: schema {meta['schema']}")
    for key, value in meta["counts"].items():
        print(f"  {key}: {value}")
    source = meta.get("source") or {}
    if source:
        print(f"  source: {source.get('path')} (policy={source.get('policy')})")
    if capture.report is not None:
        report = capture.report
        print(
            f"  parse report: {report.total_lines} lines, "
            f"{report.events_yielded} events, "
            f"{report.error_lines} error lines, "
            f"truncated_tail={report.truncated_tail}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
