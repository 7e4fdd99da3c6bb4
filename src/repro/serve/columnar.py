"""Self-delimiting columnar chunks — the serve wire's binary fast path.

A ``FRAME_DATA_COLUMNAR`` frame carries one or more *chunks*: the
streaming analogue of a ``.leapscap`` capture (DESIGN.md §12).  Where a
capture stores whole-log vocabularies and tables, a chunk stores
**deltas against everything the stream has already sent** — string
vocabularies, the frame table, and the walk table grow monotonically
over a stream's life, and every per-event cell is an index into those
cumulative tables.  A fleet client therefore pays for each distinct
string, frame, and walk exactly once per connection, and the server
decodes events without ever tokenizing text.

Chunk layout (header big-endian like the frame protocol, body arrays
little-endian int64 — the explicit ``<i8`` keeps the wire byte-order
independent of either machine)::

    +------+-----+------+-------------+----------------+
    | "LC" | ver | kind | body_len u32| body           |
    +------+-----+------+-------------+----------------+

``kind`` 1 (events) body, in order:

* ``u32 n_events``
* five vocabulary deltas (process, category, name, module, function):
  ``u32 n_new``, ``u32 blob_len``, then the newline-joined new entries
  with a trailing ``"\\n"`` (absent when ``n_new == 0``) — the same
  lossless join the capture format uses;
* frame-table delta: ``u32 n_new``, then ``int64[n]`` stack index,
  module id, function id, one ``u8`` address-dtype flag (0 = int64,
  1 = uint64), and the ``n`` addresses;
* walk-table delta: ``u32 n_new_walks``, ``u32 n_flat``, then
  ``int64[n_flat]`` flattened frame ids and ``int64[n_new_walks]``
  per-walk lengths;
* nine ``int64[n_events]`` event columns: eid, timestamp, pid, tid,
  opcode, process_id, category_id, name_id, walk_id.

``kind`` 2 (report) body is the UTF-8 JSON of a
:class:`~repro.etw.recovery.ParseReport` — the client's local parse
accounting rides the wire so a columnar stream's terminal ``RESULT``
is bit-identical to the text path's.

An events chunk is a :class:`~repro.etw.capture.Delta` in byte form:
:class:`ChunkEncoder` and :class:`CaptureChunkDecoder` each hold one
:class:`~repro.etw.capture.DeltaEncoder` or
:class:`~repro.etw.capture.DeltaDecoder` per stream — the very codec
that writes and reads ``.leapscap`` captures — and add only the chunk
byte framing.  Both sides grow the same cumulative tables in the same
order, so ids never need renegotiating, and a fresh encoder's first
chunk carries exactly the arrays of the equivalent capture.  The
decoder buffers arbitrary byte fragments (chunks may split anywhere,
across frames or socket reads), and every failure — framing, the
delta's own checks, a malformed report — raises :class:`ChunkError`.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.etw.capture import (
    _EVENT_COLUMNS,
    _VOCAB_NAMES,
    DeltaDecoder,
    DeltaEncoder,
    _join_vocab,
    _split_vocab,
)
from repro.etw.events import EventColumns, EventRecord
from repro.etw.recovery import ParseReport

CHUNK_MAGIC = b"LC"
CHUNK_VERSION = 1

#: chunk kinds
CHUNK_EVENTS = 1
CHUNK_REPORT = 2

_CHUNK_HEADER = struct.Struct(">2sBBI")
CHUNK_HEADER_SIZE = _CHUNK_HEADER.size

#: refuse absurd chunk bodies before buffering for them (matches the
#: frame-level cap in :mod:`repro.serve.protocol`)
MAX_CHUNK_BODY = 64 * 1024 * 1024

_U32 = struct.Struct("<I")
_U8 = struct.Struct("B")
_I64 = np.dtype("<i8")
_U64 = np.dtype("<u8")
#: ``walk_offsets`` of a chunk that adds no walks (read-only, shared)
_FIRST_OFFSET = np.zeros(1, dtype=np.int64)
_FIRST_OFFSET.setflags(write=False)


class ChunkError(RuntimeError):
    """A chunk failed validation — the stream cannot be trusted."""


# -- encoding ----------------------------------------------------------


def _little_endian(array: np.ndarray) -> np.ndarray:
    return array.astype(_U64 if array.dtype.kind == "u" else _I64, copy=False)


class ChunkEncoder:
    """Client-side chunk writer; one instance per stream (ids are
    cumulative across every chunk it has encoded)."""

    def __init__(self):
        self._encoder = DeltaEncoder(ChunkError)

    def encode_events(self, events: Sequence[EventRecord]) -> bytes:
        """One events chunk covering ``events``, including whatever
        vocab/frame/walk entries they introduce."""
        arrays, vocabs = self._encoder.encode(events)
        parts = [_U32.pack(len(arrays["eid"]))]
        for name in _VOCAB_NAMES:
            blob = _join_vocab(name, vocabs[name], ChunkError).encode("utf-8")
            parts += [_U32.pack(len(vocabs[name])), _U32.pack(len(blob)), blob]
        address = arrays["frame_address"]
        offsets = arrays["walk_offsets"]
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
        parts += [arrays[name] for name in _EVENT_COLUMNS]
        body = b"".join(
            part if isinstance(part, bytes) else _little_endian(part)
            for part in parts
        )
        return (
            _CHUNK_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, CHUNK_EVENTS, len(body))
            + body
        )

    def encode_report(self, report: ParseReport) -> bytes:
        """One report chunk carrying the client's parse accounting."""
        body = json.dumps(
            report.to_dict(), separators=(",", ":")
        ).encode("utf-8")
        return (
            _CHUNK_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, CHUNK_REPORT, len(body))
            + body
        )


# -- decoding ----------------------------------------------------------


class _Cursor:
    """Bounds-checked reader over one chunk body."""

    __slots__ = ("view", "offset", "end")

    def __init__(self, view: memoryview):
        self.view = view
        self.offset = 0
        self.end = len(view)

    def take(self, n: int, what: str) -> memoryview:
        if n < 0 or self.end - self.offset < n:
            raise ChunkError(f"chunk body truncated reading {what}")
        piece = self.view[self.offset : self.offset + n]
        self.offset += n
        return piece

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def array(self, count: int, what: str, dtype: np.dtype = _I64) -> np.ndarray:
        return np.frombuffer(self.take(count * 8, what), dtype=dtype)

    def done(self) -> bool:
        return self.offset == self.end


class CaptureChunkDecoder:
    """Server-side incremental chunk reader; one instance per stream.

    :meth:`feed` accepts byte fragments cut at *any* boundary and
    returns whatever whole chunks they complete, decoded into
    ``(blocks, reports)``: one :class:`~repro.etw.events.EventColumns`
    per events chunk, over the stream's cumulative tables.  State
    (vocabularies, interned frames, walk tuples) accumulates across
    chunks in the stream's :class:`~repro.etw.capture.DeltaDecoder`,
    mirroring the encoder.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._decoder = DeltaDecoder(ChunkError)

    @property
    def buffered_bytes(self) -> int:
        """Bytes received but not yet part of a complete chunk — a
        nonzero value at END means the client cut a chunk short."""
        return len(self._buffer)

    def feed(
        self, data: bytes
    ) -> Tuple[List[EventColumns], List[ParseReport]]:
        """Buffer ``data`` and decode every now-complete chunk."""
        self._buffer.extend(data)
        blocks: List[EventColumns] = []
        reports: List[ParseReport] = []
        while len(self._buffer) >= CHUNK_HEADER_SIZE:
            magic, version, kind, body_len = _CHUNK_HEADER.unpack_from(
                self._buffer
            )
            if magic != CHUNK_MAGIC:
                raise ChunkError(f"bad chunk magic {bytes(magic)!r}")
            if version != CHUNK_VERSION:
                raise ChunkError(
                    f"chunk version {version} is not supported "
                    f"(expected {CHUNK_VERSION})"
                )
            if body_len > MAX_CHUNK_BODY:
                raise ChunkError(f"chunk body of {body_len} bytes exceeds cap")
            if len(self._buffer) < CHUNK_HEADER_SIZE + body_len:
                break
            body = bytes(
                memoryview(self._buffer)[
                    CHUNK_HEADER_SIZE : CHUNK_HEADER_SIZE + body_len
                ]
            )
            del self._buffer[: CHUNK_HEADER_SIZE + body_len]
            if kind == CHUNK_EVENTS:
                blocks.append(self._decode_events(memoryview(body)))
            elif kind == CHUNK_REPORT:
                reports.append(self._decode_report(body))
            else:
                raise ChunkError(f"unknown chunk kind {kind}")
        return blocks, reports

    # -- internals -----------------------------------------------------
    def _decode_report(self, body: bytes) -> ParseReport:
        try:
            return ParseReport.from_dict(json.loads(body.decode("utf-8")))
        # bad UTF-8, bad JSON, nesting too deep, or no parse report
        except (ValueError, RecursionError) as error:
            raise ChunkError(f"bad report chunk: {error}") from error

    def _decode_events(self, view: memoryview) -> EventColumns:
        cursor = _Cursor(view)
        n_events = cursor.u32("event count")
        vocabs = {}
        for name in _VOCAB_NAMES:
            n_new = cursor.u32(f"vocab_{name} count")
            blob = cursor.take(cursor.u32(f"vocab_{name} blob length"),
                               f"vocab_{name} blob")
            try:
                text = bytes(blob).decode("utf-8")
            except UnicodeDecodeError as error:
                raise ChunkError(f"vocab_{name} blob is not UTF-8") from error
            entries = vocabs[name] = _split_vocab(text, name, ChunkError)
            if len(entries) != n_new:
                raise ChunkError(
                    f"vocab_{name} declares {n_new} entries, blob has "
                    f"{len(entries)}"
                )

        n_new_frames = cursor.u32("frame count")
        arrays = {
            name: cursor.array(n_new_frames, name)
            for name in ("frame_index", "frame_module_id", "frame_function_id")
        }
        addr_flag = cursor.u8("frame address dtype")
        if addr_flag not in (0, 1):
            raise ChunkError(f"bad frame address dtype flag {addr_flag}")
        arrays["frame_address"] = cursor.array(
            n_new_frames, "frame_address", _U64 if addr_flag else _I64
        )
        n_new_walks = cursor.u32("walk count")
        n_flat = cursor.u32("walk flat length")
        arrays["walk_frame_ids"] = cursor.array(n_flat, "walk frame ids")
        lengths = cursor.array(n_new_walks, "walk lengths")
        arrays["walk_offsets"] = (
            np.concatenate((_FIRST_OFFSET, lengths.cumsum()))
            if n_new_walks else _FIRST_OFFSET
        )
        for name in _EVENT_COLUMNS:
            arrays[name] = cursor.array(n_events, name)
        if not cursor.done():
            raise ChunkError(
                f"{cursor.end - cursor.offset} trailing bytes in events chunk"
            )
        return self._decoder.decode(arrays, vocabs)


def encode_event_stream(
    events: Sequence[EventRecord],
    report: Optional[ParseReport] = None,
    chunk_events: int = 8192,
) -> List[bytes]:
    """Whole event list → chunk list with a fresh encoder (convenience
    for benchmarks and tests; live clients hold a
    :class:`ChunkEncoder` on the connection instead)."""
    encoder = ChunkEncoder()
    chunks = [
        encoder.encode_events(events[start : start + chunk_events])
        for start in range(0, len(events), max(1, int(chunk_events)))
    ]
    if report is not None:
        chunks.append(encoder.encode_report(report))
    return chunks
