"""Self-delimiting columnar chunks — the serve wire's binary fast path.

A ``FRAME_DATA_COLUMNAR`` frame carries one or more *chunks* (DESIGN.md
§12) in the byte form that :mod:`repro.etw.capture` defines.  A
``.leapscap`` capture's ``events.lc`` is a fresh encoder's first events
chunk; a stream's later chunks are **deltas against everything it has
already sent**: vocabularies, the frame table and the walk table only
grow, and every per-event cell indexes them, so a client pays for each
distinct string, frame and walk once per connection, and the server
never tokenizes text.  This module adds only the per-stream parts:
:class:`ChunkEncoder` and :class:`CaptureChunkDecoder` each hold one
:class:`~repro.etw.capture.DeltaEncoder` or
:class:`~repro.etw.capture.DeltaDecoder` per stream; the decoder
buffers fragments cut anywhere (across frames or socket reads) and caps
a chunk body at 64 MB; and ``kind`` 2 (report) chunks carry the UTF-8
JSON of a :class:`~repro.etw.recovery.ParseReport`, so a columnar
stream's terminal ``RESULT`` is bit-identical to the text path's.
Every failure — framing, the delta's own checks, a malformed report —
raises :class:`ChunkError`.
"""

from __future__ import annotations

import json
from typing import List, Optional, Sequence, Tuple

from repro.etw.capture import (
    CHUNK_EVENTS,
    CHUNK_HEADER_SIZE,
    CHUNK_MAGIC,
    CHUNK_REPORT,
    CHUNK_VERSION,
    DeltaDecoder,
    DeltaEncoder,
    chunk_bytes,
    chunk_header,
    events_chunk,
    events_delta,
)
from repro.etw.events import EventColumns, EventRecord
from repro.etw.recovery import ParseReport

__all__ = [  # the chunk constants are the codec's, re-exported
    "CHUNK_EVENTS", "CHUNK_HEADER_SIZE", "CHUNK_MAGIC", "CHUNK_REPORT",
    "CHUNK_VERSION", "MAX_CHUNK_BODY", "CaptureChunkDecoder", "ChunkEncoder",
    "ChunkError", "encode_event_stream",
]

#: refuse absurd chunk bodies before buffering for them (as frames do)
MAX_CHUNK_BODY = 64 * 1024 * 1024


class ChunkError(RuntimeError):
    """A chunk failed validation — the stream cannot be trusted."""


class ChunkEncoder:
    """Client-side chunk writer; one instance per stream (ids are
    cumulative across every chunk it has encoded)."""

    def __init__(self):
        self._encoder = DeltaEncoder(ChunkError)

    def encode_columns(self, cols: EventColumns) -> bytes:
        """One events chunk covering ``cols``, with every entry of its
        tables the stream has not sent yet, whether its events use it
        or not."""
        return events_chunk(self._encoder.encode_columns(cols), ChunkError)

    def encode_events(self, events: Sequence[EventRecord]) -> bytes:
        """One events chunk covering the records ``events``."""
        return self.encode_columns(EventColumns.from_records(events))

    def encode_report(self, report: ParseReport) -> bytes:
        """One report chunk carrying the client's parse accounting."""
        body = json.dumps(
            report.to_dict(), separators=(",", ":")
        ).encode("utf-8")
        return chunk_bytes(CHUNK_REPORT, [body], ChunkError)


class CaptureChunkDecoder:
    """Server-side incremental chunk reader; one instance per stream.
    :meth:`feed` accepts byte fragments cut at *any* boundary and
    returns the chunks they complete as ``(blocks, reports)``: one
    :class:`~repro.etw.events.EventColumns` per events chunk, over the
    cumulative tables of the stream's
    :class:`~repro.etw.capture.DeltaDecoder`."""

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
            kind, body_len = chunk_header(self._buffer, ChunkError)
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
                delta = events_delta(memoryview(body), ChunkError)
                blocks.append(self._decoder.decode(*delta))
            elif kind == CHUNK_REPORT:
                reports.append(self._decode_report(body))
            else:
                raise ChunkError(f"unknown chunk kind {kind}")
        return blocks, reports

    @staticmethod
    def _decode_report(body: bytes) -> ParseReport:
        try:
            return ParseReport.from_dict(json.loads(body.decode("utf-8")))
        # bad UTF-8, bad JSON, nesting too deep, or no parse report
        except (ValueError, RecursionError) as error:
            raise ChunkError(f"bad report chunk: {error}") from error


def encode_event_stream(
    events: Sequence[EventRecord],
    report: Optional[ParseReport] = None,
    chunk_events: int = 8192,
) -> List[bytes]:
    """Whole event list → chunk list with a fresh encoder (for benches
    and tests; live clients keep a :class:`ChunkEncoder` per stream)."""
    encoder = ChunkEncoder()
    chunks = [
        encoder.encode_events(events[start : start + chunk_events])
        for start in range(0, len(events), max(1, int(chunk_events)))
    ]
    if report is not None:
        chunks.append(encoder.encode_report(report))
    return chunks
