"""Per-stream serve state: the core scanner plus the columnar wire.

Each stream owns one :class:`StreamScanner`, the scanner of
:mod:`repro.core.streaming` that ``scan_stream`` drains, so served
detections are ``scan_stream``'s by construction.  This subclass adds
``FRAME_DATA_COLUMNAR`` ingest, the rule that a stream carries text or
columnar data but never both, and the incomplete-chunk check at END.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core import streaming
from repro.serve.columnar import CaptureChunkDecoder, ChunkError


class StreamScanner(streaming.StreamScanner):
    """The core scanner with the columnar wire mode."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._decoder: Optional[CaptureChunkDecoder] = None
        self._mode: Optional[str] = None  # "text" | "columnar" once fed

    def feed_bytes(self, data: bytes) -> None:
        if self._mode == "columnar":
            raise ChunkError("stream already carries columnar data")
        self._mode = "text"
        super().feed_bytes(data)

    def feed_chunk_bytes(self, data: bytes) -> None:
        """Ingest columnar chunk bytes (``FRAME_DATA_COLUMNAR``
        payloads) in arbitrary fragments; client-shipped report chunks
        merge into this stream's report so the terminal result matches
        a server-side parse of the same text."""
        if self._mode == "text":
            raise ChunkError("stream already carries text data")
        self._mode = "columnar"
        self.bytes_seen += len(data)
        if self._decoder is None:
            self._decoder = CaptureChunkDecoder()
        start = time.perf_counter()
        blocks, reports = self._decoder.feed(data)
        self.decode_s += time.perf_counter() - start
        for report in reports:
            self.report.merge(report)
        for block in blocks:
            self.feed_events(block)

    def finish(self, disconnected: bool = False) -> None:
        """A columnar chunk cut short is fatal on a clean ``END`` and
        discarded on a disconnect (the forced truncated tail records
        the loss)."""
        if (
            not self.finished
            and not disconnected
            and self._decoder is not None
            and self._decoder.buffered_bytes
        ):
            self.finished = True
            raise ChunkError(
                f"{self._decoder.buffered_bytes} bytes of an "
                "incomplete columnar chunk at END"
            )
        super().finish(disconnected)
