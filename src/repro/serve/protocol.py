"""Wire protocol of the fleet detection service.

Every message is one *frame*::

    +----------------+--------+---------------------+
    | length (4B BE) | type   | payload (length B)  |
    +----------------+--------+---------------------+

``length`` is the payload size in bytes (big-endian, excluding the
5-byte header), ``type`` is one of the ``FRAME_*`` constants.  Control
payloads are UTF-8 JSON; ``FRAME_DATA`` payloads are raw log bytes in
arbitrary chunks — the server reassembles lines across frame
boundaries, so a client may flush whenever it likes.
``FRAME_DATA_COLUMNAR`` payloads are self-delimiting columnar chunk
bytes (:mod:`repro.serve.columnar`) in equally arbitrary fragments —
the server reassembles chunks across frame boundaries too.  A stream
commits to one data representation with its first data frame; mixing
``DATA`` and ``DATA_COLUMNAR`` on one stream is a protocol error.

One connection carries one stream: ``HELLO`` opens it (naming the
stream, the ``(app, model_version)`` registry key, and the parse
policy), ``DATA``/``DATA_COLUMNAR`` frames feed bytes, ``END`` asks
for the final result.  The server pushes ``DETECTIONS`` frames as
windows are scored and exactly one terminal ``RESULT`` (or ``ERROR``)
frame.  A connection whose first frame is ``STATUS`` is a metrics
probe instead and gets a single ``STATUS_REPLY``.

:class:`ServeClient` is the blocking reference client used by the
tests and the benchmark harness; a background reader thread drains
server frames so detection pushes never deadlock against a client
still writing.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

# -- frame types -------------------------------------------------------
FRAME_HELLO = 0x01
FRAME_DATA = 0x02
FRAME_END = 0x03
FRAME_STATUS = 0x04
FRAME_DATA_COLUMNAR = 0x05

FRAME_DETECTIONS = 0x11
FRAME_RESULT = 0x12
FRAME_STATUS_REPLY = 0x13
FRAME_ERROR = 0x14

_HEADER = struct.Struct(">IB")
HEADER_SIZE = _HEADER.size

#: refuse absurd frames before allocating for them
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: TCP address tuple or unix-socket path
Address = Union[Tuple[str, int], str]


class ProtocolError(RuntimeError):
    """Malformed frame, oversized frame, or an out-of-order message."""


def pack_frame(frame_type: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame payload of {len(payload)} bytes exceeds cap")
    return _HEADER.pack(len(payload), frame_type) + payload


def pack_json(frame_type: int, payload: dict) -> bytes:
    return pack_frame(
        frame_type, json.dumps(payload, separators=(",", ":")).encode("utf-8")
    )


def decode_json(payload: bytes) -> dict:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"bad JSON control payload: {error}") from error
    if not isinstance(doc, dict):
        raise ProtocolError("control payload must be a JSON object")
    return doc


def parse_header(header: bytes) -> Tuple[int, int]:
    """(payload_length, frame_type) of a 5-byte frame header."""
    length, frame_type = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds cap")
    return length, frame_type


def connect(address: Address, timeout: Optional[float] = None) -> socket.socket:
    """A connected stream socket for a TCP tuple or unix-socket path."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        host, port = address
        sock = socket.create_connection((host, port), timeout=timeout)
    return sock


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_blocking(sock: socket.socket) -> Tuple[int, bytes]:
    """(frame_type, payload) — blocking read of one whole frame."""
    length, frame_type = parse_header(_recv_exactly(sock, HEADER_SIZE))
    payload = _recv_exactly(sock, length) if length else b""
    return frame_type, payload


@dataclass
class StreamOutcome:
    """Everything the server said about one finished stream."""

    #: WindowDetection field tuples in window order:
    #: (index, start_eid, end_eid, score, malicious)
    detections: List[tuple] = field(default_factory=list)
    #: terminal RESULT payload (report, totals, truncated_tail, ...)
    result: Optional[dict] = None
    #: terminal ERROR payload, if the stream failed
    error: Optional[dict] = None


class ServeClient:
    """Blocking single-stream client (tests, benchmark, quickstart).

    >>> client = ServeClient(address)
    >>> client.hello("host-17")
    >>> client.send(raw_log_bytes)
    >>> outcome = client.finish()
    >>> outcome.result["report"]["events_yielded"]
    """

    def __init__(self, address: Address, timeout: Optional[float] = 60.0):
        self._sock = connect(address, timeout=timeout)
        self._outcome = StreamOutcome()
        self._done = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._reader_error: Optional[BaseException] = None
        self._encoder = None  # lazy per-stream columnar ChunkEncoder

    # -- stream mode ---------------------------------------------------
    def hello(
        self,
        stream_id: str,
        app: Optional[str] = None,
        model_version: Optional[str] = None,
        policy: Optional[str] = None,
        path: Optional[str] = None,
    ) -> None:
        """Open the stream.  With ``path`` the server scans a
        server-local source itself — a raw text log or a ``.leapscap``
        columnar capture — through the same per-stream machinery; the
        client then just calls :meth:`finish`."""
        doc = {"stream_id": stream_id}
        if app is not None:
            doc["app"] = app
        if model_version is not None:
            doc["model_version"] = model_version
        if policy is not None:
            doc["policy"] = policy
        if path is not None:
            doc["path"] = path
        self._sock.sendall(pack_json(FRAME_HELLO, doc))
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def send(self, data: bytes) -> None:
        self._sock.sendall(pack_frame(FRAME_DATA, data))

    def send_lines(self, lines: Iterable[str]) -> None:
        text = "\n".join(lines)
        if text:
            text += "\n"
        self.send(text.encode("utf-8"))

    # -- columnar fast path --------------------------------------------
    def send_chunk(self, chunk: bytes) -> None:
        """Ship pre-encoded columnar chunk bytes (any fragmentation —
        the server reassembles chunks across frames)."""
        self._sock.sendall(pack_frame(FRAME_DATA_COLUMNAR, chunk))

    def send_events(self, events, chunk_events: int = 8192) -> None:
        """Encode parsed events into columnar chunks and ship them.

        The encoder is per-connection and stateful: repeated calls keep
        growing the same cumulative vocab/frame/walk tables, so each
        distinct string, frame, and walk crosses the wire once."""
        from repro.serve.columnar import ChunkEncoder

        if self._encoder is None:
            self._encoder = ChunkEncoder()
        step = max(1, int(chunk_events))
        for start in range(0, len(events), step):
            self.send_chunk(
                self._encoder.encode_events(events[start : start + step])
            )

    def send_report(self, report) -> None:
        """Ship the client's local :class:`ParseReport` so the terminal
        ``RESULT`` matches a server-side parse of the same text."""
        from repro.serve.columnar import ChunkEncoder

        if self._encoder is None:
            self._encoder = ChunkEncoder()
        self.send_chunk(self._encoder.encode_report(report))

    def send_capture(self, path, chunk_events: int = 8192) -> None:
        """Load a client-local ``.leapscap`` capture and stream it
        columnar — events in chunks, then its conversion report."""
        from repro.etw.capture import load_capture

        capture = load_capture(path)
        self.send_events(capture.events, chunk_events=chunk_events)
        if capture.report is not None:
            self.send_report(capture.report)

    def finish(self, timeout: Optional[float] = 120.0) -> StreamOutcome:
        """Send ``END`` and wait for the terminal frame."""
        self._sock.sendall(pack_frame(FRAME_END))
        if not self._done.wait(timeout):
            raise TimeoutError("no terminal frame from the server")
        if self._reader_error is not None:
            raise self._reader_error
        self.close()
        return self._outcome

    def abort(self) -> None:
        """Drop the connection without ``END`` — a simulated client
        crash; the server finalizes the stream as disconnected."""
        self.close()

    def close(self) -> None:
        # shutdown (not just close) so the FIN goes out now: the drain
        # thread blocked in recv() holds a kernel reference to the fd,
        # and a bare close() would defer the teardown until it wakes
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def _drain(self) -> None:
        try:
            while True:
                frame_type, payload = read_frame_blocking(self._sock)
                if frame_type == FRAME_DETECTIONS:
                    doc = decode_json(payload)
                    self._outcome.detections.extend(
                        tuple(row) for row in doc["detections"]
                    )
                elif frame_type == FRAME_RESULT:
                    self._outcome.result = decode_json(payload)
                    self._done.set()
                    return
                elif frame_type == FRAME_ERROR:
                    self._outcome.error = decode_json(payload)
                    self._done.set()
                    return
                else:
                    raise ProtocolError(f"unexpected frame type {frame_type:#x}")
        except BaseException as error:  # surfaced by finish()
            self._reader_error = error
            self._done.set()


def request_status(address: Address, timeout: Optional[float] = 10.0) -> dict:
    """One-shot metrics probe: connect, send ``STATUS``, return the
    decoded ``STATUS_REPLY`` payload."""
    sock = connect(address, timeout=timeout)
    try:
        sock.sendall(pack_frame(FRAME_STATUS))
        frame_type, payload = read_frame_blocking(sock)
        if frame_type != FRAME_STATUS_REPLY:
            raise ProtocolError(f"expected STATUS_REPLY, got {frame_type:#x}")
        return decode_json(payload)
    finally:
        sock.close()
