"""Asyncio front of the fleet detection service.

Accepts concurrent raw-log streams over TCP or a unix socket (one
stream per connection, framed as in :mod:`repro.serve.protocol`),
forwards their bytes to the sharded scoring workers, and relays
detections, final results, and errors back.

**Backpressure** is explicit and two-sided (DESIGN.md §12):

* *front-side*: every ``DATA`` payload counts toward the stream's
  unacknowledged-byte window; the worker acks a payload only after
  parsing it.  Past ``ack_window_bytes`` the connection's transport
  stops reading — the kernel socket buffers fill and the client's
  ``send`` blocks, so a fast client cannot buffer unbounded bytes in
  the server.
* *worker-side*: a stream whose unscored-window queue crosses the
  high-water mark gets an explicit ``pause`` (reads stop even with a
  small byte window) until scoring drains it below the low-water mark.

Both pause reasons OR into one ``transport.pause_reading()`` — no
event is ever dropped; the stream just slows to the speed of scoring.

A client that disconnects without ``END`` is finalized as a truncated
stream: the worker runs the parser's end-of-input logic, forces
``truncated_tail``, scores what completed, and emits the partial
result into the server's result log (the client is gone), freeing all
per-stream state.

The ``STATUS`` probe returns live metrics: per-stream ``ParseReport``
health and queue depths, aggregate events/s, micro-batch occupancy,
scoring latency quantiles, and the frame-intern bound.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.protocol import (
    FRAME_DATA,
    FRAME_DATA_COLUMNAR,
    FRAME_END,
    FRAME_HELLO,
    FRAME_STATUS,
    FRAME_DETECTIONS,
    FRAME_ERROR,
    FRAME_RESULT,
    FRAME_STATUS_REPLY,
    HEADER_SIZE,
    Address,
    ProtocolError,
    pack_frame,
    decode_json,
    parse_header,
)
from repro.serve.registry import ModelRegistry
from repro.serve.workers import ShardPool

#: default per-stream unacknowledged-byte window before reads pause
ACK_WINDOW_BYTES = 1 << 20


def _pack_json(frame_type: int, doc: dict) -> bytes:
    return pack_frame(
        frame_type, json.dumps(doc, separators=(",", ":")).encode("utf-8")
    )


@dataclass
class _Stream:
    """Front-side state of one connected stream."""

    stream_id: str
    writer: asyncio.StreamWriter
    inflight_bytes: int = 0
    #: data representation the stream committed to with its first data
    #: frame ("text" | "columnar"); mixing is a protocol error
    mode: Optional[str] = None
    worker_paused: bool = False
    reads_paused: bool = False
    ended: bool = False
    detections: int = 0
    flagged: int = 0
    done: asyncio.Event = field(default_factory=asyncio.Event)
    result: Optional[dict] = None
    error: Optional[dict] = None


class DetectionServer:
    """The always-on front; see the module docstring."""

    def __init__(
        self,
        registry: ModelRegistry,
        n_shards: int = 1,
        executor: str = "process",
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        ack_window_bytes: int = ACK_WINDOW_BYTES,
    ):
        self.registry = registry
        self.pool = ShardPool(registry, n_shards=n_shards, executor=executor)
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.ack_window_bytes = ack_window_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._streams: Dict[str, _Stream] = {}
        self._stats_waiters: Dict[int, Tuple[asyncio.Future, List[dict]]] = {}
        self._stats_tokens = itertools.count()
        self._started = time.monotonic()
        #: results of streams whose client was already gone (aborts)
        self.completed: List[dict] = []
        #: observability counters
        self.counters = {
            "connections": 0,
            "streams_opened": 0,
            "streams_completed": 0,
            "streams_failed": 0,
            "streams_disconnected": 0,
            "pauses": 0,
            "resumes": 0,
            "detections": 0,
            "flagged": 0,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Address:
        """Start workers and the listening socket; returns the address
        clients should connect to."""
        self._loop = asyncio.get_running_loop()
        self.pool.start(self._sink_threadsafe)
        # deep accept backlog: a fleet reconnect storm (or the ramp
        # benchmark) opens hundreds of connections in one burst
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path, backlog=1024
            )
            return self.unix_path
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            backlog=1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return (self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # unstick any handler still awaiting frames from a dead client
        for stream in list(self._streams.values()):
            stream.writer.close()
        await asyncio.sleep(0)
        await asyncio.get_running_loop().run_in_executor(None, self.pool.stop)

    # -- worker output (pump thread → loop thread) ---------------------
    def _sink_threadsafe(self, messages: List[tuple]) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._on_worker_messages, messages)

    def _on_worker_messages(self, messages: List[tuple]) -> None:
        for message in messages:
            self._on_worker_message(message)

    def _on_worker_message(self, message: tuple) -> None:
        kind = message[0]
        if kind == "detections":
            _, stream_id, rows = message
            stream = self._streams.get(stream_id)
            self.counters["detections"] += len(rows)
            flagged = sum(1 for row in rows if row[4])
            self.counters["flagged"] += flagged
            if stream is not None:
                stream.detections += len(rows)
                stream.flagged += flagged
                self._write(stream, _pack_json(
                    FRAME_DETECTIONS, {"detections": rows}
                ))
        elif kind == "ack":
            _, stream_id, n_bytes = message
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.inflight_bytes -= n_bytes
                self._update_reads(stream)
        elif kind == "pause":
            _, stream_id = message
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.worker_paused = True
                self._update_reads(stream)
        elif kind == "resume":
            _, stream_id = message
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.worker_paused = False
                self._update_reads(stream)
        elif kind == "result":
            _, stream_id, result = message
            self.counters["streams_completed"] += 1
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.result = result
                self._write(stream, _pack_json(FRAME_RESULT, result))
                stream.done.set()
            else:
                self.completed.append(result)
        elif kind == "error":
            _, stream_id, error = message
            self.counters["streams_failed"] += 1
            stream = self._streams.get(stream_id)
            if stream is not None:
                stream.error = error
                self._write(stream, _pack_json(FRAME_ERROR, error))
                stream.done.set()
            else:
                self.completed.append({"stream_id": stream_id, "error": error})
        elif kind == "stats":
            _, shard_index, token, payload = message
            waiter = self._stats_waiters.get(token)
            if waiter is not None:
                future, collected = waiter
                collected.append(payload)
                if (
                    len(collected) == self.pool.n_shards
                    and not future.done()
                ):
                    future.set_result(collected)

    def _write(self, stream: _Stream, frame: bytes) -> None:
        if not stream.writer.is_closing():
            stream.writer.write(frame)

    def _update_reads(self, stream: _Stream) -> None:
        should_pause = (
            stream.worker_paused
            or stream.inflight_bytes > self.ack_window_bytes
        )
        if should_pause and not stream.reads_paused:
            stream.reads_paused = True
            self.counters["pauses"] += 1
            transport = stream.writer.transport
            if transport is not None:
                transport.pause_reading()
        elif not should_pause and stream.reads_paused:
            stream.reads_paused = False
            self.counters["resumes"] += 1
            transport = stream.writer.transport
            if transport is not None:
                transport.resume_reading()

    # -- connection handling -------------------------------------------
    async def _read_frame(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, bytes]:
        header = await reader.readexactly(HEADER_SIZE)
        length, frame_type = parse_header(header)
        payload = await reader.readexactly(length) if length else b""
        return frame_type, payload

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        stream: Optional[_Stream] = None
        try:
            while True:
                try:
                    frame_type, payload = await self._read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break
                if frame_type == FRAME_STATUS:
                    status = await self.status()
                    writer.write(_pack_json(FRAME_STATUS_REPLY, status))
                    await writer.drain()
                    break
                if frame_type == FRAME_HELLO:
                    if stream is not None:
                        raise ProtocolError("duplicate HELLO")
                    doc = decode_json(payload)
                    stream_id = str(doc["stream_id"])
                    if stream_id in self._streams:
                        writer.write(_pack_json(FRAME_ERROR, {
                            "error": f"stream {stream_id!r} already connected",
                            "kind": "DuplicateStream",
                        }))
                        await writer.drain()
                        break
                    stream = _Stream(stream_id=stream_id, writer=writer)
                    self._streams[stream_id] = stream
                    self.counters["streams_opened"] += 1
                    self.pool.send(stream_id, ("open", stream_id, {
                        "app": doc.get("app"),
                        "model_version": doc.get("model_version"),
                        "policy": doc.get("policy"),
                        "path": doc.get("path"),
                    }))
                elif frame_type in (FRAME_DATA, FRAME_DATA_COLUMNAR):
                    if stream is None:
                        raise ProtocolError("DATA before HELLO")
                    mode = (
                        "text" if frame_type == FRAME_DATA else "columnar"
                    )
                    if stream.mode is None:
                        stream.mode = mode
                    elif stream.mode != mode:
                        raise ProtocolError(
                            f"stream sent {mode} data after committing "
                            f"to {stream.mode}"
                        )
                    stream.inflight_bytes += len(payload)
                    self.pool.send(
                        stream.stream_id,
                        (
                            "data" if mode == "text" else "data_columnar",
                            stream.stream_id,
                            payload,
                        ),
                    )
                    self._update_reads(stream)
                elif frame_type == FRAME_END:
                    if stream is None:
                        raise ProtocolError("END before HELLO")
                    stream.ended = True
                    self.pool.send(
                        stream.stream_id, ("end", stream.stream_id)
                    )
                    await stream.done.wait()
                    await writer.drain()
                    break
                else:
                    raise ProtocolError(
                        f"unexpected frame type {frame_type:#x}"
                    )
        except ProtocolError as error:
            writer.write(_pack_json(FRAME_ERROR, {
                "error": str(error), "kind": "ProtocolError",
            }))
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            if stream is not None:
                if not stream.ended and not stream.done.is_set():
                    # client vanished mid-stream: finalize as truncated
                    self.counters["streams_disconnected"] += 1
                    self.pool.send(
                        stream.stream_id, ("abort", stream.stream_id)
                    )
                self._streams.pop(stream.stream_id, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- metrics -------------------------------------------------------
    async def status(
        self,
        include_latencies: bool = False,
        timeout: float = 5.0,
    ) -> dict:
        """Live metrics: front counters, per-stream state, and each
        shard's stats (gathered over the worker queues)."""
        token = next(self._stats_tokens)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._stats_waiters[token] = (future, [])
        self.pool.broadcast(("stats", token, include_latencies))
        try:
            shards = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            shards = list(self._stats_waiters[token][1])
        finally:
            self._stats_waiters.pop(token, None)
        shards.sort(key=lambda s: s["shard"])
        events_total = sum(s["events_total"] for s in shards)
        elapsed = time.monotonic() - self._started
        return {
            "uptime_s": elapsed,
            "events_total": events_total,
            "events_per_s": events_total / elapsed if elapsed > 0 else 0.0,
            "counters": dict(self.counters),
            "streams": {
                stream_id: {
                    "inflight_bytes": stream.inflight_bytes,
                    "reads_paused": stream.reads_paused,
                    "worker_paused": stream.worker_paused,
                    "detections": stream.detections,
                    "flagged": stream.flagged,
                }
                for stream_id, stream in self._streams.items()
            },
            "shards": shards,
        }


# -- blocking harness (tests, benchmark, quickstart) -------------------
class ServerHandle:
    """A server running on a background event-loop thread."""

    def __init__(self, server: DetectionServer, address: Address, loop, thread):
        self.server = server
        self.address = address
        self._loop = loop
        self._thread = thread

    def status(self, include_latencies: bool = False, timeout: float = 10.0) -> dict:
        future = asyncio.run_coroutine_threadsafe(
            self.server.status(include_latencies=include_latencies), self._loop
        )
        return future.result(timeout)

    def stop(self, timeout: float = 15.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)


def start_in_thread(
    registry: ModelRegistry,
    n_shards: int = 1,
    executor: str = "process",
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
    ack_window_bytes: int = ACK_WINDOW_BYTES,
) -> ServerHandle:
    """Start a :class:`DetectionServer` on a dedicated event-loop
    thread and block until it is accepting connections."""
    server = DetectionServer(
        registry,
        n_shards=n_shards,
        executor=executor,
        host=host,
        port=port,
        unix_path=unix_path,
        ack_window_bytes=ack_window_bytes,
    )
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop

        async def boot() -> None:
            box["address"] = await server.start()
            started.set()

        loop.run_until_complete(boot())
        loop.run_forever()
        # drain pending callbacks after stop() so writers close cleanly
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    thread = threading.Thread(target=runner, daemon=True, name="leaps-serve")
    thread.start()
    if not started.wait(30.0):
        raise RuntimeError("detection server failed to start")
    return ServerHandle(server, box["address"], box["loop"], thread)
