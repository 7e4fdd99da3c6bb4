"""Sharded scoring workers: per-stream state pinned, scoring batched.

Streams are **consistently hashed to shards** (:func:`shard_for`, a
CRC32 — the builtin ``hash`` is salted per process and would scatter a
stream across restarts), so a stream's scanner state — parser machine,
coalescer deque, open scoring tile — lives in exactly one worker for
its whole life and never migrates.  Detections are therefore
independent of the shard count: each stream's windows are scored in the
same fixed-shape tiles as ``scan_stream``'s, and only *which* streams
share a kernel call changes.

Each worker runs :func:`shard_worker_loop` over an input queue:

* control messages: ``open`` / ``data`` / ``end`` / ``abort`` /
  ``stats`` / ``stop``;
* after handling a message it drains the queue without blocking, so
  under load many streams' payloads land between scoring calls and
  their ready chunks coalesce into one micro-batch
  (:func:`repro.core.streaming.score_chunks`);
* scoring is **batched by the drain**: once the queue is empty (or
  :data:`TARGET_BATCH_WINDOWS` are ready, which bounds one drain) every
  whole tile the drain's payloads completed is scored in one kernel
  call and each stream gets one ``detections`` message — big batches
  when the shard is saturated, no added wait when it is not, and
  bit-identical scores either way;
* a stream that fails (strict ``ParseError``, ``ChunkError``,
  ``StackPartitionError``, an unreadable path) gets an error frame, and
  the shard goes on serving its other streams;
* backpressure: every ``data`` payload is acknowledged after parsing
  (the server bounds per-stream unacked bytes), and a stream whose
  ready (scoreable) windows cross :data:`WINDOW_HIGH_WATER` gets an
  explicit ``pause`` until the flush that scores them.

Bundles load once per worker through a :class:`ModelRegistry` built
from the server's picklable spec, with
:func:`repro.etw.parser.evict_frame_intern` as the reload hook — the
frame intern table's safe eviction point.

:class:`ShardPool` owns the worker fleet (``executor="process"`` for
real serving, ``"thread"`` for in-process tests) plus the single output
queue and its pump thread.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import zlib
from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from pathlib import Path

from repro.core.persistence import BundleError
from repro.core.streaming import ScoreChunk, detection_rows, score_chunks
from repro.etw.capture import CaptureError, is_capture_path, load_capture
from repro.etw.parser import ParseError, evict_frame_intern, frame_intern_stats
from repro.etw.stack_partition import StackPartitionError
from repro.serve.columnar import ChunkError
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.serve.streams import StreamScanner

#: ready windows per stream that trigger an explicit pause
WINDOW_HIGH_WATER = 2048
#: per-shard bound on retained window→detection latency samples
LATENCY_SAMPLES = 200_000
#: ready windows at which a shard stops draining its queue and scores
TARGET_BATCH_WINDOWS = 1024
#: what ends one stream without ending the shard
_STREAM_ERRORS = (ParseError, ChunkError, StackPartitionError)


def shard_for(stream_id: str, n_shards: int) -> int:
    """Stable shard assignment — same stream, same shard, always."""
    return zlib.crc32(stream_id.encode("utf-8")) % n_shards


class _ShardState:
    def __init__(self, shard_index: int, registry: ModelRegistry):
        self.shard_index = shard_index
        self.registry = registry
        self.scanners: Dict[str, StreamScanner] = {}
        self.closing: Dict[str, StreamScanner] = {}
        self.paused: set = set()
        self.ready_windows = 0
        self.events_total = 0
        self.windows_scored = 0
        self.detections_total = 0
        self.flagged_total = 0
        self.batches = 0
        self.batch_windows = 0
        self.streams_completed = 0
        self.latencies: deque = deque(maxlen=LATENCY_SAMPLES)
        self.started = time.monotonic()
        # per-stage cumulative counters of *retired* streams; _stats
        # adds the live/closing scanners on top
        self.stage_bytes_in = 0
        self.stage_lines = 0
        self.stage_events = 0
        self.stage_decode_s = 0.0
        self.stage_featurize_s = 0.0
        self.score_s = 0.0
        self.flush_wait_s = 0.0
        self.flushed_chunks = 0

    def note_ready(self, scanner: StreamScanner, ready_before: int) -> None:
        self.ready_windows += scanner.ready_window_count - ready_before

    def retire(self, scanner: StreamScanner) -> None:
        """Fold a finished/failed scanner's stage counters into the
        shard accumulators before its state is dropped."""
        self.stage_bytes_in += scanner.bytes_seen
        self.stage_lines += scanner.lines_seen
        self.stage_events += scanner.events_seen
        self.stage_decode_s += scanner.decode_s
        self.stage_featurize_s += scanner.featurize_s


def shard_worker_loop(
    shard_index: int, in_queue, out_queue, registry_spec: dict
) -> None:
    """The worker main loop; identical under thread and process pools."""
    registry = ModelRegistry.from_spec(
        registry_spec, on_reload=evict_frame_intern
    )
    state = _ShardState(shard_index, registry)
    put = out_queue.put
    stop = False
    while not stop:
        stop = _handle(state, put, in_queue.get())
        # drain whatever arrived while we were busy, so one flush scores
        # it all in one batch; the bound keeps one drain finite
        while not stop and state.ready_windows < TARGET_BATCH_WINDOWS:
            try:
                message = in_queue.get_nowait()
            except queue.Empty:
                break
            stop = _handle(state, put, message)
        if state.ready_windows or stop:
            _flush(state, put)
        _finalize(state, put)


def _handle(state: _ShardState, put, message) -> bool:
    kind = message[0]
    if kind in ("data", "data_columnar"):
        _, stream_id, payload = message
        scanner = state.scanners.get(stream_id)
        if scanner is not None:
            ready_before = scanner.ready_window_count
            try:
                if kind == "data":
                    scanner.feed_bytes(payload)
                else:
                    scanner.feed_chunk_bytes(payload)
            except _STREAM_ERRORS as error:
                _fail_stream(state, put, stream_id, scanner, error)
            else:
                state.note_ready(scanner, ready_before)
                if (
                    stream_id not in state.paused
                    and scanner.ready_window_count > WINDOW_HIGH_WATER
                ):
                    state.paused.add(stream_id)
                    put(("pause", stream_id))
        put(("ack", stream_id, len(payload)))
        return False
    if kind == "open":
        _, stream_id, spec = message
        try:
            pipeline = state.registry.resolve(
                spec.get("app"), spec.get("model_version")
            )
            scanner = StreamScanner(
                stream_id, pipeline, policy=spec.get("policy")
            )
        except (UnknownModelError, BundleError, ValueError, OSError) as error:
            put(
                (
                    "error",
                    stream_id,
                    {"error": str(error), "kind": type(error).__name__},
                )
            )
            return False
        path = spec.get("path")
        if path is None:
            state.scanners[stream_id] = scanner
            return False
        # server-local source: scan it whole through the same stream
        # machinery, then close — the client only awaits the result
        try:
            ready_before = scanner.ready_window_count
            if is_capture_path(path):
                capture = load_capture(path)
                if capture.report is not None:
                    scanner.report.merge(capture.report)
                scanner.feed_events(capture.columns)
                scanner.bytes_seen += sum(
                    entry.stat().st_size for entry in Path(path).iterdir()
                )
            else:
                scanner.feed_bytes(Path(path).read_bytes())
            scanner.finish()
        except _STREAM_ERRORS as error:
            _fail_stream(state, put, stream_id, scanner, error)
            return False
        except (OSError, CaptureError) as error:
            put(
                (
                    "error",
                    stream_id,
                    {"error": str(error), "kind": type(error).__name__},
                )
            )
            return False
        state.note_ready(scanner, ready_before)
        state.closing[stream_id] = scanner
        return False
    if kind in ("end", "abort"):
        _, stream_id = message
        scanner = state.scanners.pop(stream_id, None)
        if scanner is None:
            return False
        ready_before = scanner.ready_window_count
        try:
            scanner.finish(disconnected=(kind == "abort"))
        except _STREAM_ERRORS as error:
            _fail_stream(state, put, stream_id, scanner, error)
            return False
        state.note_ready(scanner, ready_before)
        state.closing[stream_id] = scanner
        return False
    if kind == "stats":
        _, token, include_latencies = message
        put(("stats", state.shard_index, token, _stats(state, include_latencies)))
        return False
    if kind == "stop":
        return True
    raise RuntimeError(f"unknown worker message {kind!r}")


def _fail_stream(
    state: _ShardState, put, stream_id: str, scanner: StreamScanner, error
) -> None:
    """Fatal stream failure — a strict-mode parse error (the report was
    finalized by the parse machine before raising), a columnar chunk
    that failed validation, or a stack walk that does not partition.
    Surface it with the error and free the stream (its unscored windows
    die with it)."""
    state.scanners.pop(stream_id, None)
    state.paused.discard(stream_id)
    state.retire(scanner)
    kind = getattr(error, "kind", None)  # ParseError carries an enum
    put(
        (
            "error",
            stream_id,
            {
                "error": str(error),
                "kind": getattr(kind, "name", type(error).__name__),
                "lineno": getattr(error, "lineno", None),
                "report": scanner.report.to_dict(),
            },
        )
    )


def _flush(state: _ShardState, put) -> None:
    """Score every ready chunk across every stream in one micro-batched
    call, emit one ``detections`` message per stream, resume paused
    streams."""
    chunks: List[ScoreChunk] = []
    for scanner in state.scanners.values():
        chunks.extend(scanner.take_ready())
    for scanner in state.closing.values():
        chunks.extend(scanner.take_ready())
    state.ready_windows = 0
    if chunks:
        score_start = time.monotonic()
        results = score_chunks(chunks)
        now = time.monotonic()
        state.score_s += now - score_start
        state.flush_wait_s += sum(
            score_start - chunk.ready_at for chunk in chunks
        )
        state.flushed_chunks += len(chunks)
        state.batches += 1
        by_stream: Dict[str, list] = {}
        for chunk, scores in zip(chunks, results):
            by_stream.setdefault(chunk.stream_id, []).extend(
                detection_rows(chunk.windows, scores)
            )
            state.latencies.extend((now - chunk.times).tolist())
        for stream_id, rows in by_stream.items():
            state.windows_scored += len(rows)
            state.batch_windows += len(rows)
            state.detections_total += len(rows)
            state.flagged_total += sum(1 for row in rows if row[4])
            put(("detections", stream_id, rows))
    # a paused stream's ready windows were all just scored
    for stream_id in sorted(state.paused):
        put(("resume", stream_id))
    state.paused.clear()


def _finalize(state: _ShardState, put) -> None:
    """Emit final results for closing streams whose chunks are all
    scored — run on every pass, flush or not, so a stream that ends
    with nothing left to score gets its result at once."""
    for stream_id in list(state.closing):
        scanner = state.closing[stream_id]
        if scanner.unscored_windows:
            continue
        del state.closing[stream_id]
        state.events_total += scanner.events_seen
        state.streams_completed += 1
        state.retire(scanner)
        put(
            (
                "result",
                stream_id,
                {
                    "stream_id": stream_id,
                    "events": scanner.events_seen,
                    "windows": scanner.windows_made,
                    "bytes": scanner.bytes_seen,
                    "disconnected": scanner.disconnected,
                    "truncated_tail": scanner.report.truncated_tail,
                    "report": scanner.report.to_dict(),
                },
            )
        )


def _quantile(samples: List[float], q: float) -> Optional[float]:
    if not samples:
        return None
    return float(np.quantile(np.asarray(samples), q))


def _stats(state: _ShardState, include_latencies: bool) -> dict:
    samples = list(state.latencies)
    elapsed = time.monotonic() - state.started
    intern = frame_intern_stats()
    live_scanners = list(state.scanners.values()) + list(
        state.closing.values()
    )
    stats = {
        "shard": state.shard_index,
        "streams_live": len(state.scanners),
        "streams_closing": len(state.closing),
        "streams_completed": state.streams_completed,
        "streams_paused": len(state.paused),
        "events_total": state.events_total
        + sum(s.events_seen for s in state.scanners.values()),
        "windows_scored": state.windows_scored,
        "detections_total": state.detections_total,
        "flagged_total": state.flagged_total,
        "batches": state.batches,
        "mean_batch_windows": (
            state.batch_windows / state.batches if state.batches else 0.0
        ),
        "mean_flush_wait_s": (
            state.flush_wait_s / state.flushed_chunks
            if state.flushed_chunks
            else 0.0
        ),
        "stages": {
            "bytes_in": state.stage_bytes_in
            + sum(s.bytes_seen for s in live_scanners),
            "lines_parsed": state.stage_lines
            + sum(s.lines_seen for s in live_scanners),
            "events_decoded": state.stage_events
            + sum(s.events_seen for s in live_scanners),
            "decode_s": state.stage_decode_s
            + sum(s.decode_s for s in live_scanners),
            "featurize_s": state.stage_featurize_s
            + sum(s.featurize_s for s in live_scanners),
            "score_s": state.score_s,
            "flushed_chunks": state.flushed_chunks,
        },
        "unscored_windows": {
            stream_id: scanner.unscored_windows
            for stream_id, scanner in state.scanners.items()
            if scanner.unscored_windows
        },
        "stream_reports": {
            stream_id: {
                "events_yielded": scanner.report.events_yielded,
                "events_dropped": scanner.report.events_dropped,
                "error_lines": scanner.report.error_lines,
                "truncated_tail": scanner.report.truncated_tail,
            }
            for stream_id, scanner in state.scanners.items()
        },
        "latency_s": {
            "count": len(samples),
            "p50": _quantile(samples, 0.50),
            "p99": _quantile(samples, 0.99),
        },
        "frame_intern": {
            "entries": intern.entries,
            "approx_bytes": intern.approx_bytes,
        },
        "registry": state.registry.stats(),
        "uptime_s": elapsed,
    }
    if include_latencies:
        stats["latencies_s"] = samples
    return stats


class ShardPool:
    """N shard workers plus the single output queue and its pump."""

    def __init__(
        self,
        registry: ModelRegistry,
        n_shards: int = 1,
        executor: str = "process",
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if executor not in ("process", "thread"):
            raise ValueError("executor must be 'process' or 'thread'")
        self.n_shards = n_shards
        self.executor = executor
        spec = registry.spec()
        if executor == "process":
            context = multiprocessing.get_context()
            self.out_queue = context.Queue()
            self.in_queues = [context.Queue() for _ in range(n_shards)]
            self.workers = [
                context.Process(
                    target=shard_worker_loop,
                    args=(index, self.in_queues[index], self.out_queue, spec),
                    daemon=True,
                    name=f"leaps-shard-{index}",
                )
                for index in range(n_shards)
            ]
        else:
            self.out_queue = queue.Queue()
            self.in_queues = [queue.Queue() for _ in range(n_shards)]
            self.workers = [
                threading.Thread(
                    target=shard_worker_loop,
                    args=(index, self.in_queues[index], self.out_queue, spec),
                    daemon=True,
                    name=f"leaps-shard-{index}",
                )
                for index in range(n_shards)
            ]
        self._pump: Optional[threading.Thread] = None
        self._started = False

    def start(self, sink: Callable[[List[tuple]], None]) -> None:
        """Start every worker and the pump thread delivering worker
        output messages to ``sink`` in arrival-order batches (called
        from the pump thread)."""
        for worker in self.workers:
            worker.start()
        self._pump = threading.Thread(
            target=self._pump_loop, args=(sink,), daemon=True, name="leaps-pump"
        )
        self._pump.start()
        self._started = True

    def _pump_loop(self, sink: Callable[[List[tuple]], None]) -> None:
        # greedy drain: one sink call (one event-loop wakeup) delivers
        # everything queued since the last burst, so a scoring flush
        # that emits hundreds of messages costs one loop crossing
        while True:
            batch = [self.out_queue.get()]
            try:
                while True:
                    batch.append(self.out_queue.get_nowait())
            except queue.Empty:
                pass
            stop = any(message[0] == "__pump_stop__" for message in batch)
            if stop:
                batch = [
                    message for message in batch
                    if message[0] != "__pump_stop__"
                ]
            if batch:
                sink(batch)
            if stop:
                return

    def shard_of(self, stream_id: str) -> int:
        return shard_for(stream_id, self.n_shards)

    def send(self, stream_id: str, message: tuple) -> None:
        self.in_queues[self.shard_of(stream_id)].put(message)

    def broadcast(self, message: tuple) -> None:
        for in_queue in self.in_queues:
            in_queue.put(message)

    def stop(self, timeout: float = 10.0) -> None:
        if not self._started:
            return
        self.broadcast(("stop",))
        for worker in self.workers:
            worker.join(timeout)
        self.out_queue.put(("__pump_stop__",))
        if self._pump is not None:
            self._pump.join(timeout)
        self._started = False
