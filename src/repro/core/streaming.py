"""The incremental scan: raw lines → events → windows → scored chunks.

A :class:`StreamScanner` holds one live scan's state between feeds: the
byte fragment of a line split across reads, the block parser
(:class:`~repro.etw.fastparse.StreamingParser`), the per-stream
featurization tables (:class:`~repro.preprocessing.features.StreamFeatures`),
the push-mode window coalescer and the open scoring tile.  It is the
one scan path — ``LeapsDetector.scan_log``/``scan_logs`` feed it a whole
log's columns as one block, :meth:`LeapsPipeline.score_stream` drains
one with :func:`scan_lines`, and every serve shard keeps one per stream
(``repro.serve.StreamScanner`` adds the columnar wire) — and any
chunking of its input gives the same windows and scores: the block
parser equals the scalar ``ParseMachine`` event for event, each block
of :class:`~repro.etw.events.EventColumns` is featurized and coalesced
whole (``PushCoalescer.push_block``), and tile k always holds windows
``[k·tile, (k+1)·tile)`` of the stream (``tile`` is
``stream_chunk_windows``).  Each feed hands out every whole tile it
completed as one ready chunk; a short tile appears only at
:meth:`StreamScanner.finish`.  No per-event record and no per-window
object is built between bytes and scores.

:func:`score_chunks` scores chunks of one stream or many in one stacked
kernel call per model, each tile's scores bit-identical to scoring it
alone (DESIGN.md §12).

A strict ``ParseError`` or a ``StackPartitionError`` (an app frame
below a system frame) fails the scan only after the events before the
failing line or event are coalesced, so every chunk they completed is
scored first, as in a per-event scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.etw.events import EventColumns
from repro.etw.fastparse import StreamingParser
from repro.etw.parser import LogLine, ParseError, split_log_bytes
from repro.etw.recovery import ParseErrorKind, ParseReport
from repro.etw.stack_partition import StackPartitionError
from repro.preprocessing.features import StreamFeatures
from repro.preprocessing.windows import WindowArrays

#: raw lines per scanner feed in :func:`scan_lines`; the detections are
#: the same at any value, and each feed's block pays the featurizer's
#: fixed grouping cost once (DESIGN.md §8)
FEED_LINES = 1024


@dataclass
class ScoreChunk:
    """Consecutive windows of one stream ready to score: the whole tiles
    of ``stream_chunk_windows`` windows one feed completed, or the
    stream's short final tile."""

    stream_id: str
    pipeline: object
    windows: WindowArrays
    #: per-window parse-completion timestamps (latency accounting)
    times: np.ndarray
    #: when the chunk became score-ready (flush-wait accounting)
    ready_at: float = 0.0


def score_chunks(chunks: Sequence[ScoreChunk]) -> List[np.ndarray]:
    """Score every chunk, batching across chunks per model.

    Returns one decision-value array per chunk, in input order, each
    bit-identical to the model's decision values of that chunk's
    standardized windows scored tile by tile.  Per model, the chunks of
    every stream share one
    :meth:`~repro.learning.svm.KernelSVM.decision_tiles` call: the
    whole-tile chunks, with one short final tile riding at their end,
    which a tiled call scores as that tile alone; the other short final
    tiles of each length share one more, as tiles of that length.
    """
    results: List = [None] * len(chunks)
    calls: dict = {}
    riders: dict = {}  # model → (whole-tile call, its short tail)
    for position, chunk in enumerate(chunks):
        tile = chunk.pipeline.config.stream_chunk_windows
        model, size = id(chunk.pipeline), len(chunk.times) % tile
        if size and model not in riders:
            riders[model] = ((model, tile), position)
        else:
            calls.setdefault((model, size or tile), []).append(position)
    for call, position in riders.values():
        calls.setdefault(call, []).append(position)
    for (_, size), group in calls.items():
        pipeline = chunks[group[0]].pipeline
        matrices = [chunks[position].windows.matrix for position in group]
        matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
        scores = pipeline.model.decision_tiles(
            pipeline.standardizer.transform(matrix), size
        )
        start = 0
        for position, block in zip(group, matrices):
            results[position] = scores[start : start + len(block)]
            start += len(block)
    return results


def detection_rows(windows: WindowArrays, scores: np.ndarray) -> Iterator[tuple]:
    """``(index, start_eid, end_eid, score, malicious)`` per window —
    the fields of a ``WindowDetection``, as Python scalars."""
    return zip(
        windows.start_index.tolist(),
        windows.start_eid.tolist(),
        windows.end_eid.tolist(),
        scores.tolist(),
        (scores < 0.0).tolist(),
    )


class StreamScanner:
    """Push-mode scan of one stream: feed text bytes, lines or parsed
    events; claim score-ready chunks with :meth:`take_ready`."""

    def __init__(
        self,
        stream_id: str,
        pipeline,
        policy: Optional[str] = None,
        report: Optional[ParseReport] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if pipeline.model is None or pipeline.featurizer is None:
            raise ValueError("StreamScanner needs a trained pipeline")
        self.stream_id = stream_id
        self.pipeline = pipeline
        self.policy = policy or pipeline.parser.policy
        self.parser = StreamingParser(policy=self.policy, report=report)
        self.report = self.parser.report
        self.features = StreamFeatures(pipeline.featurizer)
        self.coalescer = pipeline.coalescer.push_coalescer()
        self.chunk_windows = int(pipeline.config.stream_chunk_windows)
        self._clock = clock
        self._fragment = b""
        # the open chunk: blocks of windows, their times, their count
        self._pending: List[WindowArrays] = []
        self._pending_times: List[np.ndarray] = []
        self._pending_count = 0
        self._ready: List[ScoreChunk] = []
        self.events_seen = 0
        self.windows_made = 0
        self.bytes_seen = 0
        self.lines_seen = 0
        self.decode_s = 0.0  # bytes → events (text decode + parse, or chunk decode)
        self.featurize_s = 0.0  # events → score-ready chunks
        self.finished = False
        self.disconnected = False

    # -- ingest --------------------------------------------------------
    def feed_bytes(self, data: bytes) -> None:
        """Ingest the next raw text payload; lines split across
        payloads are held as a fragment until their newline arrives.

        The whole completed region splits in one
        :func:`~repro.etw.parser.split_log_bytes` pass, which equals
        per-line decoding because ``\\n`` is a single byte no UTF-8
        sequence can span; only genuinely undecodable lines pass through
        as ``bytes``."""
        self.bytes_seen += len(data)
        start = time.perf_counter()
        buffer = self._fragment + data
        cut = buffer.rfind(b"\n") + 1
        self._fragment = buffer[cut:]
        lines = split_log_bytes(buffer[:cut])
        self.decode_s += time.perf_counter() - start
        if lines:
            self.feed_lines(lines)

    def feed_events(self, events: EventColumns) -> None:
        """Ingest already-parsed events (a ``.leapscap`` capture's or a
        decoded chunk's columns) — the same featurize/coalesce/chunk
        path, no parse."""
        self._ingest(events)

    def feed_lines(self, lines: Sequence[LogLine]) -> None:
        """Ingest newline-free lines."""
        self.lines_seen += len(lines)
        self._parse(self.parser.feed_lines, lines)

    def finish(self, disconnected: bool = False) -> None:
        """End of stream: flush the fragment, run the parser's real
        end-of-input (truncated-tail) logic, and close the open chunk.

        ``disconnected`` marks a client that vanished without ``END`` —
        its tail cannot be trusted, so ``report.truncated_tail`` is
        forced on (recording a ``TRUNCATED_TAIL`` issue if the depth
        heuristic had not already fired) and the partial result is
        emitted rather than silently dropped.
        """
        if self.finished:
            return
        self.disconnected = disconnected
        if self._fragment:
            # final unterminated line; a trailing \r is content here,
            # exactly as in a batch read of the whole file
            tail, self._fragment = split_log_bytes(self._fragment), b""
            self._parse(self.parser.feed_lines, tail)
        if self.lines_seen or self.bytes_seen:  # text may have been fed
            self._parse(self.parser.finish)
        if disconnected and not self.report.truncated_tail:
            self.report.truncated_tail = True
            self.report.record(
                ParseErrorKind.TRUNCATED_TAIL,
                max(self.parser.machine.lineno, 1),
                "stream disconnected before END",
            )
        if self._pending_count:
            self._close_chunk(self._pending_count)
        self.finished = True

    # -- scoring handoff -----------------------------------------------
    @property
    def unscored_windows(self) -> int:
        """Windows parsed but not yet handed to a scoring call — the
        backpressure watermark input."""
        return self._pending_count + self.ready_window_count

    @property
    def ready_window_count(self) -> int:
        """Windows sitting in completed (score-ready) chunks."""
        return sum(len(chunk.times) for chunk in self._ready)

    def take_ready(self) -> List[ScoreChunk]:
        """Claim the completed chunks (the scoring call's input)."""
        ready, self._ready = self._ready, []
        return ready

    # -- internals -----------------------------------------------------
    def _parse(self, call, *args) -> None:
        """Ingest the events one parser call completed.  A strict
        ``ParseError`` kills the stream — the machine finalized the
        report before raising — once the events the call completed
        before the failing line are ingested."""
        start = time.perf_counter()
        try:
            events = call(*args)
        except ParseError as error:
            self.decode_s += time.perf_counter() - start
            self.finished = True
            self._ingest(error.events)
            raise
        self.decode_s += time.perf_counter() - start
        self._ingest(events)

    def _ingest(self, events: EventColumns) -> None:
        """Featurize, coalesce and chunk one block.  A walk that does
        not partition kills the stream once the events before its first
        event are coalesced: their windows stand."""
        if not events.n_events:
            return
        start = time.perf_counter()
        now = self._clock()
        rows, error = self.features.transform(events)
        windows = self.coalescer.push_block(events.eid[: len(rows)], rows)
        made = len(windows.start_index)
        if made:
            self._pending.append(windows)
            self._pending_times.append(np.full(made, now))
            self._pending_count += made
        whole = self._pending_count - self._pending_count % self.chunk_windows
        if whole:
            self._close_chunk(whole)
        self.events_seen += len(rows)
        self.featurize_s += time.perf_counter() - start
        if error is not None:
            self.finished = True
            raise error

    def _close_chunk(self, stop: int) -> None:
        """Move the open tile's first ``stop`` windows to a ready chunk;
        the pending blocks are joined here, once per feed."""
        if len(self._pending) > 1:
            self._pending = [WindowArrays(*map(np.concatenate, zip(*self._pending)))]
            self._pending_times = [np.concatenate(self._pending_times)]
        (windows,), (times,) = self._pending, self._pending_times
        self._ready.append(ScoreChunk(
            self.stream_id,
            self.pipeline,
            WindowArrays(*(column[:stop] for column in windows)),
            times[:stop],
            ready_at=self._clock(),
        ))
        self._pending = [WindowArrays(*(column[stop:] for column in windows))]
        self._pending_times = [times[stop:]]
        self._pending_count -= stop
        self.windows_made += stop


def scan_lines(
    scanner: StreamScanner, lines: Iterable[LogLine]
) -> Iterator[Tuple[WindowArrays, np.ndarray]]:
    """Drain a raw-line iterator through ``scanner``: feed it
    :data:`FEED_LINES` lines at a time and yield ``(windows, scores)``
    for each chunk the feeds completed.

    The trailing newlines file iteration leaves on ``str`` lines are
    stripped first, as the scalar parser strips them per line (the block
    parser cannot see an ``EVENT`` line that still carries one).  A
    ``ParseError`` or ``StackPartitionError`` propagates after the
    chunks completed before the failing line or event are yielded.
    """
    source = iter(lines)
    try:
        while True:
            batch = list(islice(source, FEED_LINES))
            if not batch:
                break
            first = batch[0]
            if isinstance(first, str) and first.endswith("\n"):
                batch = [
                    line.rstrip("\n") if isinstance(line, str) else line
                    for line in batch
                ]
            scanner.feed_lines(batch)
            yield from scored(scanner.take_ready())
        scanner.finish()
    except (ParseError, StackPartitionError):
        yield from scored(scanner.take_ready())
        raise
    yield from scored(scanner.take_ready())


def scored(chunks: List[ScoreChunk]) -> Iterator[Tuple[WindowArrays, np.ndarray]]:
    """``(windows, scores)`` per chunk, from one :func:`score_chunks` call."""
    for chunk, scores in zip(chunks, score_chunks(chunks)):
        yield chunk.windows, scores
