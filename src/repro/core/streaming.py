"""The incremental scan: raw lines → events → windows → scored chunks.

A :class:`StreamScanner` holds one live scan's state between feeds: the
byte fragment of a line split across reads, the block parser
(:class:`~repro.etw.fastparse.StreamingParser`), the push-mode window
coalescer and the open scoring chunk.  It is the only incremental scan
path — :meth:`LeapsPipeline.score_stream` drains one with
:func:`scan_lines`, and every serve shard keeps one per stream
(``repro.serve.StreamScanner`` adds the columnar wire) — and any
chunking of its input gives the same windows and scores: the block
parser equals the scalar ``ParseMachine`` event for event, each block
is featurized and coalesced whole (``PushCoalescer.push_block``), and
chunk k always holds windows ``[k·chunk, (k+1)·chunk)`` of the stream,
the chunks ``score_events`` scores a whole log in.

:func:`score_chunks` scores chunks of one stream or many in one fused
kernel call per model, each chunk's scores bit-identical to scoring it
alone (DESIGN.md §12).

A strict ``ParseError`` or a ``StackPartitionError`` (an app frame
below a system frame) fails the scan only after the events before the
failing line or event are coalesced, so every chunk they completed is
scored first, as in a per-event scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.etw.fastparse import StreamingParser
from repro.etw.parser import LogLine, ParseError
from repro.etw.recovery import ParseErrorKind, ParseReport
from repro.etw.stack_partition import StackPartitionError
from repro.preprocessing.windows import Window

#: raw lines per scanner feed in :func:`scan_lines`; the detections are
#: the same at any value
FEED_LINES = 256


@dataclass
class ScoreChunk:
    """One stream's scoring unit: up to ``stream_chunk_windows``
    consecutive windows (the final chunk of a stream may be partial)."""

    stream_id: str
    pipeline: object
    windows: List[Window] = field(default_factory=list)
    #: per-window parse-completion timestamps (latency accounting)
    times: List[float] = field(default_factory=list)
    #: when the chunk became score-ready (flush-wait accounting)
    ready_at: float = 0.0


def score_chunks(chunks: Sequence[ScoreChunk]) -> List[np.ndarray]:
    """Score every chunk, batching across chunks per model.

    Returns one decision-value array per chunk, in input order, each
    bit-identical to the model's decision values of that chunk's
    standardized windows scored alone.
    """
    results: List = [None] * len(chunks)
    by_model: dict = {}
    for position, chunk in enumerate(chunks):
        by_model.setdefault(id(chunk.pipeline), []).append(position)
    for positions in by_model.values():
        pipeline = chunks[positions[0]].pipeline
        stacks = [
            np.stack([window.vector for window in chunks[position].windows])
            for position in positions
        ]
        matrix = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        matrix = pipeline.standardizer.transform(matrix)
        ends = np.cumsum([len(stack) for stack in stacks]).tolist()
        bounds = list(zip([0] + ends[:-1], ends))
        scores = pipeline.model.decision_function_blocked(matrix, bounds)
        for position, (start, stop) in zip(positions, bounds):
            results[position] = scores[start:stop]
    return results


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
        self.coalescer = pipeline.coalescer.push_coalescer()
        self.chunk_windows = int(pipeline.config.stream_chunk_windows)
        self._clock = clock
        self._transform = pipeline.featurizer.transform
        self._fragment = b""
        self._pending: List[Window] = []  # windows of the open chunk
        self._pending_times: List[float] = []
        self._ready: List[ScoreChunk] = []
        self.events_seen = 0
        self.windows_made = 0
        self.bytes_seen = 0
        self.lines_seen = 0
        self.decode_s = 0.0  # byte→line / chunk→event decode time
        self.featurize_s = 0.0  # transform + coalesce + chunk time
        self.finished = False
        self.disconnected = False

    # -- ingest --------------------------------------------------------
    def feed_bytes(self, data: bytes) -> None:
        """Ingest the next raw text payload; lines split across
        payloads are held as a fragment until their newline arrives.

        The whole completed region is decoded in one pass (one
        ``decode`` + one ``split`` instead of per-line calls); the
        result is identical to per-piece decoding because ``\\n`` is a
        single byte no UTF-8 sequence can span, ``\\r\\n`` collapse
        touches exactly the bytes per-piece ``strip_cr`` would, and an
        undecodable region falls back to the per-piece path so only
        genuinely broken lines pass through as ``bytes``."""
        self.bytes_seen += len(data)
        start = time.perf_counter()
        buffer = self._fragment + data
        cut = buffer.rfind(b"\n")
        if cut < 0:
            self._fragment = buffer
            self.decode_s += time.perf_counter() - start
            return
        region = buffer[: cut + 1]
        self._fragment = buffer[cut + 1 :]
        cr_free = False
        try:
            text = region.decode("utf-8")
        except UnicodeDecodeError:
            pieces = region.split(b"\n")
            pieces.pop()  # region ends with the delimiter
            lines: List[LogLine] = [
                self._decode(piece, strip_cr=True) for piece in pieces
            ]
        else:
            if "\r" in text:
                text = text.replace("\r\n", "\n")
            else:
                # one C-speed scan proved the whole region \r-free, so
                # the block parser can skip its per-line gate
                cr_free = True
            lines = text.split("\n")
            lines.pop()
        self.decode_s += time.perf_counter() - start
        self.feed_lines(lines, cr_free=cr_free)

    def feed_events(self, events: Sequence) -> None:
        """Ingest already-parsed events (a ``.leapscap`` capture) — the
        same featurize/coalesce/chunk path, no parse."""
        self._ingest(events)

    def feed_lines(self, lines: Sequence[LogLine], cr_free: bool = False) -> None:
        """Ingest newline-free lines (``cr_free`` as in
        :meth:`StreamingParser.feed_lines`)."""
        self.lines_seen += len(lines)
        self._parse(self.parser.feed_lines, lines, cr_free)

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
            tail = self._decode(self._fragment, strip_cr=False)
            self._fragment = b""
            self._parse(self.parser.feed_lines, [tail])
        self._parse(self.parser.finish)
        if disconnected and not self.report.truncated_tail:
            self.report.truncated_tail = True
            self.report.record(
                ParseErrorKind.TRUNCATED_TAIL,
                max(self.parser.machine.lineno, 1),
                "stream disconnected before END",
            )
        if self._pending:
            self._close_chunk()
        self.finished = True

    # -- scoring handoff -----------------------------------------------
    @property
    def unscored_windows(self) -> int:
        """Windows parsed but not yet handed to a scoring call — the
        backpressure watermark input."""
        return len(self._pending) + self.ready_window_count

    @property
    def ready_window_count(self) -> int:
        """Windows sitting in completed (score-ready) chunks."""
        return sum(len(chunk.windows) for chunk in self._ready)

    def take_ready(self) -> List[ScoreChunk]:
        """Claim the completed chunks (the scoring call's input)."""
        ready, self._ready = self._ready, []
        return ready

    # -- internals -----------------------------------------------------
    @staticmethod
    def _decode(piece: bytes, strip_cr: bool) -> LogLine:
        if strip_cr and piece.endswith(b"\r"):
            piece = piece[:-1]
        try:
            return piece.decode("utf-8")
        except UnicodeDecodeError:
            return piece

    def _parse(self, call, *args) -> None:
        """Ingest the events one parser call completed.  A strict
        ``ParseError`` kills the stream — the machine finalized the
        report before raising — once the events the call completed
        before the failing line are ingested."""
        try:
            events = call(*args)
        except ParseError as error:
            self.finished = True
            self._ingest(error.events)
            raise
        self._ingest(events)

    def _ingest(self, events: Sequence) -> None:
        if not events:
            return
        start = time.perf_counter()
        now = self._clock()
        try:
            rows = self._transform(events)
        except StackPartitionError:
            # kill the stream, but coalesce the events before the first
            # walk that does not partition: their windows stand
            self.finished = True
            for stop, event in enumerate(events):
                try:
                    self._transform([event])
                except StackPartitionError:
                    break
            self._ingest(events[:stop])
            raise
        for window in self.coalescer.push_block(events, rows):
            self._pending.append(window)
            self._pending_times.append(now)
            if len(self._pending) == self.chunk_windows:
                self._close_chunk()
        self.events_seen += len(events)
        self.featurize_s += time.perf_counter() - start

    def _close_chunk(self) -> None:
        self._ready.append(
            ScoreChunk(
                self.stream_id, self.pipeline, self._pending,
                self._pending_times, ready_at=self._clock(),
            )
        )
        self.windows_made += len(self._pending)
        self._pending = []
        self._pending_times = []


def scan_lines(
    scanner: StreamScanner, lines: Iterable[LogLine]
) -> Iterator[Tuple[Window, float]]:
    """Drain a raw-line iterator through ``scanner``: feed it
    :data:`FEED_LINES` lines at a time and yield ``(window, score)`` for
    the chunks each feed completed.

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
            yield from _scored(scanner.take_ready())
        scanner.finish()
    except (ParseError, StackPartitionError):
        yield from _scored(scanner.take_ready())
        raise
    yield from _scored(scanner.take_ready())


def _scored(chunks: List[ScoreChunk]) -> Iterator[Tuple[Window, float]]:
    for chunk, scores in zip(chunks, score_chunks(chunks)):
        yield from zip(chunk.windows, scores)
