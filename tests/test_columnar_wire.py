"""Columnar wire chunks: the binary fast path must be invisible.

A stream shipped as ``FRAME_DATA_COLUMNAR`` chunks — cut at *any* byte
boundary — must decode into the same interned events, merge into the
same :class:`ParseReport`, and score into the same detections as the
whole-log text path.  Property-tested here with hypothesis-driven
fragmentation across all three parse policies, plus direct validation
of the codec's tamper rejection.
"""

import struct
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import detection_rows
from repro.etw.capture import EVENTS_NAME
from repro.etw.events import EventColumns
from repro.etw.fastparse import StreamingParser, parse_fast
from repro.etw.recovery import ParseReport, ParseWarning
from repro.serve import score_chunks
from repro.serve.columnar import (
    CHUNK_HEADER_SIZE,
    CHUNK_MAGIC,
    CHUNK_REPORT,
    CHUNK_VERSION,
    CaptureChunkDecoder,
    ChunkEncoder,
    ChunkError,
    encode_event_stream,
)
from repro.serve.streams import StreamScanner

from tests.conftest import TINY_LOG
from tests.oracles.capture import (
    naive_delta,
    read_chunk_arrays,
    write_capture_naive,
)
from tests.test_api import make_log
from tests.test_stream_scan import SCAN_SPECS, tiny_detector


@pytest.fixture(scope="module")
def detector():
    return tiny_detector()


def encode_blob(events, report=None, chunk_events=8192):
    """Whole stream as one contiguous byte blob of columnar chunks."""
    return b"".join(encode_event_stream(events, report, chunk_events))


def records_of(blocks):
    """The events of decoded blocks as one record list."""
    return [record for block in blocks for record in block.records()]


def scan_columnar(detector, blob, cuts=()):
    """Feed a chunk blob through a :class:`StreamScanner` in fragments
    cut at ``cuts`` and score it; returns (detection rows, scanner)."""
    scanner = StreamScanner("wire", detector.pipeline, policy="drop")
    bounds = sorted({0, *cuts, len(blob)})
    for start, stop in zip(bounds, bounds[1:]):
        scanner.feed_chunk_bytes(blob[start:stop])
    scanner.finish()
    chunks = scanner.take_ready()
    rows = []
    for chunk, scores in zip(chunks, score_chunks(chunks)):
        rows.extend(row[:4] for row in detection_rows(chunk.windows, scores))
    return rows, scanner


def text_reference(detector, lines, policy):
    """The whole-log text path: detections plus its ParseReport."""
    report = ParseReport()
    rows = [
        (d.index, d.start_eid, d.end_eid, d.score)
        for d in detector.scan_stream(lines, policy=policy, report=report)
    ]
    return rows, report


class TestCodecRoundTrip:
    def test_events_and_interning_survive_the_wire(self):
        events = parse_fast(TINY_LOG.splitlines())
        decoder = CaptureChunkDecoder()
        blocks, reports = decoder.feed(encode_blob(events, chunk_events=2))
        assert reports == []
        assert [block.n_events for block in blocks] == [2, 1]
        got = records_of(blocks)
        assert got == list(events)
        for mine, theirs in zip(got, events):
            for frame_a, frame_b in zip(mine.frames, theirs.frames):
                assert frame_a is frame_b  # process-wide intern table
            assert mine.frames is theirs.frames or mine.frames == theirs.frames

    def test_deltas_are_cumulative_across_chunks(self):
        """Repeated events cost a header + columns, never re-shipped
        vocab/frame/walk tables — the whole point of the delta scheme."""
        events = parse_fast(TINY_LOG.splitlines())
        encoder = ChunkEncoder()
        first = encoder.encode_events(events)
        again = encoder.encode_events(events)
        assert len(again) < len(first)
        decoder = CaptureChunkDecoder()
        blocks, _ = decoder.feed(first + again)
        assert records_of(blocks) == list(events) + list(events)
        # both blocks index the decoder's one set of cumulative tables
        assert blocks[0].walks is blocks[1].walks

    @pytest.mark.parametrize("step", [1, 4, 1000])
    def test_row_ranges_share_the_tables(self, step):
        """Row ranges of one set of columns: the first chunk carries
        the whole tables, the rest only their columns, and the decoded
        blocks are the records."""
        events = parse_fast(make_log(SCAN_SPECS))
        cols = EventColumns.from_records(events)
        encoder = ChunkEncoder()
        chunks = [
            encoder.encode_columns(cols.rows(start, start + step))
            for start in range(0, cols.n_events, step)
        ]
        decoder = CaptureChunkDecoder()
        first, _ = decoder.feed(chunks[0])
        assert len(first[0].walks) == len(cols.walks)
        rest, _ = decoder.feed(b"".join(chunks[1:]))
        assert records_of(first + rest) == list(events)
        assert len({len(chunk) for chunk in chunks[1:-1]}) <= 1

    def test_growing_tables_round_trip(self):
        """Blocks over a streaming parser's cumulative tables, which
        grow between calls, decode to the blocks' records."""
        lines = make_log(SCAN_SPECS)
        parser, encoder = StreamingParser(policy="drop"), ChunkEncoder()
        blocks, chunks, sizes = [], [], []
        for start in [*range(0, len(lines), 7), None]:
            block = (
                parser.finish() if start is None
                else parser.feed_lines(lines[start : start + 7])
            )
            blocks.append(block)
            sizes.append(len(block.walks))
            chunks.append(encoder.encode_columns(block))  # before it grows
        assert len({id(block.walks) for block in blocks}) == 1
        assert sizes[0] < sizes[-1]
        decoded, _ = CaptureChunkDecoder().feed(b"".join(chunks))
        assert records_of(decoded) == records_of(blocks)
        assert records_of(blocks) == list(parse_fast(lines))

    def test_report_chunk_round_trips(self):
        report = ParseReport()
        lines = TINY_LOG.splitlines()
        events = parse_fast(
            lines[:3] + ["@@corrupt@@"] + lines[3:],
            policy="drop",
            report=report,
        )
        blob = encode_blob(events, report)
        _, reports = CaptureChunkDecoder().feed(blob)
        assert len(reports) == 1
        assert reports[0].to_dict() == report.to_dict()


def uint64_tiny_lines():
    lines = TINY_LOG.splitlines()
    lines[1] = "STACK|0|0|app.exe|WinMain|0xfffffffffffff012"
    return lines


class TestLayoutIdentity:
    """A capture is the first chunk of a fresh encoder: its
    ``events.lc`` is that chunk byte for byte, and the chunk carries
    exactly the arrays the per-event capture writer assembles."""

    @pytest.mark.parametrize(
        "lines",
        [TINY_LOG.splitlines(), uint64_tiny_lines(), make_log(SCAN_SPECS), []],
        ids=["tiny", "uint64", "scan-specs", "empty"],
    )
    def test_first_chunk_is_the_capture(self, tmp_path, lines):
        events = parse_fast(lines)
        chunk = ChunkEncoder().encode_events(events)
        path = write_capture_naive(tmp_path / "x.leapscap", events)
        assert (path / EVENTS_NAME).read_bytes() == chunk
        got = read_chunk_arrays(chunk)
        arrays, vocabs = naive_delta(events)
        assert sorted(got) == sorted(
            [*arrays, *(f"vocab_{name}" for name in vocabs)]
        )
        for name, strings in vocabs.items():
            assert got[f"vocab_{name}"] == "".join(
                f"{value}\n" for value in strings
            ), name
        for key, array in arrays.items():
            assert got[key].dtype == array.dtype, key
            assert got[key].tolist() == array.tolist(), key


class TestCodecValidation:
    def blob(self):
        return encode_blob(parse_fast(TINY_LOG.splitlines()))

    def test_bad_magic(self):
        with pytest.raises(ChunkError, match="magic"):
            CaptureChunkDecoder().feed(b"XX" + self.blob()[2:])

    def test_bad_version(self):
        blob = bytearray(self.blob())
        blob[2] = 99
        with pytest.raises(ChunkError, match="version 99"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_unknown_kind(self):
        blob = bytearray(self.blob())
        blob[3] = 7
        with pytest.raises(ChunkError, match="kind 7"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_truncated_body_stays_buffered(self):
        blob = self.blob()
        decoder = CaptureChunkDecoder()
        blocks, _ = decoder.feed(blob[:-1])
        assert blocks == []
        assert decoder.buffered_bytes == len(blob) - 1
        blocks, _ = decoder.feed(blob[-1:])
        assert len(records_of(blocks)) == len(TINY_LOG.splitlines()) // 5
        assert decoder.buffered_bytes == 0

    def test_id_out_of_range(self):
        blob = bytearray(self.blob())
        # walk_id is the last int64 column; corrupt its final cell
        struct.pack_into("<q", blob, len(blob) - 8, 999)
        with pytest.raises(ChunkError, match="walk_id out of range"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_negative_walk_length(self):
        blob = bytearray(self.blob())
        # TINY_LOG: 3 events, 3 walks of 4 frames; the walk lengths sit
        # just before the nine event columns.  Lengths 8, -4, 8 span
        # the flat frame ids exactly with offsets [0, 8, 4, 12].
        struct.pack_into("<3q", blob, len(blob) - 9 * 3 * 8 - 3 * 8, 8, -4, 8)
        with pytest.raises(ChunkError, match="monotonically"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_reused_frames_out_of_walk_order(self):
        """A later chunk's new walk that reuses frames an earlier chunk
        sent, in an order that contradicts their stack indices."""
        events = parse_fast(TINY_LOG.splitlines())
        encoder = ChunkEncoder()
        first = encoder.encode_events(events)
        reversed_walk = events[0].with_frames(events[0].frames[::-1])
        second = encoder.encode_events([reversed_walk])
        decoder = CaptureChunkDecoder()
        assert records_of(decoder.feed(first)[0]) == list(events)
        with pytest.raises(ChunkError, match="frame_index"):
            decoder.feed(second)

    def test_deeply_nested_report_chunk(self):
        depth = 100_000
        body = b"[" * depth + b"]" * depth
        chunk = (
            struct.pack(">2sBBI", CHUNK_MAGIC, CHUNK_VERSION, CHUNK_REPORT,
                        len(body))
            + body
        )
        with pytest.raises(ChunkError, match="bad report chunk"):
            CaptureChunkDecoder().feed(chunk)

    def test_trailing_garbage_in_body(self):
        blob = self.blob()
        magic, version, kind, body_len = struct.unpack(
            ">2sBBI", blob[:CHUNK_HEADER_SIZE]
        )
        grown = (
            struct.pack(">2sBBI", magic, version, kind, body_len + 3)
            + blob[CHUNK_HEADER_SIZE:]
            + b"\0\0\0"
        )
        with pytest.raises(ChunkError, match="trailing bytes"):
            CaptureChunkDecoder().feed(grown)


class TestFragmentationEquivalence:
    """The tentpole property: any byte fragmentation of the columnar
    stream equals the whole-log text path, for every parse policy."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_boundaries_match_text_path(self, detector, data):
        policy = data.draw(st.sampled_from(["strict", "warn", "drop"]))
        lines = make_log(SCAN_SPECS)
        if policy != "strict":
            # recovery policies must agree on streams that needed them
            where = data.draw(st.integers(0, len(lines)))
            lines = lines[:where] + ["@@corrupt@@"] + lines[where:]
        # both text parses of a warn draw warn about the corrupt line
        expect = pytest.warns(ParseWarning) if policy == "warn" else nullcontext()
        with expect:
            want_rows, want_report = text_reference(detector, lines, policy)
            client_report = ParseReport()
            events = parse_fast(lines, policy=policy, report=client_report)
        chunk_events = data.draw(st.integers(1, 9))
        blob = encode_blob(events, client_report, chunk_events=chunk_events)
        cuts = data.draw(
            st.lists(st.integers(0, len(blob)), max_size=12)
        )
        got_rows, scanner = scan_columnar(detector, blob, cuts)
        assert got_rows == want_rows
        assert scanner.report.to_dict() == want_report.to_dict()

    def test_single_byte_fragments(self, detector):
        lines = make_log(SCAN_SPECS[:6])
        want_rows, want_report = text_reference(detector, lines, "drop")
        report = ParseReport()
        events = parse_fast(lines, policy="drop", report=report)
        blob = encode_blob(events, report, chunk_events=3)
        got_rows, scanner = scan_columnar(
            detector, blob, cuts=range(len(blob))
        )
        assert got_rows == want_rows
        assert scanner.report.to_dict() == want_report.to_dict()
