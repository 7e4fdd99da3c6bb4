"""Streaming scan: equivalence with the batch path, with the per-event
oracle, and bounded memory."""

import time
import warnings

import numpy as np
import pytest

from repro import LeapsConfig, LeapsDetector, ParseReport
from repro.core import streaming
from repro.core.pipeline import LeapsPipeline, NotTrainedError
from repro.etw.fastparse import parse_columns
from repro.etw.parser import ParseError, ParseMachine
from repro.etw.stack_partition import StackPartitionError
from repro.preprocessing.windows import Window, WindowCoalescer

from tests.oracles.features import transform_naive
from tests.oracles.stream_scan import score_stream_naive
from tests.test_windows import assert_same_windows
from tests.test_api import APP, NET, PAYLOAD, SYS, make_log, tiny_training_logs


def tiny_detector(**overrides):
    config = LeapsConfig(
        window_events=2,
        stride=1,
        lam_grid=(10.0,),
        sigma2_grid=(5.0,),
        cv_folds=0,
        max_train_windows=0,
        seed=1,
        **overrides,
    )
    detector = LeapsDetector(config)
    detector.train_from_logs(*tiny_training_logs())
    return detector


def featurize_log(pipeline, lines):
    """Parse + featurize a log with the training-time vocabularies: the
    window metadata and the scaled sample matrix."""
    events = pipeline.parser.parse_lines(lines)
    windows, matrix = pipeline.coalescer.coalesce_with_matrix(
        transform_naive(pipeline.featurizer, events), events
    )
    return windows, pipeline.standardizer.transform(matrix)


SCAN_SPECS = [("read", APP + SYS), ("beacon", PAYLOAD + NET)] * 8


class TestCoalescerStream:
    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_push_block_matches_batch(self, window, stride):
        events = parse_columns(make_log(SCAN_SPECS))
        features = np.arange(events.n_events * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        batch = coalescer.coalesce_arrays(features, events.eid)
        stream = coalescer.push_coalescer().push_block(events.eid, features)
        assert len(stream.start_index) == len(batch.start_index) > 0
        assert_same_windows(stream, batch)

    def test_short_stream_yields_nothing(self):
        coalescer = WindowCoalescer(window_events=10, stride=5)
        events = parse_columns(make_log(SCAN_SPECS[:3]))
        windows = coalescer.push_coalescer().push_block(events.eid, np.zeros((3, 3)))
        assert len(windows.start_index) == 0
        assert windows.matrix.shape == (0, 30)


class TestStreamEquivalence:
    def test_scan_log_is_scan_stream(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        streamed = list(detector.scan_stream(lines))
        assert detector.scan_log(lines) == streamed
        # exact Python scalars, not floats that merely compare equal
        assert {
            tuple(type(value) for value in tuple(detection))
            for detection in streamed
        } == {(int, int, int, float, bool)}

    def test_stream_matches_batch_reference_bit_identically(self):
        """With the whole log in one scoring chunk, the streaming path
        reproduces the historical batch scores bit for bit."""
        detector = tiny_detector(stream_chunk_windows=1 << 20)
        lines = make_log(SCAN_SPECS)
        windows, matrix = featurize_log(detector.pipeline, lines)
        reference = detector.pipeline.model.decision_function(matrix)
        streamed = list(detector.scan_stream(lines))
        assert len(streamed) == len(windows)
        for detection, window, score in zip(streamed, windows, reference):
            assert detection.index == window.start_index
            assert detection.start_eid == window.start_eid
            assert detection.end_eid == window.end_eid
            assert detection.score == float(score)

    def test_chunked_stream_matches_batch_reference(self):
        """Tiny chunks exercise multi-batch scoring; scores agree with
        the full-batch reference to float64 noise."""
        detector = tiny_detector(stream_chunk_windows=3)
        lines = make_log(SCAN_SPECS)
        _, matrix = featurize_log(detector.pipeline, lines)
        reference = detector.pipeline.model.decision_function(matrix)
        streamed = [d.score for d in detector.scan_stream(lines)]
        np.testing.assert_allclose(streamed, reference, rtol=0, atol=1e-12)

    def test_stream_accepts_pure_iterator(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        from_list = detector.scan_log(lines)
        from_iter = list(detector.scan_stream(iter(lines)))
        assert from_iter == from_list


class TestStreamIngestion:
    def test_policy_and_report_reach_the_parser(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        corrupt = lines[:9] + ["@@corrupt@@"] + lines[9:]
        report = ParseReport()
        detections = list(
            detector.scan_stream(corrupt, report=report, policy="drop")
        )
        assert detections
        assert report.n_issues == 1
        assert report.lines_accounted == report.total_lines == len(corrupt)

    def test_strict_default_raises_on_corrupt_stream(self):
        from repro.etw.parser import ParseError

        detector = tiny_detector()
        corrupt = ["@@corrupt@@"] + make_log(SCAN_SPECS)
        with pytest.raises(ParseError):
            list(detector.scan_stream(corrupt))

    def test_config_policy_is_stream_default(self):
        detector = tiny_detector(parse_policy="drop")
        corrupt = ["@@corrupt@@"] + make_log(SCAN_SPECS)
        assert list(detector.scan_stream(corrupt))

    def test_not_trained_raises_eagerly(self):
        pipeline = LeapsPipeline()
        with pytest.raises(NotTrainedError):
            pipeline.score_stream([])  # no iteration needed
        with pytest.raises(NotTrainedError):
            LeapsDetector().scan_stream([])

    def test_unknown_policy_raises_eagerly(self):
        with pytest.raises(ValueError, match="unknown parse policy"):
            tiny_detector().scan_stream([], policy="lenient")

    def test_text_parse_counts_as_decode(self, monkeypatch):
        """``decode_s`` is bytes → events in the text wire mode too: the
        parser's time is in it."""
        scanner = streaming.StreamScanner("s", tiny_detector().pipeline)
        feed = scanner.parser.feed_lines

        def slow_feed(*args, **kwargs):
            time.sleep(0.02)
            return feed(*args, **kwargs)

        monkeypatch.setattr(scanner.parser, "feed_lines", slow_feed)
        scanner.feed_bytes(("\n".join(make_log(SCAN_SPECS)) + "\n").encode())
        assert scanner.events_seen == len(SCAN_SPECS) - 1  # last one held
        assert scanner.decode_s >= 0.02


class TestScoreChunks:
    def test_batched_chunks_score_as_each_alone(self):
        """Whole-tile chunks of many streams, and short final tiles of
        equal and unequal lengths, under two models with different
        tiles: one batched ``score_chunks`` call scores every chunk as
        it scores alone."""
        pipelines = [
            tiny_detector(stream_chunk_windows=tile).pipeline for tile in (4, 3)
        ]
        chunks = []
        for n, events in enumerate((7, 11, 15, 16, 23, 30, 9, 19)):
            lines = make_log((SCAN_SPECS * 2)[:events])
            scanner = streaming.StreamScanner(f"s{n}", pipelines[n % 2])
            for start in range(0, len(lines), 15):
                scanner.feed_lines(lines[start : start + 15])
                chunks += scanner.take_ready()
            scanner.finish()
            chunks += scanner.take_ready()
        short = [
            (id(chunk.pipeline), len(chunk.times)) for chunk in chunks
            if len(chunk.times) % chunk.pipeline.config.stream_chunk_windows
        ]
        assert len(set(short)) < len(short) and len(set(short)) > 2
        batched = streaming.score_chunks(chunks)
        for chunk, scores in zip(chunks, batched):
            (alone,) = streaming.score_chunks([chunk])
            assert np.array_equal(scores, alone)


#: corrupt lines the oracle property test splices into a log: a foreign
#: tag (the open event survives it) and a short EVENT line (it drops the
#: open event under strict policy)
CORRUPT_LINES = ("@@corrupt@@", "EVENT|1|2")
#: an app frame below a system frame: parses, but does not partition
UNPARTITIONABLE = ("read", SYS[:1] + APP)


def window_pairs(scan):
    """A chunk scan (``score_stream``) as the oracle's ``(window,
    score)`` pairs."""
    def pairs(*args, **kwargs):
        for windows, scores in scan(*args, **kwargs):
            yield from zip(
                map(Window, windows.start_index.tolist(),
                    windows.start_eid.tolist(), windows.end_eid.tolist(),
                    windows.matrix),
                scores,
            )
    return pairs


def oracle_outcome(scan, *args, **kwargs):
    """Drain one scan; returns (pairs, error) with pairs as plain tuples."""
    pairs, error = [], None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for window, score in scan(*args, **kwargs):
                pairs.append(
                    (window.start_index, window.start_eid, window.end_eid,
                     window.vector.tobytes(), float(score))
                )
        except (ParseError, StackPartitionError) as caught:
            error = caught
    return pairs, error


class TestOracleEquivalence:
    """``score_stream`` ≡ the per-event chain of ``tests/oracles``:
    same pairs bit for bit, same error after the same pairs, same
    report — for any feed size and scoring chunk."""

    @pytest.fixture(scope="class")
    def pipelines(self):
        return {
            chunk: tiny_detector(stream_chunk_windows=chunk).pipeline
            for chunk in (1, 3, 256)
        }

    def check(self, pipeline, lines, policy):
        report, oracle_report = ParseReport(), ParseReport()
        got, error = oracle_outcome(
            window_pairs(pipeline.score_stream), lines, report=report,
            policy=policy,
        )
        want, oracle_error = oracle_outcome(
            score_stream_naive, pipeline, lines, report=oracle_report,
            policy=policy,
        )
        assert got == want
        assert type(error) is type(oracle_error)
        if isinstance(oracle_error, StackPartitionError):
            # the report reflects how far the parser had read, and the
            # block scanner reads a feed ahead of the per-event chain
            assert str(error) == str(oracle_error)
            return
        if oracle_error is not None:
            assert (error.kind, error.lineno) == (
                oracle_error.kind, oracle_error.lineno,
            )
        assert report.to_dict() == oracle_report.to_dict()

    @pytest.mark.parametrize("feed", [1, 7, streaming.FEED_LINES])
    @pytest.mark.parametrize("policy", ["strict", "warn", "drop"])
    def test_corrupt_line_anywhere(self, pipelines, monkeypatch, feed, policy):
        monkeypatch.setattr(streaming, "FEED_LINES", feed)
        base = make_log(SCAN_SPECS * 2)
        for chunk, pipeline in pipelines.items():
            self.check(pipeline, base, policy)
            for position in range(0, len(base) + 1, 13):
                for corrupt in CORRUPT_LINES:
                    lines = base[:position] + [corrupt] + base[position:]
                    self.check(pipeline, lines, policy)

    @pytest.mark.parametrize("feed", [1, 7, streaming.FEED_LINES])
    def test_unpartitionable_walk(self, pipelines, monkeypatch, feed):
        monkeypatch.setattr(streaming, "FEED_LINES", feed)
        for chunk, pipeline in pipelines.items():
            for position in (0, 1, 5, 10, 17, 31):
                specs = list(SCAN_SPECS * 2)
                specs[position] = UNPARTITIONABLE
                self.check(pipeline, make_log(specs), "drop")


@pytest.mark.e2e
class TestGoldenEquivalence:
    """scan_stream ≡ scan_log ≡ the per-event oracle on a generated
    catalog row."""

    LOGS = ("benign.log", "mixed.log", "malicious.log")

    @pytest.fixture(scope="class")
    def trained(self, generated_row):
        config = LeapsConfig(
            window_events=10,
            stride=5,
            lam_grid=(1.0,),
            sigma2_grid=(30.0,),
            cv_folds=0,
            max_train_windows=400,
            seed=0,
            # several scoring chunks per log
            stream_chunk_windows=64,
        )
        detector = LeapsDetector(config)
        detector.fit_logs(
            [generated_row / "benign.log"], [generated_row / "mixed.log"]
        )
        return detector

    @pytest.mark.parametrize("log", LOGS)
    def test_stream_equals_log_and_oracle(self, trained, generated_row, log):
        lines = (generated_row / log).read_text().splitlines()
        streamed = list(trained.scan_stream(lines))
        assert len(streamed) > trained.config.stream_chunk_windows
        assert streamed == trained.scan_log(lines)
        want, error = oracle_outcome(score_stream_naive, trained.pipeline, lines)
        assert error is None
        assert [
            (d.index, d.start_eid, d.end_eid, d.score) for d in streamed
        ] == [pair[:3] + pair[4:] for pair in want]

    @pytest.mark.parametrize("log", LOGS)
    def test_stream_equals_batch_reference(self, trained, generated_row, log):
        """Non-vacuous check: the incremental path reproduces the
        independent batch computation (featurize the whole log, score
        each ``stream_chunk_windows`` slice of its matrix) bit for bit."""
        lines = (generated_row / log).read_text().splitlines()
        windows, matrix = featurize_log(trained.pipeline, lines)
        chunk = trained.config.stream_chunk_windows
        reference = np.concatenate([
            trained.pipeline.model.decision_function(matrix[start : start + chunk])
            for start in range(0, len(matrix), chunk)
        ])
        streamed = list(trained.scan_stream(lines))
        assert [d.score for d in streamed] == [float(s) for s in reference]
        assert [d.index for d in streamed] == [w.start_index for w in windows]

    def test_open_file_stays_on_the_block_path(
        self, trained, generated_row, monkeypatch
    ):
        """File iteration keeps each line's newline; the scan strips it,
        so only the final event block — the holdback at end of input —
        reaches the scalar machine."""
        path = generated_row / "malicious.log"
        lines = path.read_text().splitlines()
        final_block = max(
            position
            for position, line in enumerate(lines)
            if line.startswith("EVENT|")
        )
        fed = []
        feed = ParseMachine.feed

        def recording_feed(machine, raw):
            fed.append(raw)
            return feed(machine, raw)

        monkeypatch.setattr(ParseMachine, "feed", recording_feed)
        with open(path) as handle:
            streamed = list(trained.scan_stream(handle))
        assert fed == lines[final_block:]
        assert streamed == trained.scan_log(lines)


class TestBoundedMemory:
    N_EVENTS = 30_000

    def big_log_lines(self):
        """A pure generator over a log larger than any pending buffer."""
        for eid in range(self.N_EVENTS):
            name, stack = SCAN_SPECS[eid % len(SCAN_SPECS)]
            yield f"EVENT|{eid}|{eid * 1000}|1000|app.exe|4|SYSCALL_ENTER|1|{name}"
            for depth, (module, function) in enumerate(stack):
                yield (
                    f"STACK|{eid}|{depth}|{module}|{function}|"
                    f"0x{0x400000 + depth * 0x40:x}"
                )

    def test_streams_a_log_larger_than_the_window_deque(self):
        detector = tiny_detector()
        count = sum(1 for _ in detector.scan_stream(self.big_log_lines()))
        # window=2, stride=1 → one window per event after the first
        assert count == self.N_EVENTS - 1

    def test_detections_yield_before_input_is_exhausted(self):
        """First verdicts must surface after one feed or ~one scoring
        tile of events, whichever is longer, not after the whole log —
        the streaming property."""
        detector = tiny_detector()  # stream_chunk_windows=16
        consumed = 0

        def counting_lines():
            nonlocal consumed
            for line in self.big_log_lines():
                consumed += 1
                yield line

        stream = detector.scan_stream(counting_lines())
        next(stream)
        lines_per_event = 1 + len(SCAN_SPECS[0][1])
        budget = max(
            streaming.FEED_LINES,
            2 * detector.config.stream_chunk_windows * lines_per_event,
        )
        assert consumed <= budget < self.N_EVENTS * lines_per_event
