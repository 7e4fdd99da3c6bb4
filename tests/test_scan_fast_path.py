"""Scan fast path: vectorized featurization and the parallel fleet scan.

The fast path must be invisible in the results: ``transform`` over a
whole log equals the rows of each event featurized alone
(``tests/oracles/features.py``) bit for bit, and so do the scan
featurizer ``StreamFeatures`` over columns, whole or in blocks, and
``transform_columns`` over their attribute table; ``scan_log`` equals
the streaming scan, and ``scan_logs`` returns the same detections for
any worker count and for either storage form of a log.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LeapsDetector, ScanResult
from repro.core import streaming
from repro.core.pipeline import NotTrainedError
from repro.etw.capture import load_capture
from repro.etw.events import EventColumns
from repro.etw.fastparse import parse_columns
from repro.etw.parser import RawLogParser, iter_parse
from repro.etw.stack_partition import StackPartitionError
from repro.preprocessing.features import EventFeaturizer, StreamFeatures

from tests.conftest import TINY_LOG
from tests.oracles.features import transform_naive
from tests.oracles.stream_scan import score_stream_naive
from tests.test_api import APP, NET, PAYLOAD, SYS, make_log
from tests.test_stream_scan import SCAN_SPECS, oracle_outcome, tiny_detector

#: the logs of the session's generated catalog row
GENERATED_LOGS = ("benign", "mixed", "malicious")

#: TINY_LOG's three walks, then two that fail to partition (reversed,
#: each puts app frames below system frames, with different messages)
_TINY_WALKS = [event.frames for event in iter_parse(TINY_LOG.splitlines())]
WALKS = _TINY_WALKS + [walk[::-1] for walk in _TINY_WALKS[:2]]
INT64_MAX = 2**63 - 1
#: opcodes at the int64 limits, and past them (an object column)
OPCODES = st.sampled_from(
    [0, 3, 7, INT64_MAX, -INT64_MAX, -INT64_MAX - 1, 2**64 + 5, -(2**70)]
)
#: one event as (category id, opcode, name id, walk id)
EVENTS = st.tuples(
    st.integers(0, 2),
    OPCODES | st.integers(-INT64_MAX - 1, INT64_MAX),
    st.integers(0, 2),
    st.integers(0, len(WALKS) - 1),
)


def event_columns(events):
    """Hand-built columns over fixed tables: ``events`` as above."""
    n = len(events)
    cols = EventColumns()
    cols.n_events = n
    cols.eid = np.arange(n, dtype=np.int64)
    cols.timestamp = cols.eid * 1000
    cols.pid = np.full(n, 1000, dtype=np.int64)
    cols.tid = np.full(n, 4, dtype=np.int64)
    cols.process_id = np.zeros(n, dtype=np.int64)
    fields = list(zip(*events)) or [()] * 4
    cols.category_id, cols.name_id, cols.walk_id = (
        np.array(fields[column], dtype=np.int64) for column in (0, 2, 3)
    )
    try:
        cols.opcode = np.array(fields[1], dtype=np.int64)
    except OverflowError:  # as the text parsers store such a column
        cols.opcode = np.array(fields[1], dtype=object)
    cols.process_vocab = ["app.exe"]
    cols.category_vocab = ["FILE_IO_READ", "TCP_SEND", "UI_MESSAGE"]
    cols.name_vocab = ["read_config", "send_data", "ui_get_message"]
    cols.walks = WALKS
    return cols


class TestVectorizedTransform:
    def fitted(self, events):
        return EventFeaturizer().fit(events)

    @staticmethod
    def event_rows(featurizer, events):
        return transform_naive(featurizer, events)

    def test_matches_stacked_transform_event_rows(self):
        events = RawLogParser().parse_lines(make_log(SCAN_SPECS))
        featurizer = self.fitted(events)
        batch = featurizer.transform(events)
        rows = self.event_rows(featurizer, events)
        assert batch.shape == (len(events), 3)
        assert np.array_equal(batch, rows)

    def test_unseen_attributes_hit_unknown_id(self):
        featurizer = self.fitted(
            RawLogParser().parse_lines(make_log([("read", APP + SYS)] * 4))
        )
        novel = RawLogParser().parse_lines(make_log([("beacon", PAYLOAD + NET)] * 2))
        batch = featurizer.transform(novel)
        rows = self.event_rows(featurizer, novel)
        assert np.array_equal(batch, rows)
        assert (batch[:, 1] == 0).all()  # app signature never trained

    def test_empty_transform_shape(self):
        featurizer = self.fitted(
            RawLogParser().parse_lines(make_log([("read", APP + SYS)] * 4))
        )
        assert featurizer.transform([]).shape == (0, 3)

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            EventFeaturizer().transform([])

    def test_unfitted_transform_columns_raises(self):
        featurizer = EventFeaturizer()
        table = featurizer.attribute_table(EventColumns())
        with pytest.raises(RuntimeError, match="before fit"):
            featurizer.transform_columns(table)

    @settings(max_examples=150, deadline=None)
    @given(
        events=st.lists(EVENTS, max_size=40),
        n_fit=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    # extreme opcodes, both failing walks in the table but unused
    @example(
        events=[(0, INT64_MAX, 0, 0), (1, -INT64_MAX, 1, 1), (1, 7, 1, 1)],
        n_fit=2,
        cuts=[],
    )
    # used failing walks: the second event's fails first
    @example(events=[(0, 3, 0, 0), (1, 3, 1, 4), (2, 3, 2, 3)], n_fit=1, cuts=[2])
    # each block's one event type packs to the same block-relative key,
    # but only the first is known
    @example(events=[(0, 3, 0, 0), (0, 7, 0, 0)], n_fit=1, cuts=[1])
    # an object opcode column in the second block only
    @example(events=[(0, 3, 0, 0), (0, 2**64 + 5, 0, 0)], n_fit=1, cuts=[1])
    @example(events=[], n_fit=0, cuts=[])
    def test_columns_match_records(self, events, n_fit, cuts):
        """``StreamFeatures`` over the columns — whole, and cut into
        blocks that share the tables — equals the per-event rows of the
        records; when a walk does not partition, it returns the rows
        before the first such event and the per-event path's
        ``StackPartitionError``, with the same message.
        ``transform_columns`` of the columns' attribute table equals
        the rows, or raises that error.  The featurizer is fitted on a
        prefix of the events' partitionable records, so some attributes
        are unknown."""
        cols = event_columns(events)
        records = cols.records()
        featurizer = EventFeaturizer().fit(
            [r for r in records[:n_fit] if r.frames in _TINY_WALKS]
        )
        stop = next(
            (n for n, r in enumerate(records) if r.frames not in _TINY_WALKS),
            len(records),
        )
        want = transform_naive(featurizer, records[:stop])
        error = None
        if stop < len(records):
            with pytest.raises(StackPartitionError) as raised:
                transform_naive(featurizer, records)
            error = str(raised.value)
            with pytest.raises(StackPartitionError) as raised:
                featurizer.transform_columns(featurizer.attribute_table(cols))
            assert str(raised.value) == error
        else:
            got = featurizer.transform_columns(featurizer.attribute_table(cols))
            assert got.shape == (len(events), 3) and got.dtype == float
            assert np.array_equal(got, want)

        bounds = [0, *sorted(min(cut, len(events)) for cut in cuts), len(events)]
        for blocks in ([cols], [cols.rows(*pair) for pair in zip(bounds, bounds[1:])]):
            stream, rows, failed = StreamFeatures(featurizer), [], None
            for block in blocks:
                got, failed = stream.transform(block)
                assert got.dtype == float and got.shape[1] == 3
                rows.append(got)
                if failed is not None:
                    break
            assert np.array_equal(np.concatenate(rows), want)
            assert (failed and str(failed)) == error


@pytest.mark.parametrize("stem", GENERATED_LOGS)
def test_transform_matches_event_rows_on_golden_heads(generated_row, stem):
    """Property over every generated log: the per-event transform, the
    record path's attribute table, and the scan featurizer over the
    log's capture columns — whole, and in blocks that share its tables
    — produce bit-identical rows."""
    events = RawLogParser().parse_lines(
        (generated_row / f"{stem}.log").read_text().splitlines()
    )
    assert events
    featurizer = EventFeaturizer().fit(events)
    batch = featurizer.transform(events)
    rows = TestVectorizedTransform.event_rows(featurizer, events)
    assert np.array_equal(batch, rows), stem
    columns = load_capture(generated_row / f"{stem}.leapscap").columns
    whole, error = StreamFeatures(featurizer).transform(columns)
    assert error is None and np.array_equal(whole, batch)
    stream = StreamFeatures(featurizer)
    blocks = [
        stream.transform(columns.rows(start, start + 250))
        for start in range(0, columns.n_events, 250)
    ]
    assert all(error is None for _, error in blocks)
    assert np.array_equal(np.concatenate([got for got, _ in blocks]), batch)


class TestScanLogFastPath:
    def test_scan_log_equals_stream_bit_identically(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        assert detector.scan_log(lines) == list(detector.scan_stream(lines))

    def test_eids_past_int64_scan_as_in_the_stream(self):
        """The text parser bounds no integer field, so a record scan's
        eids may not fit the int64 eid array of a capture."""
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS, start_eid=INT64_MAX - 4)
        assert detector.scan_log(lines) == list(detector.scan_stream(lines))

    def test_scan_log_accepts_iterator(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        assert detector.scan_log(iter(lines)) == detector.scan_log(lines)

    def test_scan_log_chunking_is_invisible(self):
        """Chunked scoring (tiny tiles) and one-tile scoring agree to
        float64 noise over the same windows, and at either tile
        ``scan_log`` equals ``scan_stream`` bit for bit."""
        lines = make_log(SCAN_SPECS)
        small = tiny_detector(stream_chunk_windows=3)
        big = tiny_detector(stream_chunk_windows=1 << 20)
        chunked, whole = small.scan_log(lines), big.scan_log(lines)
        assert len(chunked) == len(SCAN_SPECS) - 1
        assert [d[:3] for d in chunked] == [d[:3] for d in whole]
        np.testing.assert_allclose(
            [d.score for d in chunked], [d.score for d in whole], rtol=0, atol=1e-12
        )
        for detector, detections in ((small, chunked), (big, whole)):
            assert detections == list(detector.scan_stream(lines))

    def test_one_kernel_call_per_log(self, monkeypatch):
        """A log's whole tiles and its short final tile share one
        ``decision_tiles`` call."""
        detector = tiny_detector(stream_chunk_windows=4)
        model = detector.pipeline.model
        calls = []

        def counting(X, tile):
            calls.append((len(X), tile))
            return type(model).decision_tiles(model, X, tile)

        monkeypatch.setattr(model, "decision_tiles", counting)
        detections = detector.scan_log(make_log(SCAN_SPECS))
        assert len(detections) % 4 and calls == [(len(detections), 4)]

    @pytest.mark.parametrize("feed", [7, streaming.FEED_LINES])
    def test_opcodes_past_int64_scan_as_in_the_stream(self, monkeypatch, feed):
        """A text log whose opcodes lie outside int64 parses to an object
        opcode column; ``scan_log``, ``scan_stream`` (whose blocks mix
        int64 and object columns) and the per-event oracle agree."""
        monkeypatch.setattr(streaming, "FEED_LINES", feed)
        opcodes = iter([1, 2**64 + 1, 1, -(2**70), 2**64 + 1, 1, 1, 1] * 4)
        lines = [
            line.replace("|SYSCALL_ENTER|1|", f"|SYSCALL_ENTER|{next(opcodes)}|")
            if line.startswith("EVENT|") else line
            for line in make_log(SCAN_SPECS * 2)
        ]
        assert parse_columns(lines).opcode.dtype == object
        detector = tiny_detector()
        detections = detector.scan_log(lines)
        assert detections == list(detector.scan_stream(lines))
        want, error = oracle_outcome(score_stream_naive, detector.pipeline, lines)
        assert error is None
        assert [tuple(d[:4]) for d in detections] == [
            pair[:3] + pair[4:] for pair in want
        ]
        assert len({d.score for d in detections}) > 2


class TestFleetScan:
    @pytest.fixture(scope="class")
    def detector(self):
        return tiny_detector()

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        """Three distinct on-disk logs: benign, mixed, payload-only."""
        root = tmp_path_factory.mktemp("fleet")
        logs = {
            "clean.log": make_log([("read", APP + SYS)] * 8),
            # blocked layout: some windows are purely benign, some not
            "mixed.log": make_log(
                [("read", APP + SYS)] * 4
                + [("beacon", PAYLOAD + NET)] * 4
                + [("read", APP + SYS)] * 4
            ),
            "owned.log": make_log([("beacon", PAYLOAD + NET)] * 8),
        }
        paths = []
        for name, lines in logs.items():
            path = root / name
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        return paths

    def test_serial_matches_scan_log(self, detector, fleet):
        results = detector.scan_logs(fleet)
        assert [r.source for r in results] == fleet
        for result, path in zip(results, fleet):
            with open(path) as handle:
                assert result.detections == detector.scan_log(handle)

    # the fleet scan's pool is a process pool
    @pytest.mark.parametrize("n_jobs", [2, 3], ids=["2-process", "3-process"])
    def test_parallel_equals_serial(self, detector, fleet, n_jobs):
        serial = detector.scan_logs(fleet)
        parallel = detector.scan_logs(fleet, n_jobs=n_jobs)
        assert [r.source for r in parallel] == [r.source for r in serial]
        assert [r.detections for r in parallel] == [r.detections for r in serial]

    def test_accepts_iterables_and_paths_mixed(self, detector, fleet):
        lines = make_log(SCAN_SPECS)
        results = detector.scan_logs([lines, fleet[0], iter(lines)])
        assert [r.source for r in results] == [None, fleet[0], None]
        assert results[0].detections == results[2].detections == detector.scan_log(lines)

    def test_whole_log_bytes_items(self, detector):
        """A whole log's bytes is one log, as for scan_log and fit_logs."""
        data = ("\n".join(make_log(SCAN_SPECS)) + "\n").encode()
        want = detector.scan_log(data)
        assert want
        (result,) = detector.scan_logs([data])
        assert result.source is None
        assert result.detections == want
        results = detector.scan_logs([data, data], n_jobs=2)
        assert [r.detections for r in results] == [want, want]

    def test_flagged_property(self, detector, fleet):
        clean, mixed, owned = detector.scan_logs(fleet)
        assert clean.flagged == 0
        assert owned.flagged == len(owned.detections) > 0
        assert 0 < mixed.flagged < len(mixed.detections)

    def test_with_reports_accounts_every_line(self, detector, tmp_path):
        lines = make_log(SCAN_SPECS)
        corrupt = lines[:9] + ["@@corrupt@@"] + lines[9:]
        path = tmp_path / "corrupt.log"
        path.write_text("\n".join(corrupt) + "\n")
        (result,) = detector.scan_logs(
            [str(path)], policy="drop", with_reports=True
        )
        assert result.report is not None
        assert result.report.n_issues == 1
        assert result.report.lines_accounted == result.report.total_lines
        assert result.detections

    def test_reports_cross_process_boundary(self, detector, tmp_path):
        lines = make_log(SCAN_SPECS)
        path = tmp_path / "a.log"
        path.write_text("\n".join(lines) + "\n")
        results = detector.scan_logs(
            [str(path), str(path)], n_jobs=2, with_reports=True,
        )
        for result in results:
            assert result.report.events_yielded == len(SCAN_SPECS)

    def test_without_reports_report_is_none(self, detector, fleet):
        assert all(r.report is None for r in detector.scan_logs(fleet))

    def test_empty_fleet(self, detector):
        assert detector.scan_logs([]) == []
        assert detector.scan_logs([], n_jobs=4) == []

    def test_rejects_bad_arguments(self, detector, fleet):
        with pytest.raises(ValueError, match="n_jobs"):
            detector.scan_logs(fleet, n_jobs=0)

    def test_untrained_raises_before_reading_logs(self):
        with pytest.raises(NotTrainedError):
            LeapsDetector().scan_logs(["/nonexistent/never-touched.log"])

    def test_scan_result_is_importable_dataclass(self):
        result = ScanResult(source=None)
        assert result.detections == []
        assert result.flagged == 0


@pytest.mark.e2e
class TestGoldenFleetScan:
    def test_parallel_fleet_scan_matches_serial_on_golden_logs(
        self, generated_row
    ):
        from repro import LeapsConfig

        config = LeapsConfig(
            lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0,
            max_train_windows=400, seed=0,
        )
        detector = LeapsDetector(config)
        detector.train_from_logs(
            (generated_row / "benign.log").read_text().splitlines(),
            (generated_row / "mixed.log").read_text().splitlines(),
        )
        paths = [str(generated_row / f"{stem}.log") for stem in GENERATED_LOGS]
        serial = detector.scan_logs(paths)
        process = detector.scan_logs(paths, n_jobs=2)
        want = [r.detections for r in serial]
        assert [r.detections for r in process] == want
        assert all(want)
        # the captures scan from their columns, by path
        captures = [str(Path(path).with_suffix(".leapscap")) for path in paths]
        for n_jobs in (1, 2):
            results = detector.scan_logs(captures, n_jobs=n_jobs)
            assert [r.detections for r in results] == want
            assert [r.source for r in results] == captures
        for path, detections in zip(paths, want):
            with open(path) as handle:
                assert list(detector.scan_stream(handle)) == detections

