"""Scan fast path: vectorized featurization and the parallel fleet scan.

The fast path must be invisible in the results: ``transform`` over a
whole log equals the rows of each event featurized alone
(``tests/oracles/features.py``) bit for bit, ``transform_columns`` over
columns equals those rows of their records, ``scan_log`` equals the
streaming scan, and ``scan_logs`` returns the same detections for any
worker count and for either storage form of a log.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LeapsDetector, ScanResult
from repro.core.pipeline import NotTrainedError
from repro.etw.capture import load_capture
from repro.etw.events import EventColumns
from repro.etw.parser import RawLogParser, iter_parse
from repro.etw.stack_partition import StackPartitionError
from repro.preprocessing.features import EventFeaturizer

from tests.conftest import TINY_LOG
from tests.oracles.features import transform_naive
from tests.test_api import APP, NET, PAYLOAD, SYS, make_log
from tests.test_stream_scan import SCAN_SPECS, tiny_detector

#: the logs of the session's generated catalog row
GENERATED_LOGS = ("benign", "mixed", "malicious")

#: TINY_LOG's three walks, then two that fail to partition (reversed,
#: each puts app frames below system frames, with different messages)
_TINY_WALKS = [event.frames for event in iter_parse(TINY_LOG.splitlines())]
WALKS = _TINY_WALKS + [walk[::-1] for walk in _TINY_WALKS[:2]]
INT64_MAX = 2**63 - 1
OPCODES = st.sampled_from([0, 3, 7, INT64_MAX, -INT64_MAX, -INT64_MAX - 1])
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
    cols.category_id, cols.opcode, cols.name_id, cols.walk_id = (
        np.array(field, dtype=np.int64) for field in fields
    )
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
        with pytest.raises(RuntimeError, match="before fit"):
            EventFeaturizer().transform_columns(EventColumns())

    @settings(max_examples=150, deadline=None)
    @given(events=st.lists(EVENTS, max_size=40), n_fit=st.integers(0, 40))
    # extreme opcodes, both failing walks in the table but unused
    @example(
        events=[(0, INT64_MAX, 0, 0), (1, -INT64_MAX, 1, 1), (1, 7, 1, 1)],
        n_fit=2,
    )
    # used failing walks: the second event's fails first
    @example(events=[(0, 3, 0, 0), (1, 3, 1, 4), (2, 3, 2, 3)], n_fit=1)
    @example(events=[], n_fit=0)
    def test_columns_match_records(self, events, n_fit):
        """``transform_columns`` equals the per-event rows of the records,
        or raises the same ``StackPartitionError`` with the same
        message.  The featurizer is fitted on a prefix of the events'
        partitionable records, so some attributes are unknown."""
        cols = event_columns(events)
        records = cols.records()
        featurizer = EventFeaturizer().fit(
            [r for r in records[:n_fit] if r.frames in _TINY_WALKS]
        )
        try:
            want = transform_naive(featurizer, records)
        except StackPartitionError as error:
            with pytest.raises(StackPartitionError) as raised:
                featurizer.transform_columns(cols)
            assert str(raised.value) == str(error)
            return
        got = featurizer.transform_columns(cols)
        assert got.shape == (len(events), 3) and got.dtype == float
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stem", GENERATED_LOGS)
def test_transform_matches_event_rows_on_golden_heads(generated_row, stem):
    """Property over every generated log: the vectorized batch path
    and per-event transforms produce bit-identical rows, and so does
    the log's capture through its columns."""
    events = RawLogParser().parse_lines(
        (generated_row / f"{stem}.log").read_text().splitlines()
    )
    assert events
    featurizer = EventFeaturizer().fit(events)
    batch = featurizer.transform(events)
    rows = TestVectorizedTransform.event_rows(featurizer, events)
    assert np.array_equal(batch, rows), stem
    capture = load_capture(generated_row / f"{stem}.leapscap")
    assert np.array_equal(featurizer.transform_columns(capture.columns), batch)


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

    def test_score_events_chunking_is_invisible(self):
        """Chunked scoring (tiny chunks) and one-chunk scoring agree to
        float64 noise, and identical chunk sizes are bit-identical."""
        small = tiny_detector(stream_chunk_windows=3)
        big = tiny_detector(stream_chunk_windows=1 << 20)
        events = RawLogParser().parse_lines(make_log(SCAN_SPECS))
        _, chunked = small.pipeline.score_events(events)
        _, whole = big.pipeline.score_events(events)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


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
        # the captures scan from their columns, by path and (in the
        # pool) by the path reference of a loaded capture's records
        captures = [str(Path(path).with_suffix(".leapscap")) for path in paths]
        loaded = [load_capture(path).events for path in captures]
        for fleet, n_jobs in ((captures, 1), (captures, 2), (loaded, 2)):
            results = detector.scan_logs(fleet, n_jobs=n_jobs)
            assert [r.detections for r in results] == want
            assert [r.source for r in results] == captures
        for path, detections in zip(paths, want):
            with open(path) as handle:
                assert list(detector.scan_stream(handle)) == detections


class TestCaptureFleetScan:
    """``.leapscap`` inputs through the fleet scan: in-memory capture
    EventLogs reroute to the process pool as path references (the
    worker re-reads the columnar file instead of unpickling events)."""

    @pytest.fixture(scope="class")
    def detector(self):
        return tiny_detector()

    @pytest.fixture(scope="class")
    def capture_fixture(self, tmp_path_factory):
        from repro.etw.capture import load_capture, write_capture

        lines = make_log(SCAN_SPECS)
        events = RawLogParser().parse_lines(lines)
        path = write_capture(
            tmp_path_factory.mktemp("caps") / "fleet.leapscap", events
        )
        return lines, str(path), load_capture(path)

    def test_loaded_capture_carries_source(self, capture_fixture):
        _, path, capture = capture_fixture
        assert capture.events.source == path

    @pytest.mark.parametrize("n_jobs", [2], ids=["process"])
    def test_capture_eventlog_parallel_equals_serial(
        self, detector, capture_fixture, n_jobs
    ):
        lines, path, capture = capture_fixture
        want = detector.scan_log(lines)
        results = detector.scan_logs(
            [capture.events, path, lines], n_jobs=n_jobs
        )
        assert [r.detections for r in results] == [want, want, want]
        # the rerouted EventLog keeps its capture provenance
        assert results[0].source == path
        assert results[1].source == path
        assert results[2].source is None

    def test_capture_ref_detects_changed_capture(
        self, detector, capture_fixture
    ):
        from repro.core.detector import _CaptureRef

        _, path, capture = capture_fixture
        stale = _CaptureRef(path, n_events=len(capture.events) + 1)
        with pytest.raises(RuntimeError, match="changed during the scan"):
            detector._scan_job(None, stale, None, False)

    def test_eventlog_pickles_with_report_and_source(self, capture_fixture):
        import pickle

        _, path, capture = capture_fixture
        clone = pickle.loads(pickle.dumps(capture.events))
        assert list(clone) == list(capture.events)
        assert clone.source == path
        assert (clone.report is None) == (capture.events.report is None)
        if clone.report is not None:
            assert clone.report.to_dict() == capture.events.report.to_dict()
