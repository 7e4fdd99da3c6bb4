"""Columnar capture format: round-trip fidelity, validation, wiring.

The capture is only useful if it is *invisible*: loading a
``.leapscap`` must reproduce the exact events (and recovery
accounting) that parsing the original text produced — property-tested
here on synthetic logs, the fault-injection corpus, and every golden
log head when the dataset cache is present.
"""

import json

import numpy as np
import pytest

from repro.etw.capture import (
    SCHEMA,
    Capture,
    CaptureError,
    CaptureVersionError,
    convert_log,
    is_capture_path,
    iter_capture,
    load_capture,
    read_capture,
    write_capture,
)
from repro.etw.events import EventLog
from repro.etw.parser import (
    RawLogParser,
    iter_parse,
    read_log_lines,
    serialize_events,
)
from repro.etw.recovery import ParseReport

from tests.conftest import HAS_GOLDEN_DATA, TINY_LOG
from tests.faults import fault_corpus
from tests.oracles.capture import write_capture_naive


def roundtrip(tmp_path, lines, policy="drop", name="log"):
    """text → file → convert_log → load_capture, plus the reference
    scalar parse of the same text under the same policy."""
    src = tmp_path / f"{name}.log"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capture_path = convert_log(src, policy=policy)
    capture = load_capture(capture_path)
    reference_report = ParseReport()
    reference = list(
        iter_parse(read_log_lines(src), policy=policy, report=reference_report)
    )
    return capture, reference, reference_report


class TestRoundTrip:
    def test_clean_log_bit_identical(self, tmp_path):
        lines = TINY_LOG.splitlines()
        capture, reference, reference_report = roundtrip(tmp_path, lines)
        assert list(capture.events) == reference
        assert serialize_events(capture.events) == lines
        assert capture.report.to_dict() == reference_report.to_dict()

    def test_frames_are_interned_objects(self, tmp_path):
        capture, reference, _ = roundtrip(tmp_path, TINY_LOG.splitlines())
        for mine, theirs in zip(capture.events, reference):
            for frame_a, frame_b in zip(mine.frames, theirs.frames):
                assert frame_a is frame_b

    def test_identical_walks_share_one_tuple(self, tmp_path):
        lines = TINY_LOG.splitlines() + [
            line.replace("|2|", "|3|", 1) if line.startswith("EVENT|2")
            else line.replace("STACK|2", "STACK|3")
            for line in TINY_LOG.splitlines()[-5:]
        ]
        capture, reference, _ = roundtrip(tmp_path, lines)
        assert list(capture.events) == reference
        assert capture.events[-1].frames is capture.events[2].frames

    @pytest.mark.parametrize("seed", range(3))
    def test_fault_corpus_round_trips_with_report(self, tmp_path, seed):
        """Logs with recovery-dropped lines: the capture carries both
        the surviving events and the conversion's full ParseReport."""
        for variant in fault_corpus(TINY_LOG.splitlines(), seed=seed):
            if any("\x00" in line for line in variant.lines):
                # NUL is legal field content but unwritable as a text
                # file round-trip oracle on every filesystem; covered
                # by the in-memory fastparse equivalence tests.
                continue
            capture, reference, reference_report = roundtrip(
                tmp_path, variant.lines, name=variant.name
            )
            assert list(capture.events) == reference, variant.name
            assert (
                capture.report.to_dict() == reference_report.to_dict()
            ), variant.name
            assert capture.meta["counts"]["events"] == len(reference)

    def test_empty_log(self, tmp_path):
        capture, reference, _ = roundtrip(tmp_path, [])
        assert list(capture.events) == reference == []

    def test_write_capture_without_report(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        path = write_capture(tmp_path / "x.leapscap", events)
        events_back, report = read_capture(path)
        assert list(events_back) == events
        assert report is None

    def test_iter_capture_yields_in_order(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        path = write_capture(tmp_path / "x.leapscap", events)
        assert list(iter_capture(path)) == events

    def test_loaded_capture_is_event_log_with_report(self, tmp_path):
        capture, _, _ = roundtrip(tmp_path, TINY_LOG.splitlines())
        assert isinstance(capture.events, EventLog)
        assert capture.events.report is capture.report
        assert isinstance(capture, Capture)


@pytest.mark.skipif(not HAS_GOLDEN_DATA, reason="golden cache missing")
class TestGoldenRoundTrip:
    def test_every_golden_head_round_trips(self, tmp_path):
        from tests.test_golden_logs import ALL_LOGS, read_header

        for relpath in ALL_LOGS:
            lines = [raw.rstrip("\n") for raw in read_header(relpath)]
            capture, reference, reference_report = roundtrip(
                tmp_path, lines, name=relpath.replace("/", "_")
            )
            assert list(capture.events) == reference, relpath
            assert (
                capture.report.to_dict() == reference_report.to_dict()
            ), relpath


class TestPathAddressing:
    def test_is_capture_path(self, tmp_path):
        assert is_capture_path("x.leapscap")
        assert is_capture_path(tmp_path / "deep" / "y.leapscap")
        assert not is_capture_path("x.log")
        assert not is_capture_path("x.leapscap.bak")

    def test_convert_log_default_destination(self, tmp_path):
        src = tmp_path / "benign.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        assert convert_log(src) == tmp_path / "benign.leapscap"

    def test_parser_passes_event_log_through(self):
        events = list(iter_parse(TINY_LOG.splitlines()))
        conversion_report = ParseReport()
        list(iter_parse(TINY_LOG.splitlines(), report=conversion_report))
        log = EventLog(events, report=conversion_report)
        scan_report = ParseReport()
        parsed = RawLogParser().parse_lines(log, report=scan_report)
        assert parsed == events
        assert scan_report.to_dict() == conversion_report.to_dict()


class TestValidation:
    @pytest.fixture
    def capture_path(self, tmp_path):
        src = tmp_path / "x.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        return convert_log(src)

    def test_missing_files(self, tmp_path):
        with pytest.raises(CaptureError, match="is not a capture"):
            load_capture(tmp_path / "nope.leapscap")

    def test_unknown_schema(self, capture_path):
        meta = json.loads((capture_path / "capture.json").read_text())
        meta["schema"] = "leaps-capture/v99"
        (capture_path / "capture.json").write_text(json.dumps(meta))
        with pytest.raises(CaptureVersionError, match="v99"):
            load_capture(capture_path)
        assert issubclass(CaptureVersionError, CaptureError)

    def _rewrite(self, capture_path, **overrides):
        with np.load(capture_path / "arrays.npz", allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays.update(overrides)
        np.savez(capture_path / "arrays.npz", **arrays)

    def test_id_out_of_range(self, capture_path):
        with np.load(capture_path / "arrays.npz") as data:
            name_id = data["name_id"].copy()
        name_id[0] = 999
        self._rewrite(capture_path, name_id=name_id)
        with pytest.raises(CaptureError, match="name_id out of range"):
            load_capture(capture_path)

    def test_broken_offsets(self, capture_path):
        with np.load(capture_path / "arrays.npz") as data:
            offsets = data["walk_offsets"].copy()
        offsets[-1] = offsets[-1] + 5
        self._rewrite(capture_path, walk_offsets=offsets)
        with pytest.raises(CaptureError, match="walk_offsets"):
            load_capture(capture_path)

    def test_missing_array(self, capture_path):
        with np.load(capture_path / "arrays.npz") as data:
            arrays = {
                key: data[key] for key in data.files if key != "timestamp"
            }
        np.savez(capture_path / "arrays.npz", **arrays)
        with pytest.raises(CaptureError, match="missing array"):
            load_capture(capture_path)

    def test_delimiter_in_vocab(self, capture_path):
        self._rewrite(capture_path, vocab_process=np.array("bad|name\n"))
        with pytest.raises(CaptureError, match="delimiter"):
            load_capture(capture_path)

    def test_write_rejects_out_of_range_ints(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        huge = events[0].with_frames(events[0].frames)
        huge.timestamp = 2**70
        with pytest.raises(CaptureError, match="int64 range"):
            write_capture(tmp_path / "x.leapscap", [huge])

    def test_schema_constant(self):
        assert SCHEMA == "leaps-capture/v1"


class TestWriterEquivalence:
    """``write_capture`` against the per-event reference writer
    (``tests/oracles/capture.py``) — byte-identical output on every
    input shape, differing only in speed."""

    @staticmethod
    def assert_captures_identical(a, b):
        """Byte-compare two capture directories; the npz is compared
        per member because zip containers embed timestamps."""
        import zipfile

        assert sorted(p.name for p in a.iterdir()) == sorted(
            p.name for p in b.iterdir()
        )
        assert (a / "capture.json").read_bytes() == (
            b / "capture.json"
        ).read_bytes()
        with zipfile.ZipFile(a / "arrays.npz") as zip_a, zipfile.ZipFile(
            b / "arrays.npz"
        ) as zip_b:
            assert zip_a.namelist() == zip_b.namelist()
            for member in zip_a.namelist():
                assert zip_a.read(member) == zip_b.read(member), member

    def write_both(self, tmp_path, events, **kwargs):
        naive = write_capture_naive(tmp_path / "naive.leapscap", events, **kwargs)
        vec = write_capture(tmp_path / "vec.leapscap", events, **kwargs)
        self.assert_captures_identical(naive, vec)
        return vec

    def test_columns_sidecar_path(self, tmp_path):
        from repro.etw.fastparse import parse_fast

        report = ParseReport()
        events = parse_fast(
            TINY_LOG.splitlines(), policy="drop", report=report, columns=True
        )
        assert events.columns is not None  # the fast assembly path
        vec = self.write_both(
            tmp_path, events, report=report, source={"path": "x.log"}
        )
        assert list(load_capture(vec).events) == list(events)

    def test_generic_event_list_path(self, tmp_path):
        events = RawLogParser().parse_lines(TINY_LOG.splitlines())
        self.write_both(tmp_path, events)

    def test_empty_events(self, tmp_path):
        self.write_both(tmp_path, [])

    def test_uint64_addresses(self, tmp_path):
        lines = TINY_LOG.splitlines()
        lines[1] = "STACK|0|0|app.exe|WinMain|0xfffffffffffff012"
        events = RawLogParser().parse_lines(lines)
        vec = self.write_both(tmp_path, events)
        loaded = list(load_capture(vec).events)
        assert loaded[0].frames[0].address == 0xFFFFFFFFFFFFF012

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_corpus(self, tmp_path, seed):
        from repro.etw.fastparse import parse_fast

        base = TINY_LOG.splitlines() * 3
        for variant in fault_corpus(base, seed=seed):
            report = ParseReport()
            events = parse_fast(
                variant.lines, policy="drop", report=report, columns=True
            )
            scratch = tmp_path / variant.name
            scratch.mkdir()
            self.write_both(scratch, events, report=report)

    def test_out_of_range_error_parity(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        huge = events[0].with_frames(events[0].frames)
        huge.timestamp = 2**70
        for writer in (write_capture_naive, write_capture):
            with pytest.raises(CaptureError, match="int64 range"):
                writer(tmp_path / "x.leapscap", [huge])


    @pytest.mark.skipif(not HAS_GOLDEN_DATA, reason="golden cache missing")
    def test_golden_heads(self, tmp_path):
        from repro.etw.fastparse import parse_fast

        from tests.test_golden_logs import ALL_LOGS, read_header

        for relpath in ALL_LOGS:
            lines = [raw.rstrip("\n") for raw in read_header(relpath)]
            report = ParseReport()
            events = parse_fast(
                lines, policy="drop", report=report, columns=True
            )
            scratch = tmp_path / relpath.replace("/", "_")
            scratch.mkdir()
            self.write_both(scratch, events, report=report)


class TestCaptureCli:
    """``python -m repro.etw.capture`` convert/info round trip."""

    def test_convert_then_info(self, tmp_path, capsys):
        from repro.etw.capture import main

        src = tmp_path / "host.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out
        capture_path = tmp_path / "host.leapscap"
        assert str(capture_path) in out
        assert "events=3" in out
        assert main(["info", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert f"schema {SCHEMA}" in out
        assert "parse report: 15 lines, 3 events" in out

    def test_convert_explicit_destination_and_policy(self, tmp_path, capsys):
        from repro.etw.capture import main

        src = tmp_path / "host.log"
        src.write_text(
            TINY_LOG + "@@corrupt@@\n" + TINY_LOG, encoding="utf-8"
        )
        dst = tmp_path / "out.leapscap"
        assert main(["convert", str(src), str(dst), "--policy", "drop"]) == 0
        out = capsys.readouterr().out
        assert "events=6" in out
        assert "dropped=" in out
        capture = load_capture(dst)
        assert capture.report.error_lines == 1

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        from repro.etw.capture import main

        assert main(["convert", str(tmp_path / "nope.log")]) == 1
        assert "error:" in capsys.readouterr().out

    def test_info_on_non_capture_fails_cleanly(self, tmp_path, capsys):
        from repro.etw.capture import main

        assert main(["info", str(tmp_path / "nope.leapscap")]) == 1
        assert "error:" in capsys.readouterr().out