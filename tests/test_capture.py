"""Columnar capture format: round-trip fidelity, validation, wiring.

The capture is only useful if it is *invisible*: loading a
``.leapscap`` must reproduce the exact events (and recovery
accounting) that parsing the original text produced — property-tested
here on synthetic logs, the fault-injection corpus, and the logs of a
generated catalog row.
"""

import json
import warnings

import numpy as np
import pytest

from repro.etw.capture import (
    SCHEMA,
    Capture,
    CaptureError,
    CaptureVersionError,
    captures_byte_identical,
    convert_log,
    is_capture_path,
    load_capture,
    write_capture,
    write_capture_columns,
)
from repro.etw.fastparse import parse_fast
from repro.etw.parser import (
    RawLogParser,
    iter_parse,
    read_log_lines,
    serialize_events,
)
from repro.etw.recovery import ParseReport, ParseWarning

from tests.conftest import TINY_LOG
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
        capture = load_capture(path)
        assert list(capture.events) == events
        assert capture.report is None

    def test_iter_capture_yields_in_order(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        path = write_capture(tmp_path / "x.leapscap", events)
        assert list(load_capture(path).events) == events

    def test_loaded_capture_is_event_log_with_report(self, tmp_path):
        capture, _, reference_report = roundtrip(tmp_path, TINY_LOG.splitlines())
        assert type(capture.events) is list
        assert capture.events == capture.columns.records()
        assert capture.report.to_dict() == reference_report.to_dict()
        assert capture.source == str(tmp_path / "log.leapscap")
        assert isinstance(capture, Capture)


#: the logs of the session's generated catalog row
GENERATED_LOGS = ("benign", "mixed", "malicious")


class TestGoldenRoundTrip:
    def test_every_golden_head_round_trips(self, tmp_path, generated_row):
        for stem in GENERATED_LOGS:
            lines = (generated_row / f"{stem}.log").read_text().splitlines()
            capture, reference, reference_report = roundtrip(
                tmp_path, lines, name=stem
            )
            assert list(capture.events) == reference, stem
            assert (
                capture.report.to_dict() == reference_report.to_dict()
            ), stem
            # the generator's own capture, written from columns
            generated = load_capture(generated_row / f"{stem}.leapscap")
            assert list(generated.events) == reference, stem


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

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda a: {"eid": a["eid"] + 0.5}, id="float-eid"),
            pytest.param(lambda a: {"eid": a["eid"].astype(str)}, id="str-eid"),
            pytest.param(
                lambda a: {"frame_index": a["frame_index"] + 0.25},
                id="float-frame-index",
            ),
            pytest.param(
                lambda a: {"walk_id": a["walk_id"].astype(np.float64)},
                id="float-walk-id",
            ),
            pytest.param(
                lambda a: {
                    "walk_frame_ids": a["walk_frame_ids"].astype(np.float64)
                },
                id="float-walk-frame-ids",
            ),
            pytest.param(
                lambda a: {
                    name: a[name].reshape(-1, 1)
                    for name in ("eid", "timestamp", "pid", "tid", "opcode",
                                 "process_id", "category_id", "name_id",
                                 "walk_id")
                },
                id="2d-event-columns",
            ),
            # event 0's frames would carry stack indices [3, 2, 1, 3]
            pytest.param(
                lambda a: {"frame_index": a["frame_index"][::-1].copy()},
                id="frame-index-not-walk-position",
            ),
            # [0, 8, 4, 12]: the span holds, the walks overlap
            pytest.param(
                lambda a: {"walk_offsets": a["walk_offsets"][[0, 2, 1, 3]]},
                id="decreasing-walk-offsets",
            ),
        ],
    )
    def test_malformed_arrays(self, capture_path, mutate):
        with np.load(capture_path / "arrays.npz") as data:
            arrays = {key: data[key] for key in data.files}
        self._rewrite(capture_path, **mutate(arrays))
        with pytest.raises(CaptureError):
            load_capture(capture_path)

    @pytest.mark.parametrize("truncate", [False, True], ids=["not-a-zip", "truncated"])
    def test_unreadable_npz(self, capture_path, truncate):
        npz = capture_path / "arrays.npz"
        raw = npz.read_bytes()
        npz.write_bytes(raw[: len(raw) // 2] if truncate else b"not a zip")
        with pytest.raises(CaptureError, match="unreadable"):
            load_capture(capture_path)

    def _edit_meta(self, capture_path, edit):
        path = capture_path / "capture.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))

    @pytest.mark.parametrize(
        "document", [[SCHEMA], SCHEMA], ids=["json-list", "json-string"]
    )
    def test_metadata_not_an_object(self, capture_path, document):
        self._edit_meta(capture_path, lambda meta: document)
        with pytest.raises(CaptureError, match="not a JSON object"):
            load_capture(capture_path)

    def test_deeply_nested_metadata(self, capture_path):
        depth = 100_000
        (capture_path / "capture.json").write_text("[" * depth + "]" * depth)
        with pytest.raises(CaptureError, match="unparseable"):
            load_capture(capture_path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda report: 5, id="number"),
            pytest.param(
                lambda report: {
                    key: value for key, value in report.items()
                    if key != "issues"
                },
                id="missing-key",
            ),
            pytest.param(
                lambda report: {**report, "total_lines": "x"}, id="bad-count"
            ),
            pytest.param(
                lambda report: {
                    **report,
                    "issues": [
                        {"kind": "no-such-kind", "lineno": 1, "message": "m"}
                    ],
                },
                id="unknown-kind",
            ),
        ],
    )
    def test_malformed_parse_report(self, capture_path, edit):
        self._edit_meta(
            capture_path,
            lambda meta: {**meta, "parse_report": edit(meta["parse_report"])},
        )
        with pytest.raises(CaptureError, match="parse_report"):
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
        report = ParseReport()
        events = parse_fast(
            TINY_LOG.splitlines(), policy="drop", report=report
        )
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
        base = TINY_LOG.splitlines() * 3
        for variant in fault_corpus(base, seed=seed):
            report = ParseReport()
            events = parse_fast(
                variant.lines, policy="drop", report=report
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


    def test_golden_heads(self, tmp_path, generated_row):
        for stem in GENERATED_LOGS:
            lines = (generated_row / f"{stem}.log").read_text().splitlines()
            report = ParseReport()
            events = parse_fast(
                lines, policy="drop", report=report
            )
            scratch = tmp_path / stem
            scratch.mkdir()
            self.write_both(scratch, events, report=report)
            # a loaded capture's columns re-encode to the same bytes
            original = generated_row / f"{stem}.leapscap"
            capture = load_capture(original)
            rewritten = write_capture_columns(
                scratch / "columns.leapscap",
                capture.columns,
                report=capture.report,
                source=capture.meta["source"],
            )
            assert captures_byte_identical(rewritten, original), stem


@pytest.mark.parametrize("policy", ["drop", "warn"])
class TestConvertLogOnColumns:
    """``convert_log`` parses to columns and encodes them, building no
    record: its capture is byte-identical to ``write_capture`` over
    ``parse_fast``'s records with the same report and source, and it
    warns as that parse does."""

    @staticmethod
    def assert_matches_record_writer(tmp_path, src, policy):
        def parse_warnings(run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ParseWarning)
                out = run()
            return out, [str(w.message) for w in caught]

        got, got_warnings = parse_warnings(
            lambda: convert_log(src, tmp_path / "columns.leapscap", policy=policy)
        )
        report = ParseReport()
        events, want_warnings = parse_warnings(
            lambda: parse_fast(src.read_bytes(), policy=policy, report=report)
        )
        want = write_capture(
            tmp_path / "records.leapscap",
            events,
            report=report,
            source={
                "path": str(src),
                "policy": policy,
                "require_complete_tail": False,
            },
        )
        assert captures_byte_identical(got, want), src.name
        assert got_warnings == want_warnings, src.name

    @pytest.mark.parametrize("seed", range(3))
    def test_fault_corpus(self, tmp_path, policy, seed):
        for variant in fault_corpus(TINY_LOG.splitlines(), seed=seed):
            scratch = tmp_path / variant.name
            scratch.mkdir()
            src = scratch / "log.log"
            src.write_bytes(("\n".join(variant.lines) + "\n").encode("utf-8"))
            self.assert_matches_record_writer(scratch, src, policy)

    def test_generated_row(self, tmp_path, generated_row, policy):
        for stem in GENERATED_LOGS:
            scratch = tmp_path / stem
            scratch.mkdir()
            self.assert_matches_record_writer(
                scratch, generated_row / f"{stem}.log", policy
            )


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