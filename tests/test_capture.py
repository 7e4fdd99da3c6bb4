"""Columnar capture format: round-trip fidelity, validation, wiring.

The capture is only useful if it is *invisible*: loading a
``.leapscap`` must reproduce the exact events (and recovery
accounting) that parsing the original text produced — property-tested
here on synthetic logs, the fault-injection corpus, and the logs of a
generated catalog row.
"""

import json
import shutil
import struct
import warnings

import numpy as np
import pytest

from repro.etw import capture as capture_module
from repro.etw.capture import (
    CHUNK_HEADER_SIZE,
    EVENTS_NAME,
    NPZ_NAME,
    SCHEMA,
    SCHEMA_V1,
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
from repro.etw.events import EventColumns
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
from tests.oracles.capture import rewrite_as_v1, write_capture_naive


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


def tiny_capture(tmp_path):
    src = tmp_path / "x.log"
    src.write_text(TINY_LOG, encoding="utf-8")
    return convert_log(src)


class TestValidation:
    @pytest.fixture
    def capture_path(self, tmp_path):
        return tiny_capture(tmp_path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(CaptureError, match="is not a capture"):
            load_capture(tmp_path / "nope.leapscap")

    @pytest.mark.parametrize("schema", [SCHEMA, SCHEMA_V1], ids=["v2", "v1"])
    def test_missing_events(self, capture_path, schema):
        if schema == SCHEMA_V1:
            rewrite_as_v1(capture_path)
            (capture_path / NPZ_NAME).unlink()
        else:
            (capture_path / EVENTS_NAME).unlink()
        with pytest.raises(CaptureError, match="is not a capture"):
            load_capture(capture_path)

    def test_unknown_schema(self, capture_path):
        meta = json.loads((capture_path / "capture.json").read_text())
        meta["schema"] = "leaps-capture/v99"
        (capture_path / "capture.json").write_text(json.dumps(meta))
        with pytest.raises(CaptureVersionError, match="v99"):
            load_capture(capture_path)
        assert issubclass(CaptureVersionError, CaptureError)

    # The array mutations run on v1 captures, whose arrays.npz members
    # are the delta's arrays: they still reach the decoder's checks.
    @pytest.fixture
    def v1_path(self, tmp_path):
        return rewrite_as_v1(tiny_capture(tmp_path))

    def _rewrite(self, v1_path, **overrides):
        with np.load(v1_path / NPZ_NAME, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays.update(overrides)
        np.savez(v1_path / NPZ_NAME, **arrays)

    def test_id_out_of_range(self, v1_path):
        with np.load(v1_path / NPZ_NAME) as data:
            name_id = data["name_id"].copy()
        name_id[0] = 999
        self._rewrite(v1_path, name_id=name_id)
        with pytest.raises(CaptureError, match="name_id out of range"):
            load_capture(v1_path)

    def test_broken_offsets(self, v1_path):
        with np.load(v1_path / NPZ_NAME) as data:
            offsets = data["walk_offsets"].copy()
        offsets[-1] = offsets[-1] + 5
        self._rewrite(v1_path, walk_offsets=offsets)
        with pytest.raises(CaptureError, match="walk_offsets"):
            load_capture(v1_path)

    def test_missing_array(self, v1_path):
        with np.load(v1_path / NPZ_NAME) as data:
            arrays = {
                key: data[key] for key in data.files if key != "timestamp"
            }
        np.savez(v1_path / NPZ_NAME, **arrays)
        with pytest.raises(CaptureError, match="missing array"):
            load_capture(v1_path)

    def test_delimiter_in_vocab(self, v1_path):
        self._rewrite(v1_path, vocab_process=np.array("bad|name\n"))
        with pytest.raises(CaptureError, match="delimiter"):
            load_capture(v1_path)

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
    def test_malformed_arrays(self, v1_path, mutate):
        with np.load(v1_path / NPZ_NAME) as data:
            arrays = {key: data[key] for key in data.files}
        self._rewrite(v1_path, **mutate(arrays))
        with pytest.raises(CaptureError):
            load_capture(v1_path)

    @pytest.mark.parametrize("truncate", [False, True], ids=["not-a-zip", "truncated"])
    def test_unreadable_npz(self, v1_path, truncate):
        npz = v1_path / NPZ_NAME
        raw = npz.read_bytes()
        npz.write_bytes(raw[: len(raw) // 2] if truncate else b"not a zip")
        with pytest.raises(CaptureError, match="unreadable"):
            load_capture(v1_path)

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
        assert SCHEMA == "leaps-capture/v2"
        assert SCHEMA_V1 == "leaps-capture/v1"


class TestEventsChunkValidation:
    """``events.lc`` must be exactly one events chunk: every header or
    body fault raises ``CaptureError`` naming the file."""

    @pytest.fixture
    def capture_path(self, tmp_path):
        return tiny_capture(tmp_path)

    @staticmethod
    def assert_rejected(capture_path, data, match):
        events = capture_path / EVENTS_NAME
        events.write_bytes(data)
        with pytest.raises(CaptureError, match=match) as caught:
            load_capture(capture_path)
        assert str(events) in str(caught.value)

    @staticmethod
    def chunk(capture_path):
        return bytearray((capture_path / EVENTS_NAME).read_bytes())

    @pytest.mark.parametrize("size", [0, 1, CHUNK_HEADER_SIZE - 1])
    def test_truncated_header(self, capture_path, size):
        data = bytes(self.chunk(capture_path)[:size])
        self.assert_rejected(capture_path, data, "truncated chunk header")

    @pytest.mark.parametrize(
        "offset, value, match",
        [(0, ord("X"), "magic"), (2, 99, "version 99"), (3, 2, "kind 2")],
        ids=["magic", "version", "kind"],
    )
    def test_bad_header_field(self, capture_path, offset, value, match):
        data = self.chunk(capture_path)
        data[offset] = value
        self.assert_rejected(capture_path, bytes(data), match)

    @staticmethod
    def restate_length(data, delta=0):
        """``data`` with its header's body length set to the file's
        body length plus ``delta``."""
        data = bytearray(data)
        struct.pack_into(">I", data, 4, len(data) - CHUNK_HEADER_SIZE + delta)
        return bytes(data)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda data: data + b"\0", id="trailing-bytes"),
            pytest.param(lambda data: data[:-1], id="truncated-file"),
            pytest.param(lambda data: data[:CHUNK_HEADER_SIZE], id="no-body"),
        ],
    )
    def test_body_length_disagrees_with_file(self, capture_path, edit):
        data = edit(bytes(self.chunk(capture_path)))
        self.assert_rejected(capture_path, data, "disagrees")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_misstated_body_length(self, capture_path, delta):
        data = self.restate_length(self.chunk(capture_path), delta)
        self.assert_rejected(capture_path, data, "disagrees")

    def test_body_that_breaks_the_layout(self, capture_path):
        # a consistent header over a body one byte short of its layout
        data = self.restate_length(self.chunk(capture_path)[:-1])
        self.assert_rejected(capture_path, data, "truncated reading")

    def test_id_out_of_range(self, capture_path):
        data = self.chunk(capture_path)
        # walk_id is the last int64 column; corrupt its final cell
        struct.pack_into("<q", data, len(data) - 8, 999)
        self.assert_rejected(capture_path, bytes(data), "walk_id out of range")

    def test_loaded_columns_are_read_only_views(self, capture_path):
        columns = load_capture(capture_path).columns
        for name in EventColumns.COLUMNS:
            array = getattr(columns, name)
            assert not array.flags.writeable, name
            assert array.base is not None, name

    @pytest.mark.parametrize("limit_to", ["body", "count"])
    def test_u32_limit_raises_capture_error(
        self, tmp_path, monkeypatch, limit_to
    ):
        """A body past the u32 length field (about 59M events) fails at
        write time with ``CaptureError``, as does any count past a u32
        (simulated with a lowered limit and a narrowed count field)."""
        events = list(iter_parse(TINY_LOG.splitlines()))
        body_len = len(
            (write_capture(tmp_path / "ok.leapscap", events) / EVENTS_NAME)
            .read_bytes()
        ) - CHUNK_HEADER_SIZE
        if limit_to == "body":
            monkeypatch.setattr(capture_module, "_U32_MAX", body_len - 1)
        else:
            monkeypatch.setattr(capture_module, "_U32", struct.Struct("<B"))
            events = events * 100  # 300 events: past a u8 count
        with pytest.raises(CaptureError, match="u32"):
            write_capture(tmp_path / "x.leapscap", events)
        assert not (tmp_path / "x.leapscap").exists()


def assert_same_columns(got, want):
    """Every column, and every table, equal (walks frame by frame)."""
    assert got.n_events == want.n_events
    for name in EventColumns.COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    for table in ("process_vocab", "category_vocab", "name_vocab", "walks"):
        assert getattr(got, table) == getattr(want, table), table


class TestV1Compatibility:
    """Nothing writes v1, but a stored v1 capture may be the only copy
    of a log: it loads to exactly what its v2 twin loads to."""

    def assert_versions_agree(self, tmp_path, src, name="log"):
        v2 = convert_log(src, tmp_path / f"{name}.leapscap")
        v1 = rewrite_as_v1(shutil.copytree(v2, tmp_path / f"{name}-v1.leapscap"))
        assert sorted(p.name for p in v1.iterdir()) == ["arrays.npz", "capture.json"]
        new, old = load_capture(v2), load_capture(v1)
        assert old.meta["schema"] == SCHEMA_V1 and new.meta["schema"] == SCHEMA
        assert_same_columns(old.columns, new.columns)
        assert old.events == new.events
        assert old.report.to_dict() == new.report.to_dict()
        assert old.meta["source"] == new.meta["source"]
        assert old.meta["counts"] == new.meta["counts"]

    def test_tiny_log(self, tmp_path):
        src = tmp_path / "x.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        self.assert_versions_agree(tmp_path, src)

    def test_fault_corpus(self, tmp_path):
        for variant in fault_corpus(TINY_LOG.splitlines(), seed=0):
            src = tmp_path / f"{variant.name}.log"
            src.write_bytes(("\n".join(variant.lines) + "\n").encode("utf-8"))
            self.assert_versions_agree(tmp_path, src, variant.name)

    def test_generated_row(self, tmp_path, generated_row):
        for stem in GENERATED_LOGS:
            self.assert_versions_agree(
                tmp_path, generated_row / f"{stem}.log", stem
            )

    def test_overwrite_in_place_upgrades(self, tmp_path):
        v1 = rewrite_as_v1(tiny_capture(tmp_path))
        want = load_capture(v1)
        for path in (v1, tmp_path / "fresh.leapscap"):
            write_capture(
                path, want.events, report=want.report,
                source=want.meta["source"],
            )
        assert sorted(p.name for p in v1.iterdir()) == [
            "capture.json", "events.lc"
        ]
        assert load_capture(v1).events == want.events
        assert captures_byte_identical(v1, tmp_path / "fresh.leapscap")


class TestWriterEquivalence:
    """``write_capture`` against the per-event reference writer
    (``tests/oracles/capture.py``) — byte-identical output on every
    input shape, differing only in speed."""

    @staticmethod
    def assert_captures_identical(a, b):
        """Byte-compare two capture directories, file by file."""
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert names == ["capture.json", "events.lc"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert captures_byte_identical(a, b)

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