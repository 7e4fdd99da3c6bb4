"""Regression tests for three ingestion correctness fixes.

1. Path-based scanning used ``Path.read_text().splitlines()``, which
   splits on Unicode line boundaries (``\\x85``, ``\\x0b``, …) that the
   streaming scanner does not, and died with a bare
   ``UnicodeDecodeError`` on any non-UTF-8 byte.  Paths now read via
   :func:`repro.etw.parser.read_log_lines` (``\\n``/``\\r\\n`` only,
   undecodable lines classified as ``BAD_ENCODING``).
2. ``scan_logs(bundle_path=...)`` silently reused a stale on-disk
   bundle after the detector was retrained.  Bundles now carry a
   content fingerprint and are rewritten on mismatch.
3. Strict-policy ``iter_parse`` with a ``report=`` raised mid-file
   leaving the report's exhaustive accounting short.  The report is
   finalized before the raise, so the invariant holds even for an
   aborted parse.
"""

import pytest

from repro.core.config import LeapsConfig
from repro.core.detector import LeapsDetector
from repro.core.persistence import bundle_fingerprint, pipeline_fingerprint
from repro.etw.parser import (
    ParseError,
    iter_parse,
    read_log_lines,
    split_log_text,
)
from repro.etw.recovery import ParseErrorKind, ParseReport

from tests.conftest import TINY_LOG
from tests.faults import fault_corpus
from tests.test_api import APP, NET, PAYLOAD, SYS, make_log, tiny_training_logs

SCAN_SPECS = [("read", APP + SYS), ("beacon", PAYLOAD + NET)] * 8


@pytest.fixture(scope="module")
def detector():
    config = LeapsConfig(
        window_events=2,
        stride=1,
        lam_grid=(10.0,),
        sigma2_grid=(5.0,),
        cv_folds=0,
        max_train_windows=0,
        seed=1,
    )
    detector = LeapsDetector(config)
    detector.train_from_logs(*tiny_training_logs())
    return detector


class TestUnicodeLineBoundaries:
    """Fix 1a: fields may legally contain \\x85/\\x0b — a path-based
    scan must not split where streaming the same lines would not."""

    def test_path_iterable_and_stream_agree(self, tmp_path, detector):
        lines = make_log(SCAN_SPECS)
        # NEL and vertical tab inside the name field: legal field
        # content (only '|' and \n/\r are reserved), but a Unicode
        # line boundary to str.splitlines.
        lines[0] += "\x85next\x0bline"
        path = tmp_path / "fleet.log"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        # str.splitlines *would* shatter the log — the old path-based
        # ingestion saw a different (corrupt) line sequence than a
        # stream of the same file.
        text = path.read_text(encoding="utf-8")
        assert len(text.splitlines()) > len(split_log_text(text))

        from_path = detector.scan_logs([path])[0].detections
        from_iterable = detector.scan_log(lines)
        from_stream = list(detector.scan_stream(iter(lines)))
        assert from_path == from_iterable == from_stream

        # and the field itself round-trips unsplit
        first = next(iter_parse(read_log_lines(path)))
        assert first.name.endswith("\x85next\x0bline")


class TestNonUtf8Lines:
    """Fix 1b: undecodable bytes are a classified parse issue, not a
    bare UnicodeDecodeError from deep inside ingestion."""

    @pytest.fixture
    def dirty_path(self, tmp_path):
        lines = make_log(SCAN_SPECS)
        path = tmp_path / "dirty.log"
        payload = b"\xff\xfe raw garbage\n" + (
            "\n".join(lines) + "\n"
        ).encode("utf-8")
        path.write_bytes(payload)
        return path, lines

    def test_read_log_lines_never_decode_errors(self, dirty_path):
        path, lines = dirty_path
        read = read_log_lines(path)
        assert isinstance(read[0], bytes)
        assert read[1:] == lines

    def test_strict_scan_raises_classified_error(self, detector, dirty_path):
        path, _ = dirty_path
        with pytest.raises(ParseError) as error:
            detector.scan_logs([path], policy="strict")
        assert error.value.kind is ParseErrorKind.BAD_ENCODING

    def test_drop_scan_recovers_and_accounts(self, detector, dirty_path):
        path, lines = dirty_path
        result = detector.scan_logs(
            [path], policy="drop", with_reports=True
        )[0]
        assert result.report.count(ParseErrorKind.BAD_ENCODING) == 1
        assert result.report.lines_accounted == result.report.total_lines
        # the bad line precedes every event: all detections survive
        assert result.detections == detector.scan_log(lines)


class TestStaleBundleRewrite:
    """Fix 2: a retrained detector must never fan out stale weights
    from a previously-written ``bundle_path``."""

    def make_scan_files(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"scan{i}.log"
            path.write_text(
                "\n".join(make_log(SCAN_SPECS, start_eid=100 * i)) + "\n"
            )
            paths.append(path)
        return paths

    def test_fingerprint_round_trips_through_save(self, tmp_path, detector):
        bundle = detector.save(tmp_path / "model.leaps")
        assert bundle_fingerprint(bundle) == pipeline_fingerprint(
            detector.pipeline
        )
        assert bundle_fingerprint(tmp_path / "missing") is None

    def test_rescan_after_retrain_uses_new_model(self, tmp_path):
        detector = LeapsDetector(
            LeapsConfig(
                window_events=2,
                stride=1,
                lam_grid=(10.0,),
                sigma2_grid=(5.0,),
                cv_folds=0,
                max_train_windows=0,
                seed=1,
            )
        )
        detector.train_from_logs(*tiny_training_logs())
        paths = self.make_scan_files(tmp_path)
        bundle = tmp_path / "shared-bundle"

        first = detector.scan_logs(
            paths, n_jobs=2, bundle_path=bundle
        )
        fingerprint = bundle_fingerprint(bundle)
        assert fingerprint == pipeline_fingerprint(detector.pipeline)

        # retrain on a different corpus: the model genuinely changes
        detector.train_from_logs(*tiny_training_logs(n=16))
        assert pipeline_fingerprint(detector.pipeline) != fingerprint

        second = detector.scan_logs(
            paths, n_jobs=2, bundle_path=bundle
        )
        # the bundle was rewritten for the retrained model ...
        assert bundle_fingerprint(bundle) == pipeline_fingerprint(
            detector.pipeline
        )
        # ... and the fleet scan matches a fresh serial scan of the
        # retrained detector, not the first model's verdicts
        serial = [
            detector.scan_log(read_log_lines(path)) for path in paths
        ]
        assert [result.detections for result in second] == serial
        assert [r.detections for r in second] != [
            r.detections for r in first
        ]

    def test_unfingerprinted_bundle_is_rewritten(self, tmp_path, detector):
        import json

        paths = self.make_scan_files(tmp_path)
        bundle = detector.save(tmp_path / "legacy-bundle")
        doc = json.loads((bundle / "bundle.json").read_text())
        del doc["fingerprint"]
        (bundle / "bundle.json").write_text(json.dumps(doc))
        assert bundle_fingerprint(bundle) is None

        results = detector.scan_logs(
            paths, n_jobs=2, bundle_path=bundle
        )
        assert bundle_fingerprint(bundle) == pipeline_fingerprint(
            detector.pipeline
        )
        serial = [
            detector.scan_log(read_log_lines(path)) for path in paths
        ]
        assert [result.detections for result in results] == serial


class TestStrictReportFinalization:
    """Fix 3: the exhaustive line-accounting invariant holds on the
    report even when strict mode aborts the parse mid-file."""

    @pytest.mark.parametrize("seed", range(5))
    def test_invariant_survives_strict_raise(self, seed):
        for variant in fault_corpus(TINY_LOG.splitlines(), seed=seed):
            if not variant.strict_raises:
                continue
            report = ParseReport()
            with pytest.raises(ParseError):
                list(
                    iter_parse(variant.lines, policy="strict", report=report)
                )
            assert (
                report.lines_accounted == report.total_lines
            ), variant.name
            assert report.error_lines >= 1, variant.name
            assert report.n_issues >= 1, variant.name

    def test_invariant_on_bytes_line_raise(self):
        report = ParseReport()
        with pytest.raises(ParseError) as error:
            list(
                iter_parse(
                    [b"\xff\xfe", *TINY_LOG.splitlines()],
                    policy="strict",
                    report=report,
                )
            )
        assert error.value.kind is ParseErrorKind.BAD_ENCODING
        assert report.lines_accounted == report.total_lines
        assert report.total_lines == 1  # aborted on the first line

    def test_invariant_on_truncated_tail_raise(self):
        # a second TCP_SEND event whose walk is shallower than the
        # complete one: only the tail heuristic fires
        lines = TINY_LOG.splitlines() + [
            "EVENT|3|3000|1000|app.exe|4|TCP_SEND|7|send_data",
            "STACK|3|0|app.exe|WinMain|0x400012",
        ]
        report = ParseReport()
        with pytest.raises(ParseError) as error:
            list(
                iter_parse(
                    lines,
                    policy="strict",
                    report=report,
                    require_complete_tail=True,
                )
            )
        assert error.value.kind is ParseErrorKind.TRUNCATED_TAIL
        assert report.truncated_tail
        assert report.lines_accounted == report.total_lines
        assert report.total_lines == len(lines)
