"""Fault-injection corpus: recovery must keep every uncorrupted event.

For each mutated variant of a generated log, ``policy="drop"`` must
recover 100% of the events whose line regions the mutation did not
touch — exactly, frames included — and the ParseReport's per-line
accounting must sum to the variant's line count.  The stream scan must
also score every variant as the per-event oracle does: the fault corpus
is what drives the streaming parser's scalar fallback.
"""

import warnings

import pytest

from repro import LeapsConfig, LeapsDetector, ParseReport
from repro.core import streaming
from repro.datasets import generate_dataset
from repro.etw.parser import ParseError, iter_parse, parse_with_report
from repro.etw.stack_partition import StackPartitionError

from tests.faults import (
    MUTATORS,
    fault_corpus,
    ground_truth_events,
    head_blocks,
)
from tests.oracles.stream_scan import score_stream_naive

#: One log per shape: benign (regular), mixed (injected payload frames),
#: malicious (foreign-process image names) — catalog rows generated at
#: seed 0 with these event counts.
CORPUS_LOGS = [
    "notepad++_reverse_tcp_online/benign.log",
    "notepad++_reverse_tcp_online/mixed.log",
    "putty_codeinject/malicious.log",
    "vim_reverse_https/mixed.log",
]
CORPUS_EVENTS = {"train_events": 200, "scan_events": 200}

HEAD_LINES = 900


@pytest.fixture(scope="module")
def corpus_rows(tmp_path_factory):
    """Each corpus row, generated once: row name → its directory."""
    root = tmp_path_factory.mktemp("fault-rows")
    rows = sorted({relpath.split("/")[0] for relpath in CORPUS_LOGS})
    return {
        row: generate_dataset(
            row, root / row, seed=0, format="text", **CORPUS_EVENTS
        ).root
        for row in rows
    }


def corpus_head(corpus_rows, relpath):
    row, log = relpath.split("/")
    lines = (corpus_rows[row] / log).read_text(encoding="utf-8").splitlines()
    head = head_blocks(lines, HEAD_LINES)
    assert head, relpath
    return head


@pytest.fixture(scope="module", params=CORPUS_LOGS)
def corpus(request, corpus_rows):
    head = corpus_head(corpus_rows, request.param)
    return head, ground_truth_events(head), fault_corpus(head, seed=0)


def variant_by_name(variants, name):
    return next(v for v in variants if v.name == name.replace("_", "-"))


class TestRecoveryContract:
    def test_corpus_covers_every_mutator(self, corpus):
        _, _, variants = corpus
        assert len(variants) == len(MUTATORS)

    def test_drop_recovers_every_uncorrupted_event(self, corpus):
        head, truth, variants = corpus
        for variant in variants:
            events, report = parse_with_report(variant.lines, policy="drop")
            recovered = {}
            for event in events:
                # keep the fullest recovery per eid (duplicated EVENT
                # lines yield a spurious zero-frame copy first)
                kept = recovered.get(event.eid)
                if kept is None or len(event.frames) > len(kept.frames):
                    recovered[event.eid] = event
            for eid in variant.expected_intact_eids(list(truth)):
                assert recovered.get(eid) == truth[eid], (
                    f"{variant.name}: intact event {eid} not recovered exactly"
                )

    def test_line_accounting_sums_on_every_variant(self, corpus):
        _, _, variants = corpus
        for variant in variants:
            _, report = parse_with_report(variant.lines, policy="drop")
            assert report.total_lines == len(variant.lines), variant.name
            assert report.lines_accounted == report.total_lines, variant.name

    def test_warn_yields_same_events_as_drop(self, corpus):
        import warnings

        _, _, variants = corpus
        for variant in variants:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                warn_events, _ = parse_with_report(variant.lines, policy="warn")
            drop_events, _ = parse_with_report(variant.lines, policy="drop")
            assert warn_events == drop_events, variant.name

    def test_strict_raises_on_structurally_invalid_variants(self, corpus):
        _, _, variants = corpus
        for variant in variants:
            if variant.strict_raises:
                with pytest.raises(ParseError):
                    list(iter_parse(variant.lines))
            else:
                list(iter_parse(variant.lines))  # structurally legal

    def test_corruption_is_actually_detected(self, corpus):
        """Every structurally-invalid variant records at least one issue
        — the mutations are not silently absorbed."""
        _, _, variants = corpus
        for variant in variants:
            _, report = parse_with_report(variant.lines, policy="drop")
            if variant.strict_raises:
                assert report.n_issues > 0, variant.name

    def test_truncated_variant_flags_tail(self, corpus):
        _, _, variants = corpus
        for name in ("truncate-mid-stack", "truncate-clean-tail"):
            variant = variant_by_name(variants, name)
            _, report = parse_with_report(variant.lines, policy="drop")
            assert report.truncated_tail, name


class TestStreamOracle:
    """``scan_stream`` under ``drop`` scores every fault variant, at
    several feed sizes, as the per-event oracle does: same rows, same
    report, same error."""

    @pytest.fixture(scope="class")
    def detectors(self, corpus_rows):
        config = LeapsConfig(
            lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0,
            max_train_windows=200, seed=0, stream_chunk_windows=16,
        )
        detectors = {}
        for row, root in corpus_rows.items():
            detectors[row] = LeapsDetector(config)
            detectors[row].fit_logs([root / "benign.log"], [root / "mixed.log"])
        return detectors

    @staticmethod
    def outcome(rows, *args, **kwargs):
        """Drain one scan; returns (rows, report, error)."""
        report, got, error = ParseReport(), [], None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                for row in rows(*args, report=report, policy="drop"):
                    got.append(row)
            except (ParseError, StackPartitionError) as caught:
                error = caught
        return got, report, error

    @pytest.mark.parametrize("relpath", CORPUS_LOGS)
    def test_stream_matches_oracle_on_every_variant(
        self, corpus_rows, detectors, monkeypatch, relpath
    ):
        detector = detectors[relpath.split("/")[0]]

        def stream(lines, **kwargs):
            for d in detector.scan_stream(lines, **kwargs):
                yield d.index, d.start_eid, d.end_eid, d.score

        def oracle(lines, **kwargs):
            for window, score in score_stream_naive(
                detector.pipeline, lines, **kwargs
            ):
                yield (window.start_index, window.start_eid, window.end_eid,
                       float(score))

        head = corpus_head(corpus_rows, relpath)
        for variant in fault_corpus(head, seed=0):
            want, want_report, want_error = self.outcome(oracle, variant.lines)
            assert want, variant.name
            for feed in (7, 61, streaming.FEED_LINES):
                monkeypatch.setattr(streaming, "FEED_LINES", feed)
                got, report, error = self.outcome(stream, variant.lines)
                assert got == want, (variant.name, feed)
                assert type(error) is type(want_error), (variant.name, feed)
                assert str(error) == str(want_error), (variant.name, feed)
                if not isinstance(want_error, StackPartitionError):
                    # a partition error stops the block scanner a feed
                    # further into the text than the per-event chain
                    assert report.to_dict() == want_report.to_dict()


@pytest.mark.slow
@pytest.mark.parametrize("relpath", CORPUS_LOGS)
def test_full_log_fault_sweep(corpus_rows, relpath):
    """The recovery contract over every whole corpus log (slow tier)."""
    row, log = relpath.split("/")
    lines = (corpus_rows[row] / log).read_text(encoding="utf-8").splitlines()
    truth = ground_truth_events(lines)
    for variant in fault_corpus(lines, seed=0):
        events, report = parse_with_report(variant.lines, policy="drop")
        assert report.lines_accounted == report.total_lines == len(variant.lines)
        recovered = {}
        for event in events:
            kept = recovered.get(event.eid)
            if kept is None or len(event.frames) > len(kept.frames):
                recovered[event.eid] = event
        for eid in variant.expected_intact_eids(list(truth)):
            assert recovered.get(eid) == truth[eid], (variant.name, eid)
