"""Prepare-stage fast path on generated data: memoized weights ==
naive per-path weights bit-for-bit, multi-log CFG inference == the
sequential merge, and multi-log training (``fit_logs``) semantics.

The logs are the session's generated catalog row (``generated_row`` in
``tests/conftest.py``); the generator is pinned by digests, so it is
the golden data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cfg_inference import CFG, CFGInferencer
from repro.core.config import LeapsConfig
from repro.core.detector import LeapsDetector
from repro.core.weights import WeightAssessor
from repro.etw.parser import RawLogParser, serialize_events
from repro.etw.stack_partition import StackPartitioner

#: Events kept per log head — enough to cover the payload region of the
#: mixed logs while keeping the sweep fast.
HEAD_EVENTS = 400


def head_paths(path, partitioner):
    events = RawLogParser().parse_file(path, policy="drop")[:HEAD_EVENTS]
    return [partitioner.app_path(event) for event in events]


def test_memoized_assess_equals_naive_on_golden_heads(generated_row):
    partitioner = StackPartitioner()
    benign_paths = head_paths(generated_row / "benign.log", partitioner)
    mixed_paths = head_paths(generated_row / "mixed.log", partitioner)
    assessor = WeightAssessor(CFGInferencer().infer(benign_paths))
    fast = assessor.assess(mixed_paths)
    naive = np.asarray([assessor.event_weight(p) for p in mixed_paths])
    assert np.array_equal(fast, naive)
    # the head reaches the payload: some events are off the benign CFG
    assert fast.max() > 0


class TestInferManyGolden:
    @pytest.fixture(scope="class")
    def shards(self, generated_row):
        paths = head_paths(generated_row / "benign.log", StackPartitioner())
        third = len(paths) // 3
        return [paths[:third], paths[third : 2 * third], paths[2 * third :]]

    @pytest.fixture(scope="class")
    def sequential(self, shards):
        merged = CFG()
        inferencer = CFGInferencer()
        for shard in shards:
            merged.merge(inferencer.infer(shard))
        return merged

    def test_infer_many_equals_sequential(self, shards, sequential):
        assert CFGInferencer().infer_many(shards) == sequential


class TestFitLogs:
    CONFIG = dict(
        lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0, max_train_windows=200
    )

    @pytest.fixture(scope="class")
    def logs(self, generated_row):
        return {
            stem: (generated_row / f"{stem}.log").read_text().splitlines()
            for stem in ("benign", "mixed", "malicious")
        }

    def test_single_log_fit_logs_equals_train_from_logs(self, logs):
        reference = LeapsDetector(LeapsConfig(**self.CONFIG))
        reference.train_from_logs(logs["benign"], logs["mixed"])
        fleet = LeapsDetector(LeapsConfig(**self.CONFIG))
        fleet.fit_logs([logs["benign"]], [logs["mixed"]])
        assert fleet.scan_log(logs["malicious"]) == reference.scan_log(
            logs["malicious"]
        )

    def test_fit_logs_accepts_paths(self, generated_row, logs):
        by_path = LeapsDetector(LeapsConfig(**self.CONFIG))
        by_path.fit_logs(
            [generated_row / "benign.log"], [str(generated_row / "mixed.log")]
        )
        by_lines = LeapsDetector(LeapsConfig(**self.CONFIG))
        by_lines.fit_logs([logs["benign"]], [logs["mixed"]])
        assert by_path.scan_log(logs["malicious"]) == by_lines.scan_log(
            logs["malicious"]
        )

    def test_multi_log_fleet_trains_and_detects(self, logs):
        events = RawLogParser().parse_lines(logs["benign"])
        half = len(events) // 2
        detector = LeapsDetector(LeapsConfig(**self.CONFIG))
        report = detector.fit_logs(
            [serialize_events(events[:half]), serialize_events(events[half:])],
            [logs["mixed"]],
        )
        assert report.n_benign_events == len(events)
        stages = [stage for stage, _ in report.stage_seconds]
        assert stages[:4] == ["parse", "partition", "cfg_inference", "weights"]
        flagged, total = detector.alert_summary(detector.scan_log(logs["malicious"]))
        assert total > 0 and flagged / total > 0.5

    def test_multi_log_windows_do_not_span_logs(self, logs):
        # windows per class must equal the sum of per-log window counts,
        # not the count of the concatenated stream
        events = RawLogParser().parse_lines(logs["benign"])
        half = len(events) // 2
        config = LeapsConfig(**self.CONFIG)
        coalescer_windows = lambda n: len(  # noqa: E731
            range(0, n - config.window_events + 1, config.stride)
        ) if n >= config.window_events else 0
        detector = LeapsDetector(config)
        report = detector.fit_logs(
            [serialize_events(events[:half]), serialize_events(events[half:])],
            [logs["mixed"]],
        )
        expected = coalescer_windows(half) + coalescer_windows(len(events) - half)
        assert report.n_benign_windows == expected
        assert expected < coalescer_windows(len(events))

    def test_fit_logs_rejects_empty_class(self, logs):
        detector = LeapsDetector(LeapsConfig(**self.CONFIG))
        with pytest.raises(ValueError):
            detector.fit_logs([], [logs["mixed"]])
