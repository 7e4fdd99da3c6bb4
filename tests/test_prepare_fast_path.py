"""Prepare-stage fast path on golden data: memoized weights ==
naive per-path weights bit-for-bit, parallel CFG inference == serial,
and multi-log training (``fit_logs``) semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cfg_inference import CFG, CFGInferencer
from repro.core.config import LeapsConfig
from repro.core.detector import LeapsDetector
from repro.core.weights import WeightAssessor
from repro.etw.parser import RawLogParser, serialize_events
from repro.etw.stack_partition import StackPartitioner

from tests.conftest import golden_dataset_dirs

#: Events kept per log head — enough to cover the payload region of the
#: mixed logs while keeping the sweep fast.
HEAD_EVENTS = 400


def golden_mixed_heads():
    """(dataset name, benign head, mixed head) for every golden dataset
    that has both training logs."""
    pairs = []
    for directory in golden_dataset_dirs():
        benign, mixed = directory / "benign.log", directory / "mixed.log"
        if benign.is_file() and mixed.is_file():
            pairs.append((directory.name, benign, mixed))
    return pairs


def head_paths(path, partitioner):
    events = RawLogParser().parse_file(path, policy="drop")[:HEAD_EVENTS]
    return [partitioner.app_path(event) for event in events]


@pytest.mark.parametrize(
    "name,benign,mixed",
    golden_mixed_heads() or [pytest.param(None, None, None, marks=pytest.mark.skip(
        reason="golden dataset cache missing"))],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_memoized_assess_equals_naive_on_golden_heads(name, benign, mixed):
    partitioner = StackPartitioner()
    benign_paths = head_paths(benign, partitioner)
    mixed_paths = head_paths(mixed, partitioner)
    assessor = WeightAssessor(CFGInferencer().infer(benign_paths))
    fast = assessor.assess(mixed_paths)
    naive = np.asarray([assessor.event_weight(p) for p in mixed_paths])
    assert np.array_equal(fast, naive), name


class TestInferManyGolden:
    @pytest.fixture(scope="class")
    def shards(self, data_dir):
        partitioner = StackPartitioner()
        paths = head_paths(
            data_dir / "notepad++_reverse_tcp_online-s0-733c79dbeaba" / "benign.log",
            partitioner,
        )
        third = len(paths) // 3
        return [paths[:third], paths[third : 2 * third], paths[2 * third :]]

    @pytest.fixture(scope="class")
    def sequential(self, shards):
        merged = CFG()
        inferencer = CFGInferencer()
        for shard in shards:
            merged.merge(inferencer.infer(shard))
        return merged

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_parallel_equals_sequential(self, shards, sequential, n_jobs, executor):
        merged = CFGInferencer().infer_many(
            shards, n_jobs=n_jobs, executor=executor
        )
        assert merged == sequential


class TestFitLogs:
    CONFIG = dict(
        lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0, max_train_windows=200
    )

    @pytest.fixture(scope="class")
    def logs(self, e2e_dataset):
        return {
            "benign": (e2e_dataset / "benign.log").read_text().splitlines(),
            "mixed": (e2e_dataset / "mixed.log").read_text().splitlines(),
            "malicious": (e2e_dataset / "malicious.log").read_text().splitlines(),
        }

    def test_single_log_fit_logs_equals_train_from_logs(self, logs):
        reference = LeapsDetector(LeapsConfig(**self.CONFIG))
        reference.train_from_logs(logs["benign"], logs["mixed"])
        fleet = LeapsDetector(LeapsConfig(**self.CONFIG))
        fleet.fit_logs([logs["benign"]], [logs["mixed"]])
        assert fleet.scan_log(logs["malicious"]) == reference.scan_log(
            logs["malicious"]
        )

    def test_fit_logs_accepts_paths(self, e2e_dataset, logs):
        by_path = LeapsDetector(LeapsConfig(**self.CONFIG))
        by_path.fit_logs(
            [e2e_dataset / "benign.log"], [str(e2e_dataset / "mixed.log")]
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
