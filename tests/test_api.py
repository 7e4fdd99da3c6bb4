"""Public API surface: README imports, config validation, tiny pipeline."""

import pickle

import pytest

import repro
from repro import LeapsConfig, LeapsDetector, WindowDetection
from repro.core.pipeline import LeapsPipeline, NotTrainedError


class TestPublicSurface:
    def test_readme_imports(self):
        from repro import LeapsConfig, LeapsDetector  # noqa: F401

    def test_version(self):
        assert isinstance(repro.__version__, str)

    def test_readme_config_kwargs(self):
        config = LeapsConfig(
            stride=2, cv_folds=3, lam_grid=(1.0, 10.0), sigma2_grid=(10.0, 60.0)
        )
        assert config.stride == 2
        assert config.dims == 30


class TestWindowDetection:
    """A detection is a named tuple of its five fields."""

    FIELDS = ("index", "start_eid", "end_eid", "score", "malicious")

    def test_construction_and_access(self):
        by_keyword = WindowDetection(
            index=3, start_eid=10, end_eid=19, score=-0.5, malicious=True
        )
        by_position = WindowDetection(3, 10, 19, -0.5, True)
        assert by_keyword == by_position
        assert WindowDetection._fields == self.FIELDS
        assert [getattr(by_keyword, name) for name in self.FIELDS] == [
            3, 10, 19, -0.5, True
        ]
        assert by_keyword != WindowDetection(3, 10, 19, 0.5, False)

    def test_is_a_tuple(self):
        detection = WindowDetection(3, 10, 19, -0.5, True)
        assert isinstance(detection, tuple)
        assert detection == (3, 10, 19, -0.5, True)
        assert tuple(detection) == (3, 10, 19, -0.5, True)

    def test_immutable_hashable_picklable(self):
        detection = WindowDetection(3, 10, 19, -0.5, True)
        with pytest.raises(AttributeError):
            detection.score = 1.0
        assert len({detection, WindowDetection(3, 10, 19, -0.5, True)}) == 1
        clone = pickle.loads(pickle.dumps(detection))
        assert clone == detection and type(clone) is WindowDetection
        assert repr(detection) == (
            "WindowDetection(index=3, start_eid=10, end_eid=19, score=-0.5, "
            "malicious=True)"
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_events": 0},
            {"stride": 0},
            {"window_weight_agg": "median"},
            {"lam_grid": ()},
            {"sigma2_grid": ()},
            {"max_train_windows": -1},
            {"n_jobs": 0},
            {"cv_executor": "coroutine"},
            {"parse_policy": "lenient"},
            {"stream_chunk_windows": 0},
            # one fold is still too few for the default 2x2 grid
            {"cv_folds": 1},
            # the σ² grid alone has two points
            {"cv_folds": 1, "lam_grid": (1.0,)},
            # folds < 2 cannot pick among multiple grid points
            {"cv_folds": 0, "lam_grid": (1.0, 2.0)},
            # the solver's inputs must be finite and positive
            {"lam_grid": (float("nan"),)},
            {"lam_grid": (-1.0, 1.0)},
            {"lam_grid": (float("inf"), 1.0)},
            {"sigma2_grid": (0.0,)},
            {"sigma2_grid": (float("nan"), 10.0)},
            {"svm_tol": 0.0},
            {"svm_tol": -1.0},
            {"svm_tol": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LeapsConfig(**kwargs)

    def test_rng_is_seeded_and_fresh(self):
        config = LeapsConfig(seed=42)
        assert config.rng().integers(1 << 30) == config.rng().integers(1 << 30)


def make_log(specs, start_eid=0):
    """Build raw-log lines from (name, [(module, function), ...]) specs."""
    lines = []
    for offset, (name, stack) in enumerate(specs):
        eid = start_eid + offset
        lines.append(f"EVENT|{eid}|{eid * 1000}|1000|app.exe|4|SYSCALL_ENTER|1|{name}")
        for depth, (module, function) in enumerate(stack):
            lines.append(
                f"STACK|{eid}|{depth}|{module}|{function}|0x{0x400000 + depth * 0x40:x}"
            )
    return lines


APP = [("app.exe", "WinMain"), ("app.exe", "work")]
SYS = [("kernel32.dll", "ReadFile"), ("ntoskrnl.exe", "NtReadFile")]
PAYLOAD = [("app.exe", "WinMain"), ("payload.exe", "exfil")]
NET = [("ws2_32.dll", "send"), ("tcpip.sys", "TcpSend")]


def tiny_training_logs(n=24):
    benign = make_log([("read", APP + SYS)] * n)
    mixed_specs = [("read", APP + SYS), ("beacon", PAYLOAD + NET)] * (n // 2)
    mixed = make_log(mixed_specs)
    return benign, mixed


class TestTinyPipeline:
    @pytest.fixture
    def detector(self):
        benign, mixed = tiny_training_logs()
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
        detector.train_from_logs(benign, mixed)
        return detector

    def test_trained_state(self, detector):
        assert detector.trained
        assert detector.report.n_benign_events == 24

    def test_flags_payload_windows(self, detector):
        scan = detector.scan_log(make_log([("beacon", PAYLOAD + NET)] * 6))
        flagged, total = detector.alert_summary(scan)
        assert total == 5
        assert flagged == total

    def test_passes_benign_windows(self, detector):
        scan = detector.scan_log(make_log([("read", APP + SYS)] * 6))
        flagged, _ = detector.alert_summary(scan)
        assert flagged == 0

    def test_short_scan_log_yields_no_windows(self, detector):
        assert detector.scan_log(make_log([("read", APP + SYS)])) == []

    def test_alert_summary_accepts_generator(self, detector):
        """Regression: alert_summary used len() and crashed on the
        scan_stream generator; it must count any iterable in one pass."""
        lines = make_log([("beacon", PAYLOAD + NET)] * 6)
        assert detector.alert_summary(detector.scan_stream(lines)) == (5, 5)
        assert detector.alert_summary(iter([])) == (0, 0)
        # unchanged on sequences
        scan = detector.scan_log(lines)
        assert detector.alert_summary(scan) == (len(scan), len(scan))


class TestPipelineErrors:
    def test_scan_before_train(self):
        """An untrained detector raises before it reads the log."""

        def unread():
            raise AssertionError("the log was read")
            yield

        with pytest.raises(NotTrainedError):
            LeapsDetector().scan_log(unread())

    def test_empty_training_logs_rejected(self):
        with pytest.raises(ValueError):
            LeapsPipeline().train([], [])

    def test_too_short_logs_rejected(self):
        benign, mixed = tiny_training_logs(4)
        pipeline = LeapsPipeline(LeapsConfig(window_events=30))
        with pytest.raises(ValueError, match="too short"):
            pipeline.train(benign, mixed)
