"""End-to-end smoke test on a generated catalog row.

Trains from ``benign.log`` (first half) + ``mixed.log``, scans
``malicious.log`` and the held-out benign half, and asserts the paper's
core qualitative claim: the CFG-weighted SVM beats the unweighted SVM
trained on the same features, because the plain SVM's boundary is
dragged by the benign noise mislabeled as malicious in the mixed log.

The row is the session's ``generated_row``, an online reverse-TCP
injection (``tests.conftest.GENERATED_ROW``);
``tests/test_e2e_generated.py`` runs the same protocol on an offline
row at another scale.
"""

import numpy as np
import pytest

from repro import LeapsConfig, LeapsDetector
from repro.datasets import generate_dataset
from repro.etw.parser import RawLogParser, serialize_events
from repro.learning.metrics import ConfusionMatrix

pytestmark = pytest.mark.e2e


def fast_config(weighted):
    return LeapsConfig(
        window_events=10,
        stride=5,
        weighted=weighted,
        lam_grid=(1.0, 10.0),
        sigma2_grid=(30.0,),
        cv_folds=2,
        max_train_windows=400,
        seed=0,
    )


@pytest.fixture(scope="module")
def logs(generated_row):
    benign = (generated_row / "benign.log").read_text().splitlines()
    mixed = (generated_row / "mixed.log").read_text().splitlines()
    malicious = (generated_row / "malicious.log").read_text().splitlines()
    # 50/50 benign split (paper's protocol): first half trains, second
    # half is the clean test traffic.  Round-trips through the serializer.
    events = RawLogParser().parse_lines(benign)
    half = len(events) // 2
    return {
        "benign_train": serialize_events(events[:half]),
        "benign_test": serialize_events(events[half:]),
        "mixed": mixed,
        "malicious": malicious,
    }


def train_and_evaluate(weighted, logs):
    detector = LeapsDetector(fast_config(weighted))
    report = detector.train_from_logs(logs["benign_train"], logs["mixed"])
    benign_hits = detector.scan_log(logs["benign_test"])
    malicious_hits = detector.scan_log(logs["malicious"])
    y_true = np.concatenate([np.ones(len(benign_hits)), -np.ones(len(malicious_hits))])
    y_pred = np.array(
        [-1.0 if d.malicious else 1.0 for d in benign_hits + malicious_hits]
    )
    return detector, report, ConfusionMatrix.from_labels(y_true, y_pred)


@pytest.fixture(scope="module")
def wsvm(logs):
    return train_and_evaluate(True, logs)


@pytest.fixture(scope="module")
def plain_svm(logs):
    return train_and_evaluate(False, logs)


class TestTrainingPhase:
    def test_report_counts(self, wsvm):
        _, report, _ = wsvm
        assert report.n_benign_events > 0 and report.n_mixed_events > 0
        assert report.n_train_windows == 400

    def test_mixed_weights_are_informative(self, wsvm):
        """Algorithm 2 must split the mixed log: some windows near 0
        (benign noise), some near 1 (payload activity)."""
        _, report, _ = wsvm
        assert 0.05 < report.mean_mixed_weight < 0.95

    def test_benign_cfg_nontrivial(self, wsvm):
        detector, _, _ = wsvm
        assert detector.benign_cfg.node_count > 5
        assert detector.benign_cfg.edge_count > 5
        # the mixed CFG strictly extends the benign one (payload paths)
        assert detector.mixed_cfg.node_count > detector.benign_cfg.node_count


class TestPaperClaim:
    def test_wsvm_beats_plain_svm(self, wsvm, plain_svm):
        _, _, weighted_cm = wsvm
        _, _, plain_cm = plain_svm
        assert weighted_cm.accuracy > plain_cm.accuracy

    def test_wsvm_absolute_quality(self, wsvm):
        _, _, cm = wsvm
        assert cm.accuracy >= 0.9
        assert cm.tnr >= 0.9  # catches the malicious log
        assert cm.tpr >= 0.9  # does not flag clean traffic

    def test_plain_svm_overflags_benign(self, wsvm, plain_svm):
        """The biased boundary shows up as benign windows flagged
        malicious — lower TPR (benign = positive class) for plain SVM."""
        _, _, weighted_cm = wsvm
        _, _, plain_cm = plain_svm
        assert plain_cm.tpr < weighted_cm.tpr


class TestScanAPI:
    def test_detection_metadata(self, wsvm, logs):
        detector, _, _ = wsvm
        detections = detector.scan_log(logs["malicious"])
        assert detections, "malicious log produced no windows"
        first = detections[0]
        assert first.end_eid >= first.start_eid
        flagged, total = detector.alert_summary(detections)
        assert total == len(detections)
        assert flagged / total >= 0.9

    def test_deterministic_under_fixed_seed(self, wsvm, logs):
        detector, _, _ = wsvm
        repeat = LeapsDetector(fast_config(True))
        repeat.train_from_logs(logs["benign_train"], logs["mixed"])
        assert repeat.scan_log(logs["malicious"]) == detector.scan_log(
            logs["malicious"]
        )


@pytest.mark.slow
def test_full_config_offline_dataset(tmp_path):
    """Default (slower) config on an offline-infection row at the
    default log sizes: same qualitative ordering.  Excluded from tier-1
    via the slow marker."""
    dataset = generate_dataset(
        "notepad++_reverse_https", tmp_path / "row", seed=0
    ).root
    benign = (dataset / "benign.log").read_text().splitlines()
    mixed = (dataset / "mixed.log").read_text().splitlines()
    malicious = (dataset / "malicious.log").read_text().splitlines()
    events = RawLogParser().parse_lines(benign)
    half = len(events) // 2
    results = {}
    for weighted in (True, False):
        detector = LeapsDetector(LeapsConfig(weighted=weighted, seed=0))
        detector.train_from_logs(serialize_events(events[:half]), mixed)
        benign_hits = detector.scan_log(serialize_events(events[half:]))
        malicious_hits = detector.scan_log(malicious)
        y_true = np.concatenate(
            [np.ones(len(benign_hits)), -np.ones(len(malicious_hits))]
        )
        y_pred = np.array(
            [-1.0 if d.malicious else 1.0 for d in benign_hits + malicious_hits]
        )
        results[weighted] = ConfusionMatrix.from_labels(y_true, y_pred).accuracy
    assert results[True] > results[False]
    assert results[True] >= 0.85
