"""The columnar training prepare against the record-based oracle.

``LeapsPipeline.prepare_training_many`` parses every log into columns,
partitions each used walk once, and fits and featurizes from per-walk
tables; ``tests/oracles/prepare.py`` does the same work one event at a
time on records.  Both must give the same ``X``/``y``/``c`` bytes, the
same vocabulary key order and equal CFGs, and raise the same errors.
"""

import numpy as np
import pytest

from repro import LeapsConfig, LeapsDetector
from repro.core.persistence import pipeline_fingerprint
from repro.core.pipeline import LeapsPipeline
from repro.etw.capture import load_capture
from repro.etw.fastparse import parse_columns, parse_fast
from repro.etw.parser import serialize_events
from repro.etw.stack_partition import StackPartitionError

from tests.oracles.prepare import prepare_training_naive
from tests.test_api import APP, NET, PAYLOAD, SYS, make_log

#: tiny logs need tiny windows
TINY = dict(window_events=2, stride=1, max_train_windows=0)
#: app frames below system frames: two walks that fail to partition,
#: each with its own message
BAD_SYS_FIRST = ("bad", SYS + APP)
BAD_NET_FIRST = ("worse", NET + [("payload.exe", "exfil")])


def assert_prepared_equal(config, benign_logs, mixed_logs):
    """The columnar prepare equals the oracle bit for bit."""
    columnar, naive = LeapsPipeline(config), LeapsPipeline(config)
    got = columnar.prepare_training_many(benign_logs, mixed_logs)
    want = prepare_training_naive(naive, benign_logs, mixed_logs)
    for name in ("X", "y", "c"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name
    assert (got.importances is None) == (want.importances is None)
    for name in (
        "n_benign_events", "n_mixed_events", "n_benign_windows",
        "n_mixed_windows", "mean_mixed_weight",
    ):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("etype_vocab", "app_vocab", "system_vocab"):
        assert list(getattr(columnar.featurizer, name).keys()) == list(
            getattr(naive.featurizer, name).keys()
        ), name
    assert columnar.benign_cfg == naive.benign_cfg
    assert columnar.mixed_cfg == naive.mixed_cfg
    assert [stage for stage, _ in got.stage_seconds] == [
        "parse", "partition", "cfg_inference", "weights", "featurize",
    ]
    return got


def with_blank_lines(lines):
    """Blank and whitespace-only lines before the first line and after
    every seventh, inside stack blocks too."""
    out = [""]
    for position, line in enumerate(lines):
        out.append(line)
        if position % 7 == 3:
            out.append(" \t" if position % 2 else "")
    return out


def past_int64(lines):
    """Eids and opcodes pushed past int64 (the text format bounds
    neither)."""
    out = []
    for line in lines:
        tag, eid, rest = line.split("|", 2)
        eid = int(eid) + 2**63
        if tag == "EVENT":
            rest = rest.replace("|SYSCALL_ENTER|1|", f"|SYSCALL_ENTER|{2**64 + 1}|")
        out.append(f"{tag}|{eid}|{rest}")
    return out


def tiny_logs():
    benign = make_log([("read", APP + SYS), ("send", APP + NET)] * 12)
    mixed = make_log([("read", APP + SYS), ("beacon", PAYLOAD + NET)] * 12)
    return benign, mixed


@pytest.fixture(scope="module")
def row_logs(generated_row):
    """The generated row's training logs as bytes, the form
    ``fit_logs`` reads a text path in."""
    return [
        (generated_row / f"{stem}.log").read_bytes() for stem in ("benign", "mixed")
    ]


class TestMatchesOracle:
    def test_generated_row(self, row_logs):
        benign, mixed = row_logs
        prepared = assert_prepared_equal(LeapsConfig(), [benign], [mixed])
        assert prepared.n_mixed_windows and prepared.mean_mixed_weight > 0

    def test_two_log_fleet(self, row_logs):
        halves = []
        for log in row_logs:
            events = parse_fast(log)
            half = len(events) // 2
            halves.append(
                [serialize_events(events[:half]), serialize_events(events[half:])]
            )
        assert_prepared_equal(LeapsConfig(), *halves)

    def test_blank_lines(self, row_logs):
        benign, mixed = (
            with_blank_lines(log.decode().splitlines()) for log in row_logs
        )
        assert_prepared_equal(LeapsConfig(), [benign], [mixed])

    def test_corrupt_line_under_drop(self, row_logs):
        """A corrupt line sends the parse down the scalar path."""
        benign, mixed = (log.decode().splitlines() for log in row_logs)
        mixed = mixed[:40] + ["@@corrupt@@"] + mixed[40:]
        assert_prepared_equal(LeapsConfig(parse_policy="drop"), [benign], [mixed])

    def test_eids_and_opcodes_past_int64(self):
        benign, mixed = (past_int64(log) for log in tiny_logs())
        assert "|SYSCALL_ENTER|18446744073709551617|" in benign[0]
        assert_prepared_equal(LeapsConfig(**TINY), [benign], [mixed])

    def test_unweighted(self, row_logs):
        prepared = assert_prepared_equal(
            LeapsConfig(weighted=False), [row_logs[0]], [row_logs[1]]
        )
        assert prepared.importances is None

    def test_max_window_weights(self, row_logs):
        assert_prepared_equal(
            LeapsConfig(window_weight_agg="max"), [row_logs[0]], [row_logs[1]]
        )

    def test_event_logs_and_tiny_windows(self):
        benign, mixed = tiny_logs()
        assert_prepared_equal(
            LeapsConfig(**TINY),
            [parse_columns(benign), benign[:20]],
            [mixed, parse_columns(mixed[:30])],
        )


class TestPartitionErrors:
    """A walk that fails to partition raises the oracle's error: the
    first failing walk in event order, benign logs before mixed ones."""

    @staticmethod
    def raised(prepare, benign, mixed):
        with pytest.raises(StackPartitionError) as error:
            prepare(LeapsPipeline(LeapsConfig(**TINY)), [benign], [mixed])
        return str(error.value)

    @pytest.mark.parametrize(
        "benign_bad,mixed_bad",
        [
            ((BAD_NET_FIRST, BAD_SYS_FIRST), ()),
            ((), (BAD_SYS_FIRST, BAD_NET_FIRST)),
            ((BAD_SYS_FIRST,), (BAD_NET_FIRST,)),
        ],
        ids=["benign", "mixed", "benign-before-mixed"],
    )
    def test_same_error_as_oracle(self, benign_bad, mixed_bad):
        clean = [("read", APP + SYS), ("send", APP + NET)] * 6
        benign = make_log(clean + list(benign_bad) * 2 + clean)
        mixed = make_log(clean + list(mixed_bad) * 2 + clean)
        want = self.raised(prepare_training_naive, benign, mixed)
        got = self.raised(LeapsPipeline.prepare_training_many, benign, mixed)
        assert got == want
        _, stack = (benign_bad or mixed_bad)[0]
        module, function = stack[len(SYS)]  # the first app frame below
        assert got.startswith(f"app frame {module}!{function} ")


def test_fit_logs_input_forms_train_one_model(generated_row):
    """A text path, a line list, a capture path and the columns of the
    same logs train one model."""
    config = LeapsConfig(
        lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0, max_train_windows=200
    )
    forms = {
        "text path": lambda stem: generated_row / f"{stem}.log",
        "line list": lambda stem: (generated_row / f"{stem}.log")
        .read_text()
        .splitlines(),
        "capture path": lambda stem: str(generated_row / f"{stem}.leapscap"),
        "columns": lambda stem: load_capture(
            generated_row / f"{stem}.leapscap"
        ).columns,
    }
    fingerprints = {}
    for form, log in forms.items():
        detector = LeapsDetector(config)
        detector.fit_logs([log("benign")], [log("mixed")])
        fingerprints[form] = pipeline_fingerprint(detector.pipeline)
    assert len(set(fingerprints.values())) == 1, fingerprints
    assert np.isfinite(detector.report.mean_mixed_weight)
