"""Generation fast path: the vectorized columnar synthesizer must be
byte-identical to the per-event tracer (text, captures, labels), for
any worker count and any segmentation.

The tracer is the oracle (``tests/oracles/generation.py``): it walks
one event at a time through EventTracer with scalar cursors over the
same indexed word streams.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.catalog import CATALOG, DatasetSpec
from repro.datasets.fastgen import (
    pick_indices,
    segment_bounds,
    stream_words,
    unit_floats,
)
from repro.datasets.generation import (
    MIXED_ATTACK_RATE,
    ScenarioGenerator,
    generate_dataset,
)
from repro.etw.capture import CAPTURE_SUFFIX, captures_byte_identical

from tests.conftest import REPO_ROOT
from tests.oracles.generation import (
    WordClock,
    WordStream,
    generate_dataset_naive,
    pick_index,
)

SUBSET = ("vim_reverse_tcp", "putty_codeinject", "winscp_reverse_https_online")
TRAIN_EVENTS = 400
SCAN_EVENTS = 200
LOG_NAMES = ("benign.log", "mixed.log", "malicious.log")
DIGESTS_PATH = REPO_ROOT / "tests" / "generation_digests.json"
DIGEST_PARAMS = {
    "datasets": list(SUBSET), "train_events": TRAIN_EVENTS,
    "scan_events": SCAN_EVENTS, "format": "both", "seed": 0,
}


def dataset_bytes(root):
    """Every byte the generator emits, keyed by relative path."""
    out = {}
    for name in LOG_NAMES:
        path = root / name
        if path.exists():
            out[name] = path.read_bytes()
    out["labels.json"] = (root / "labels.json").read_bytes()
    return out


def dataset_digests(root):
    """sha256 of every generated output: each text log, labels.json,
    and per capture its capture.json plus one digest over every array's
    name, dtype, shape and raw bytes (the ``.npz`` container bytes hold
    zip timestamps and numpy's header layout, so they are not pinned)."""
    out = {}
    for name in LOG_NAMES + ("labels.json",):
        out[name] = hashlib.sha256((root / name).read_bytes()).hexdigest()
    for name in LOG_NAMES:
        capture = (root / name).with_suffix(CAPTURE_SUFFIX)
        out[f"{capture.name}/capture.json"] = hashlib.sha256(
            (capture / "capture.json").read_bytes()
        ).hexdigest()
        digest = hashlib.sha256()
        with np.load(capture / "arrays.npz") as arrays:
            for member in sorted(arrays.files):
                array = np.ascontiguousarray(arrays[member])
                digest.update(
                    f"{member}:{array.dtype.str}:{array.shape}".encode("utf-8")
                )
                digest.update(array.tobytes())
        out[f"{capture.name}/arrays"] = digest.hexdigest()
    return out


def generate_subset_digests(root):
    return {
        name: dataset_digests(
            generate_dataset(
                name, root / name, train_events=TRAIN_EVENTS,
                scan_events=SCAN_EVENTS, format="both",
            ).root
        )
        for name in SUBSET
    }


class TestStreamPrimitives:
    """Scalar cursors and vector fetches read the same word stream."""

    def test_wordstream_equals_stream_words(self):
        stream = WordStream("tag:a", chunk=7)
        scalar = [stream.next_word() for _ in range(100)]
        vector = stream_words("tag:a", 0, 100)
        assert scalar == vector.tolist()

    def test_stream_words_is_seekable(self):
        full = stream_words("tag:b", 0, 64)
        for start, stop in [(0, 5), (3, 17), (30, 64), (63, 64)]:
            assert stream_words("tag:b", start, stop).tolist() == (
                full[start:stop].tolist()
            )

    def test_wordclock_matches_jitter_formula(self):
        clock = WordClock("tag:c")
        draws = [clock.randrange(120, 2400) for _ in range(32)]
        words = stream_words("tag:c", 0, 32)
        assert draws == (120 + words % np.uint64(2280)).tolist()

    def test_pick_index_equals_pick_indices(self):
        weights = np.array([3.0, 1.0, 0.5, 2.5])
        cum = np.cumsum(weights)
        total = float(cum[-1])
        words = stream_words("tag:d", 0, 50)
        vector = pick_indices(cum, total, words)
        scalar = [pick_index(cum, total, int(w)) for w in words]
        assert scalar == vector.tolist()
        assert np.all(unit_floats(words) < 1.0)


@pytest.mark.parametrize("name", SUBSET)
class TestEngineByteIdentity:
    """fast == naive on text logs, captures, and labels.json."""

    def test_fast_equals_naive(self, name, tmp_path):
        fast = generate_dataset(
            name, tmp_path / "fast", train_events=TRAIN_EVENTS,
            scan_events=SCAN_EVENTS, format="both",
        )
        naive = generate_dataset_naive(
            name, tmp_path / "naive", train_events=TRAIN_EVENTS,
            scan_events=SCAN_EVENTS, format="both",
        )
        assert dataset_bytes(fast.root) == dataset_bytes(naive.root)
        for log_name in LOG_NAMES:
            assert captures_byte_identical(
                (fast.root / log_name).with_suffix(CAPTURE_SUFFIX),
                (naive.root / log_name).with_suffix(CAPTURE_SUFFIX),
            ), log_name


class TestPinnedDigests:
    """Generator output pinned to committed digests, so a change to
    generation is caught even if production and oracle drift together.
    Regenerate after an intended change with
    ``PYTHONPATH=src python -m tests.test_fastgen > tests/generation_digests.json``.
    """

    def test_subset_matches_committed_digests(self, tmp_path):
        committed = json.loads(DIGESTS_PATH.read_text())
        assert committed["params"] == DIGEST_PARAMS
        assert generate_subset_digests(tmp_path) == committed["digests"]


class TestWorkerInvariance:
    @pytest.mark.parametrize("executor", ["process", "thread"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_sharded_equals_serial(self, tmp_path, n_jobs, executor):
        reference = generate_dataset(
            "vim_reverse_tcp", tmp_path / "ref", train_events=TRAIN_EVENTS,
            scan_events=SCAN_EVENTS, format="text",
        )
        sharded = generate_dataset(
            "vim_reverse_tcp", tmp_path / f"j{n_jobs}-{executor}",
            train_events=TRAIN_EVENTS, scan_events=SCAN_EVENTS,
            format="text", n_jobs=n_jobs, executor=executor,
        )
        assert dataset_bytes(sharded.root) == dataset_bytes(reference.root)


class TestSegmentation:
    """Segment-merged synthesis equals single-shot at any boundaries."""

    @pytest.fixture(scope="class")
    def synth(self):
        generator = ScenarioGenerator(CATALOG["putty_reverse_tcp"], seed=3)
        return generator.session_synth(
            "mixed.log", 600, MIXED_ATTACK_RATE, "A"
        )

    @pytest.fixture(scope="class")
    def whole(self, synth):
        return synth.synthesize()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_cuts_merge_to_single_shot(self, synth, whole, data):
        n = synth.n_events
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=n - 1), max_size=6)
            )
        )
        bounds = list(zip([0] + cuts, cuts + [n]))
        type_ids = np.concatenate(
            [synth.type_ids(a, b) for a, b in bounds]
        )
        timestamps = np.concatenate(
            [synth.timestamps(a, b) for a, b in bounds]
        )
        assert np.array_equal(type_ids, whole.type_ids)
        assert np.array_equal(timestamps, whole.timestamps)

    @settings(max_examples=25, deadline=None)
    @given(segment_events=st.integers(min_value=1, max_value=700))
    def test_segment_bounds_cover_and_respect_bursts(
        self, synth, segment_events
    ):
        bounds = segment_bounds(synth.layout, segment_events)
        assert bounds[0][0] == 0 and bounds[-1][1] == synth.n_events
        for (_, a_stop), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_stop == b_start
        starts = synth.layout.starts
        ends = synth.layout.ends
        for _, stop in bounds[:-1]:
            inside = (starts < stop) & (stop < ends)
            assert not inside.any(), f"cut {stop} splits a burst"


class TestGenerateDatasetSurface:
    def test_accepts_dataset_spec(self, tmp_path):
        spec = CATALOG["vim_reverse_tcp"]
        by_spec = generate_dataset(
            spec, tmp_path / "spec", train_events=TRAIN_EVENTS,
            scan_events=SCAN_EVENTS,
        )
        by_name = generate_dataset(
            spec.name, tmp_path / "name", train_events=TRAIN_EVENTS,
            scan_events=SCAN_EVENTS,
        )
        assert by_spec.spec is spec
        assert dataset_bytes(by_spec.root) == dataset_bytes(by_name.root)

    def test_custom_spec_roundtrips(self, tmp_path):
        spec = DatasetSpec("custom_vim", "vim", "reverse_tcp", "online")
        dataset = generate_dataset(
            spec, tmp_path / "custom", train_events=TRAIN_EVENTS,
            scan_events=SCAN_EVENTS,
        )
        labels = json.loads((dataset.root / "labels.json").read_text())
        assert labels["dataset"] == "custom_vim"
        assert labels["method"] == "online"

    @pytest.mark.parametrize(
        "format,texts,captures",
        [("text", 3, 0), ("capture", 0, 3), ("both", 3, 3)],
    )
    def test_format_selects_sinks(self, tmp_path, format, texts, captures):
        dataset = generate_dataset(
            "vim_reverse_tcp", tmp_path / format,
            train_events=TRAIN_EVENTS, scan_events=SCAN_EVENTS,
            format=format,
        )
        assert len(list(dataset.root.glob("*.log"))) == texts
        assert len(list(dataset.root.glob(f"*{CAPTURE_SUFFIX}"))) == captures
        assert (dataset.root / "labels.json").exists()

    def test_rejects_unknown_format_and_engine(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset("vim_reverse_tcp", tmp_path, format="xml")
        # one synthesis path: the per-event engine is a test oracle only
        with pytest.raises(TypeError, match="engine"):
            generate_dataset("vim_reverse_tcp", tmp_path, engine="naive")


class TestCommittedBenchTable1:
    """The committed Table-I bench must record the acceptance bar: the
    fast generator ≥10x the per-event tracer and byte-identical on
    every row."""

    @pytest.fixture(scope="class")
    def doc(self):
        path = REPO_ROOT / "BENCH_table1.json"
        if not path.is_file():
            pytest.skip("BENCH_table1.json not committed")
        return json.loads(path.read_text())

    def test_schema_and_coverage(self, doc):
        assert doc["schema"] == "leaps-bench-table1/v1"
        assert doc["summary"]["rows"] == len(doc["datasets"]) == len(CATALOG)

    def test_speedup_and_identity_on_every_row(self, doc):
        for row in doc["datasets"]:
            generation = row["generation"]
            assert generation["byte_identical"] is True, row["dataset"]
            assert generation["speedup"] >= 10.0, (
                f"{row['dataset']}: generation speedup "
                f"{generation['speedup']:.1f}x below the 10x bar"
            )

    def test_worker_invariance_recorded(self, doc):
        runs = doc["jobs_scaling"]["runs"]
        assert {run["n_jobs"] for run in runs} >= {1, 2}
        assert all(run["byte_identical_with_1"] for run in runs)

    def test_detection_quality_recorded(self, doc):
        summary = doc["summary"]
        assert summary["wsvm_mean_acc"] > 0.6
        assert summary["wsvm_beats_svm_rows"] == summary["rows"]
        assert summary["mean_event_auc"] > 0.8
        for row in doc["datasets"]:
            assert set(row["paper"]) == set(row["wsvm"]) == {
                "acc", "ppv", "tpr", "tnr", "npv"
            }


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        digests = generate_subset_digests(Path(scratch))
    print(json.dumps({"params": DIGEST_PARAMS, "digests": digests}, indent=2))
