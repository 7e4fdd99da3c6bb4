"""Model bundle persistence: save → load → scan round trips bit-identically,
older bundle schemas still load, and every malformed bundle fails with
:class:`BundleError`."""

import json

import numpy as np
import pytest

from repro import BundleError, BundleVersionError, LeapsConfig, LeapsDetector
from repro.core.persistence import JSON_NAME, NPZ_NAME, SCHEMA, save_bundle

from tests.test_api import make_log
from tests.test_stream_scan import SCAN_SPECS, tiny_detector


@pytest.fixture(scope="module")
def trained():
    return tiny_detector()


@pytest.fixture
def bundle(trained, tmp_path):
    return trained.save(tmp_path / "bundle")


class TestRoundTrip:
    def test_save_returns_bundle_dir_with_both_files(self, bundle):
        assert (bundle / JSON_NAME).is_file()
        assert (bundle / NPZ_NAME).is_file()

    def test_loaded_detector_is_trained(self, bundle):
        loaded = LeapsDetector.load(bundle)
        assert loaded.trained
        # training-time artifacts are deliberately not persisted
        assert loaded.report is None
        assert loaded.benign_cfg is None

    def test_config_round_trips_exactly(self, trained, bundle):
        assert LeapsDetector.load(bundle).config == trained.config

    def test_model_state_round_trips_byte_exactly(self, trained, bundle):
        saved = trained.pipeline.model
        loaded = LeapsDetector.load(bundle).pipeline.model
        assert np.array_equal(loaded._sv_X, saved._sv_X)
        assert np.array_equal(loaded._sv_coef, saved._sv_coef)
        assert np.array_equal(loaded.support_, saved.support_)
        assert np.array_equal(loaded.alpha, saved.alpha)
        assert loaded.b == saved.b
        assert loaded.kernel.sigma2 == saved.kernel.sigma2

    def test_scan_after_load_is_bit_identical(self, trained, bundle):
        lines = make_log(SCAN_SPECS)
        assert LeapsDetector.load(bundle).scan_log(lines) == trained.scan_log(lines)

    def test_unseen_attributes_still_map_to_unknown(self, trained, bundle):
        """The frozen vocabularies must stay frozen through the round
        trip: novel stacks resolve to UNKNOWN, not to fresh ids."""
        loaded = LeapsDetector.load(bundle)
        novel = make_log([("novel", [("other.exe", "main")])] * 4)
        assert loaded.scan_log(novel) == trained.scan_log(novel)

    def test_save_overwrites_in_place(self, trained, bundle):
        again = trained.save(bundle)
        assert again == bundle
        lines = make_log(SCAN_SPECS)
        assert LeapsDetector.load(bundle).scan_log(lines) == trained.scan_log(lines)


class TestSaveErrors:
    def test_untrained_pipeline_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="untrained"):
            LeapsDetector().save(tmp_path / "bundle")

    def test_kernel_without_sigma2_rejected(self, tmp_path):
        detector = tiny_detector()
        del detector.pipeline.model.kernel.sigma2
        with pytest.raises(BundleError, match="sigma2"):
            detector.save(tmp_path / "bundle")

    def test_gram_only_model_rejected(self, tmp_path):
        detector = tiny_detector()
        detector.pipeline.model._sv_X = None
        with pytest.raises(BundleError, match="support"):
            detector.save(tmp_path / "bundle")


class TestLoadErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(BundleError, match="not a model bundle"):
            LeapsDetector.load(tmp_path / "nowhere")

    def test_missing_npz(self, bundle):
        (bundle / NPZ_NAME).unlink()
        with pytest.raises(BundleError, match="not a model bundle"):
            LeapsDetector.load(bundle)

    def test_corrupt_json(self, bundle):
        (bundle / JSON_NAME).write_text("{not json")
        with pytest.raises(BundleError, match="unparseable"):
            LeapsDetector.load(bundle)

    def test_unknown_schema_version_rejected(self, bundle):
        doc = json.loads((bundle / JSON_NAME).read_text())
        doc["schema"] = "leaps-model/v999"
        (bundle / JSON_NAME).write_text(json.dumps(doc))
        with pytest.raises(BundleVersionError, match=SCHEMA):
            LeapsDetector.load(bundle)

    def test_inconsistent_array_counts_rejected(self, bundle):
        doc = json.loads((bundle / JSON_NAME).read_text())
        doc["svm"]["n_sv"] += 1
        (bundle / JSON_NAME).write_text(json.dumps(doc))
        with pytest.raises(BundleError, match="inconsistent"):
            LeapsDetector.load(bundle)

    def test_unknown_config_key_rejected(self, bundle):
        doc = json.loads((bundle / JSON_NAME).read_text())
        doc["config"]["window_evnets"] = 10
        doc["config"].pop("window_events")
        (bundle / JSON_NAME).write_text(json.dumps(doc))
        with pytest.raises(BundleError, match="unknown LeapsConfig keys"):
            LeapsDetector.load(bundle)


def rewrite_doc(bundle, edit):
    doc = json.loads((bundle / JSON_NAME).read_text())
    (bundle / JSON_NAME).write_text(json.dumps(edit(doc)))


def rewrite_arrays(bundle, edit):
    with np.load(bundle / NPZ_NAME) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(bundle / NPZ_NAME, **arrays)


def set_in(doc, section, key, value):
    doc[section][key] = value
    return doc


def without(doc, key):
    del doc[key]
    return doc


MALFORMED_DOCS = {
    "no-svm": lambda doc: without(doc, "svm"),
    "no-vocab": lambda doc: without(doc, "vocab"),
    "list-document": lambda doc: [doc],
    "string-document": lambda doc: "leaps-model/v2",
    "negative-n-train": lambda doc: set_in(doc, "svm", "n_train", -1),
    "float-n-train": lambda doc: set_in(doc, "svm", "n_train", 1e3),
    "n-train-below-n-sv": lambda doc: set_in(doc, "svm", "n_train", 1),
    "non-numeric-intercept": lambda doc: set_in(doc, "svm", "b", "zero"),
    "bad-sigma2": lambda doc: set_in(doc, "selection", "sigma2", -1.0),
    "nan-sigma2": lambda doc: set_in(doc, "selection", "sigma2", float("nan")),
    "inf-sigma2": lambda doc: set_in(doc, "selection", "sigma2", float("inf")),
    "nan-intercept": lambda doc: set_in(doc, "svm", "b", float("nan")),
    "inf-intercept": lambda doc: set_in(doc, "svm", "b", float("-inf")),
    "invalid-config-value": lambda doc: set_in(doc, "config", "stride", 0),
    "mistyped-config": lambda doc: set_in(doc, "config", "window_events", "2"),
    "short-vocab-entry": lambda doc: set_in(doc, "vocab", "etype", [["x", 1]]),
}


def shift_support(arrays, offset):
    arrays["support"] = arrays["support"] + offset


def set_entry(arrays, name, value):
    array = arrays[name].copy()
    array.flat[0] = value
    arrays[name] = array


MALFORMED_ARRAYS = {
    "support-past-n-train": lambda a: shift_support(a, 10**6),
    "negative-support": lambda a: shift_support(a, -(10**6)),
    "float-support": lambda a: a.update(support=a["support"].astype(float)),
    "unsorted-support": lambda a: a.update(support=a["support"][::-1].copy()),
    "missing-member": lambda a: a.pop("scaler_scale"),
    "3d-support-vectors": lambda a: a.update(sv_X=a["sv_X"][..., None]),
    "scaler-width": lambda a: a.update(scaler_mean=a["scaler_mean"][:-1]),
    "nan-support-vector": lambda a: set_entry(a, "sv_X", np.nan),
    "inf-dual-coefficient": lambda a: set_entry(a, "sv_coef", np.inf),
    "nan-scaler-mean": lambda a: set_entry(a, "scaler_mean", np.nan),
    "zero-scaler-scale": lambda a: set_entry(a, "scaler_scale", 0.0),
    "negative-scaler-scale": lambda a: set_entry(a, "scaler_scale", -1.0),
}


class TestMalformedBundles:
    """``load_bundle`` raises ``BundleError`` for any malformed bundle,
    never a bare ``KeyError``/``IndexError``/``ValueError`` — the serve
    tier's stream-open handler relies on it."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
    def test_malformed_document(self, bundle, case):
        rewrite_doc(bundle, MALFORMED_DOCS[case])
        with pytest.raises(BundleError):
            LeapsDetector.load(bundle)

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARRAYS))
    def test_malformed_arrays(self, trained, bundle, case):
        assert trained.pipeline.model.support_.size > 1  # non-vacuous
        rewrite_arrays(bundle, MALFORMED_ARRAYS[case])
        with pytest.raises(BundleError):
            LeapsDetector.load(bundle)

    @pytest.mark.parametrize("payload", [b"", b"PK\x03\x04 truncated"])
    def test_corrupt_npz(self, bundle, payload):
        (bundle / NPZ_NAME).write_bytes(payload)
        with pytest.raises(BundleError):
            LeapsDetector.load(bundle)

    def test_non_utf8_json(self, bundle):
        (bundle / JSON_NAME).write_bytes(b"\xff\xfe{}")
        with pytest.raises(BundleError, match="unparseable"):
            LeapsDetector.load(bundle)


class TestSchemaVersions:
    def test_save_writes_v2_without_partner_rule(self, bundle):
        doc = json.loads((bundle / JSON_NAME).read_text())
        assert doc["schema"] == SCHEMA == "leaps-model/v2"
        assert "partner_rule" not in doc["svm"]

    def test_v1_bundle_scans_bit_identically(self, trained, bundle):
        """A bundle in the v1 layout (old schema string plus the
        ``svm.partner_rule`` field it carried) still loads."""

        def as_v1(doc):
            doc["schema"] = "leaps-model/v1"
            doc["svm"]["partner_rule"] = "vectorized"
            return doc

        rewrite_doc(bundle, as_v1)
        lines = make_log(SCAN_SPECS)
        assert LeapsDetector.load(bundle).scan_log(lines) == trained.scan_log(lines)

    @staticmethod
    def assert_retired_keys_ignored(trained, bundle, config_keys, svm_keys=None):
        """A bundle written before the given keys were retired loads
        with them ignored and scans bit-identically; any other unknown
        key still raises (``test_unknown_config_key_rejected``)."""

        def with_retired_keys(doc):
            doc["config"].update(config_keys)
            doc["svm"].update(svm_keys or {})
            return doc

        rewrite_doc(bundle, with_retired_keys)
        lines = make_log(SCAN_SPECS)
        loaded = LeapsDetector.load(bundle)
        assert loaded.config == trained.config
        assert loaded.scan_log(lines) == trained.scan_log(lines)
        assert list(loaded.scan_stream(lines)) == trained.scan_log(lines)

    def test_retired_serve_keys_scan_bit_identically(self, trained, bundle):
        """The serve batching fields ``LeapsConfig`` once carried."""
        self.assert_retired_keys_ignored(
            trained, bundle,
            {"serve_flush_deadline_s": 0.05, "serve_target_batch_windows": 1024},
        )

    def test_retired_solver_keys_scan_bit_identically(self, trained, bundle):
        """The Platt SMO settings: two config fields and three ``svm``
        keys that new bundles no longer write."""
        doc = json.loads((bundle / JSON_NAME).read_text())
        assert not {"max_passes", "max_sweeps", "seed"} & set(doc["svm"])
        self.assert_retired_keys_ignored(
            trained, bundle,
            {"svm_max_passes": 5, "svm_max_sweeps": 200},
            {"max_passes": 5, "max_sweeps": 200, "seed": 0},
        )


def test_save_bundle_is_detector_save(trained, tmp_path):
    """The pipeline-level entry point and the detector method agree."""
    a = save_bundle(trained.pipeline, tmp_path / "a")
    b = trained.save(tmp_path / "b")
    assert (a / JSON_NAME).read_text() == (b / JSON_NAME).read_text()


@pytest.mark.e2e
class TestGoldenRoundTrip:
    @pytest.fixture(scope="class")
    def golden(self, generated_row, tmp_path_factory):
        config = LeapsConfig(
            lam_grid=(1.0,),
            sigma2_grid=(30.0,),
            cv_folds=0,
            max_train_windows=400,
            seed=0,
        )
        detector = LeapsDetector(config)
        detector.train_from_logs(
            (generated_row / "benign.log").read_text().splitlines(),
            (generated_row / "mixed.log").read_text().splitlines(),
        )
        bundle = detector.save(tmp_path_factory.mktemp("bundle") / "model")
        return detector, LeapsDetector.load(bundle)

    @pytest.mark.parametrize("log", ["benign.log", "mixed.log", "malicious.log"])
    def test_loaded_scan_equals_in_memory(self, golden, generated_row, log):
        detector, loaded = golden
        lines = (generated_row / log).read_text().splitlines()
        in_memory = detector.scan_log(lines)
        assert loaded.scan_log(lines) == in_memory
        assert in_memory  # non-vacuous: every golden log yields windows
