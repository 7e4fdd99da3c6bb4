"""Versioned on-disk model bundles — train once, fan out to N scanners.

A trained :class:`~repro.core.pipeline.LeapsPipeline` serializes to a
*bundle directory* holding exactly two files:

``bundle.json``
    Schema version, the :class:`~repro.core.config.LeapsConfig`, the
    fitted attribute vocabularies (keys in first-appearance order — ids
    are implied by position, so featurization round-trips exactly), the
    selected (λ, σ²), and the scalar SVM state (intercept, solver
    settings, solver health).
``arrays.npz``
    Every float array, byte-exact: standardized support vectors, their
    dual coefficients and α values, the support indices into the
    training set, and the standardizer's mean/scale.

Floats ride in the ``.npz`` (lossless IEEE-754 bytes); JSON carries only
structure, strings, and ints — so ``save → load → scan`` produces
*bit-identical* detections to the in-memory detector, which the tests
assert.

Training-time artifacts (the benign/mixed CFGs, the ``TrainingReport``)
are deliberately **not** persisted: a scanner process needs none of
them, and fleet fan-out is the point of the bundle.  Loading a bundle
yields a pipeline that scans; retraining it builds fresh state.

The ``schema`` field is checked on load.  Unknown versions raise
:class:`BundleVersionError` — a scanner must never silently
misinterpret a bundle written by a newer trainer.  ``leaps-model/v2``
dropped a v1 solver field that could never change the fitted model (the
SMO partner-selection rule); v1 bundles still load, the field ignored,
and scan bit-identically.  So do bundles that still carry Platt's SMO
settings (``svm.max_passes``/``max_sweeps``/``seed``, which the loader
never reads) or retired config keys (``LeapsConfig.from_dict`` drops
them).  Any other defect — missing keys, wrong types, arrays that
disagree with each other, a non-finite value, a non-positive
standardizer scale — raises :class:`BundleError`, never a bare
``KeyError`` or ``IndexError``.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.config import LeapsConfig
from repro.learning.kernels import gaussian_kernel
from repro.learning.scaling import Standardizer
from repro.learning.wsvm import WeightedSVM
from repro.preprocessing.features import EventFeaturizer, Vocabulary

#: Bundle schema identifier; bump the suffix on incompatible changes.
SCHEMA = "leaps-model/v2"
#: Schemas :func:`load_bundle` reads: the current one and v1.
_READABLE_SCHEMAS = ("leaps-model/v1", SCHEMA)

JSON_NAME = "bundle.json"
NPZ_NAME = "arrays.npz"


class BundleError(RuntimeError):
    """The bundle is missing, malformed, or cannot be written."""


class BundleVersionError(BundleError):
    """The bundle's schema version is not one this code understands."""


def _vocab_keys_etype(vocab: Vocabulary) -> list:
    # etype = (category: str, opcode: int, name: str)
    return [[category, opcode, name] for category, opcode, name in vocab.keys()]


def _vocab_keys_path(vocab: Vocabulary) -> list:
    # signature = ((module, function), ...)
    return [[[module, function] for module, function in key] for key in vocab.keys()]


def _restore_vocab(keys) -> Vocabulary:
    vocab = Vocabulary()
    for key in keys:
        vocab.add(key)
    vocab.freeze()
    return vocab


def _bundle_doc(pipeline) -> dict:
    """The JSON document of a trained pipeline (fingerprint excluded)."""
    model = pipeline.model
    featurizer = pipeline.featurizer
    standardizer = pipeline.standardizer
    if model is None or featurizer is None or standardizer is None:
        raise BundleError("cannot save an untrained pipeline")
    sigma2 = getattr(model.kernel, "sigma2", None)
    if sigma2 is None:
        raise BundleError(
            "only Gaussian-kernel models serialize (kernel has no sigma2)"
        )
    if model._sv_X is None:
        raise BundleError(
            "model was fit from a precomputed gram without X; support "
            "vectors are required to scan from a bundle"
        )
    return {
        "schema": SCHEMA,
        "config": pipeline.config.to_dict(),
        "selection": {"lam": float(model.lam), "sigma2": float(sigma2)},
        "svm": {
            "b": float(model.b),
            "tol": float(model.tol),
            "n_train": int(len(model.alpha)),
            "n_sv": int(len(model.support_)),
            "n_sweeps": int(model.n_sweeps_),
            "converged": bool(model.converged_),
        },
        "vocab": {
            "etype": _vocab_keys_etype(featurizer.etype_vocab),
            "app": _vocab_keys_path(featurizer.app_vocab),
            "system": _vocab_keys_path(featurizer.system_vocab),
        },
    }


def _bundle_arrays(pipeline) -> dict:
    """Every float/int array of a trained pipeline, by npz member name."""
    model = pipeline.model
    standardizer = pipeline.standardizer
    return {
        "sv_X": model._sv_X,
        "sv_coef": model._sv_coef,
        "sv_alpha": model.alpha[model.support_],
        "support": model.support_,
        "scaler_mean": standardizer.mean_,
        "scaler_scale": standardizer.scale_,
    }


def pipeline_fingerprint(pipeline) -> str:
    """Content hash of everything a bundle would persist for this
    pipeline: the canonical JSON document plus every array's name,
    dtype, shape, and raw bytes.  Two pipelines that scan identically
    share a fingerprint; any retrain that changes scan behaviour
    changes it."""
    doc = _bundle_doc(pipeline)
    digest = hashlib.sha256()
    digest.update(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for name, array in sorted(_bundle_arrays(pipeline).items()):
        array = np.ascontiguousarray(array)
        digest.update(
            f"{name}:{array.dtype.str}:{array.shape}".encode("utf-8")
        )
        digest.update(array.tobytes())
    return digest.hexdigest()


def bundle_fingerprint(path: Union[str, Path]) -> Optional[str]:
    """The fingerprint recorded in an on-disk bundle, or ``None`` when
    the bundle is unreadable or predates fingerprinting — callers treat
    ``None`` as "cannot prove current" and rewrite."""
    try:
        doc = json.loads((Path(path) / JSON_NAME).read_text())
    except (OSError, json.JSONDecodeError):
        return None
    fingerprint = doc.get("fingerprint")
    return fingerprint if isinstance(fingerprint, str) else None


def save_bundle(pipeline, path: Union[str, Path]) -> Path:
    """Serialize a trained pipeline to the bundle directory ``path``.

    Creates ``path`` (and parents) if needed; overwrites an existing
    bundle in place.  Returns the bundle directory path.
    """
    doc = _bundle_doc(pipeline)
    doc["fingerprint"] = pipeline_fingerprint(pipeline)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / JSON_NAME).write_text(json.dumps(doc, indent=2) + "\n")
    np.savez(path / NPZ_NAME, **_bundle_arrays(pipeline))
    return path


def load_bundle(path: Union[str, Path]):
    """Restore a scan-ready pipeline from a bundle directory.

    The returned pipeline scans bit-identically to the pipeline that was
    saved; its training-time artifacts (CFGs, report) are ``None``.
    Raises :class:`BundleVersionError` for an unknown schema and
    :class:`BundleError` for any other missing or malformed content.
    """
    path = Path(path)
    json_path = path / JSON_NAME
    npz_path = path / NPZ_NAME
    if not json_path.is_file() or not npz_path.is_file():
        raise BundleError(
            f"{path} is not a model bundle (needs {JSON_NAME} + {NPZ_NAME})"
        )
    try:
        doc = json.loads(json_path.read_text())
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise BundleError(f"unparseable {json_path}: {error}") from error
    if not isinstance(doc, dict):
        raise BundleError(f"{json_path} is not a JSON object")
    schema = doc.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise BundleVersionError(
            f"bundle schema {schema!r} is not supported (expected {SCHEMA!r})"
        )
    try:
        return _restore_pipeline(doc, npz_path)
    except (
        KeyError, TypeError, ValueError, IndexError, EOFError,
        zipfile.BadZipFile,
    ) as error:
        raise BundleError(f"malformed bundle {path}: {error!r}") from error


def _restore_pipeline(doc: dict, npz_path: Path):
    from repro.core.pipeline import LeapsPipeline  # circular at import time

    config = LeapsConfig.from_dict(doc["config"])
    pipeline = LeapsPipeline(config)

    featurizer = EventFeaturizer(pipeline.partitioner)
    vocab = doc["vocab"]
    featurizer.etype_vocab = _restore_vocab(
        (category, int(opcode), name) for category, opcode, name in vocab["etype"]
    )
    featurizer.app_vocab = _restore_vocab(
        tuple((module, function) for module, function in key)
        for key in vocab["app"]
    )
    featurizer.system_vocab = _restore_vocab(
        tuple((module, function) for module, function in key)
        for key in vocab["system"]
    )
    featurizer.fitted = True

    with np.load(npz_path) as arrays:
        sv_X = arrays["sv_X"]
        sv_coef = arrays["sv_coef"]
        sv_alpha = arrays["sv_alpha"]
        support = arrays["support"]
        scaler_mean = arrays["scaler_mean"]
        scaler_scale = arrays["scaler_scale"]

    standardizer = Standardizer()
    standardizer.mean_ = scaler_mean
    standardizer.scale_ = scaler_scale

    svm = doc["svm"]
    selection = doc["selection"]
    n_sv, n_train = svm["n_sv"], svm["n_train"]
    if not (len(sv_X) == len(sv_coef) == len(sv_alpha) == len(support) == n_sv):
        raise BundleError(
            f"inconsistent bundle: n_sv={n_sv} but arrays have "
            f"{len(sv_X)}/{len(sv_coef)}/{len(sv_alpha)}/{len(support)} rows"
        )
    if not isinstance(n_train, int) or n_train < n_sv:
        raise BundleError(
            f"inconsistent bundle: n_train={n_train!r} with n_sv={n_sv}"
        )
    if support.ndim != 1 or support.dtype.kind != "i" or (
        n_sv and (support[0] < 0 or support[-1] >= n_train
                  or np.any(np.diff(support) <= 0))
    ):
        raise BundleError(
            "inconsistent bundle: support must be increasing indices "
            f"in [0, n_train={n_train})"
        )
    if not (
        sv_X.ndim == 2
        and sv_coef.ndim == sv_alpha.ndim == 1
        and scaler_mean.shape == scaler_scale.shape == (sv_X.shape[1],)
    ):
        raise BundleError(
            f"inconsistent bundle: support vectors {sv_X.shape} do not "
            f"match their coefficients or the standardizer "
            f"{scaler_mean.shape}"
        )
    # a NaN or infinite value, or a zero scale, would load and score
    # every window NaN (or flag every one)
    floats = {
        "sv_X": sv_X, "sv_coef": sv_coef, "sv_alpha": sv_alpha,
        "scaler_mean": scaler_mean, "scaler_scale": scaler_scale,
    }
    for name, array in floats.items():
        if not np.all(np.isfinite(array)):
            raise ValueError(f"non-finite values in {name}")
    if not np.all(scaler_scale > 0):
        raise ValueError("scaler_scale must be positive")
    b = float(svm["b"])
    if not np.isfinite(b):
        raise ValueError(f"non-finite intercept {b!r}")
    model = WeightedSVM(
        kernel=gaussian_kernel(selection["sigma2"]),
        lam=selection["lam"],
        tol=svm["tol"],
    )
    alpha = np.zeros(n_train)
    alpha[support] = sv_alpha
    model.alpha = alpha
    model.b = b
    model.support_ = support
    model._sv_X = sv_X
    model._sv_coef = sv_coef
    model.n_sweeps_ = svm["n_sweeps"]
    model.converged_ = svm["converged"]
    model._refresh_scoring_cache()

    pipeline.featurizer = featurizer
    pipeline.standardizer = standardizer
    pipeline.model = model
    return pipeline
