"""LEAPS pipeline configuration.

Every stochastic choice in the pipeline (CV fold assignment, training
subsampling) flows from :attr:`LeapsConfig.seed` via explicit
``numpy.random.Generator`` instances — no global RNG state
(DESIGN.md §6).  The SMO solver itself is deterministic and draws
nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Tuple

import numpy as np

#: keys older bundles carry that configure nothing: the serve batching
#: settings are now constants in ``repro.serve.workers``, and the SMO
#: sweep limits have no meaning under LIBSVM's stopping rule
_RETIRED = (
    "serve_flush_deadline_s",
    "serve_target_batch_windows",
    "svm_max_passes",
    "svm_max_sweeps",
)


@dataclass
class LeapsConfig:
    # -- window coalescing (paper: 10 events × 3 dims = 30-dim samples)
    window_events: int = 10
    stride: int = 5

    # -- ingestion
    #: raw-log parse policy: "strict" raises on the first malformed
    #: line; "warn"/"drop" classify, record in a ParseReport, and
    #: resynchronize at the next well-formed EVENT line (DESIGN.md §8)
    parse_policy: str = "strict"
    #: windows buffered per scoring batch in score_stream/scan_stream —
    #: the streaming-scan memory bound alongside the event deque
    stream_chunk_windows: int = 256

    # -- weighting
    #: use CFG-guided per-sample weights (False = plain-SVM baseline)
    weighted: bool = True
    #: per-window aggregation of event weights: "mean" or "max"
    window_weight_agg: str = "mean"

    # -- learning / model selection
    lam_grid: Tuple[float, ...] = (1.0, 10.0)
    sigma2_grid: Tuple[float, ...] = (10.0, 60.0)
    #: CV folds for the grid search; < 2 is only valid with a
    #: single-point grid (CV is then skipped entirely)
    cv_folds: int = 3
    #: SMO stops once the maximal KKT violation is <= svm_tol (ε)
    svm_tol: float = 1e-3
    #: parallel workers for the CV grid search (1 = in-process serial);
    #: the GridResult is bit-identical for any worker count
    n_jobs: int = 1
    #: pool flavor for n_jobs > 1: "process" sidesteps the GIL for the
    #: SMO solve, "thread" shares the in-process Gram cache
    cv_executor: str = "process"

    # -- data selection (the paper samples its training windows)
    #: cap on training windows; 0 disables subsampling
    max_train_windows: int = 600

    # -- determinism
    seed: int = 0

    def __post_init__(self):
        if self.window_events < 1:
            raise ValueError("window_events must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.window_weight_agg not in ("mean", "max"):
            raise ValueError("window_weight_agg must be 'mean' or 'max'")
        if self.parse_policy not in ("strict", "warn", "drop"):
            raise ValueError("parse_policy must be 'strict', 'warn' or 'drop'")
        if self.stream_chunk_windows < 1:
            raise ValueError("stream_chunk_windows must be >= 1")
        if not self.lam_grid or not self.sigma2_grid:
            raise ValueError("lam_grid and sigma2_grid must be non-empty")
        if not all(0.0 < v < np.inf for v in (*self.lam_grid, *self.sigma2_grid)):
            raise ValueError("lam_grid and sigma2_grid must be finite and positive")
        if not 0.0 < self.svm_tol < np.inf:
            raise ValueError("svm_tol must be finite and positive")
        if self.cv_folds < 2 and len(self.lam_grid) * len(self.sigma2_grid) > 1:
            raise ValueError(
                "cv_folds < 2 cannot select among multiple (λ, σ²) grid "
                "points; shrink the grid to one point or use >= 2 folds"
            )
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.cv_executor not in ("process", "thread"):
            raise ValueError("cv_executor must be 'process' or 'thread'")
        if self.max_train_windows < 0:
            raise ValueError("max_train_windows must be >= 0")

    @property
    def dims(self) -> int:
        return 3 * self.window_events

    def rng(self) -> np.random.Generator:
        """A fresh generator derived from the config seed."""
        return np.random.default_rng(self.seed)

    # -- (de)serialization — used by the model bundle -----------------
    def to_dict(self) -> dict:
        """JSON-compatible dict (tuples become lists)."""
        doc = asdict(self)
        doc["lam_grid"] = list(self.lam_grid)
        doc["sigma2_grid"] = list(self.sigma2_grid)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "LeapsConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys so a stale
        or foreign bundle fails loudly instead of silently dropping
        settings.  The retired keys that older bundles carry (``_RETIRED``)
        are the one exception: they no longer configure anything."""
        doc = dict(doc)
        for key in _RETIRED:
            doc.pop(key, None)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown LeapsConfig keys: {sorted(unknown)}")
        for key in ("lam_grid", "sigma2_grid"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)
