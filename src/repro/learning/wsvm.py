"""Weighted SVM — the LEAPS classifier (paper Eqn. 4).

Identical to the plain kernel SVM except that each training sample's
box constraint is scaled by its importance: ``0 ≤ αᵢ ≤ λ·cᵢ``.  Benign
(positive) samples keep ``cᵢ = 1``; mixed (negative) samples carry the
Algorithm-2 weight ``cᵢ = 1 − benignity``, so mislabeled benign noise
(cᵢ ≈ 0) cannot pull the decision boundary.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.learning.kernels import Kernel
from repro.learning.svm import KernelSVM


class WeightedSVM(KernelSVM):
    """Kernel SVM with per-sample importances ``cᵢ`` and budget ``λ``."""

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        lam: float = 1.0,
        tol: float = 1e-3,
    ):
        super().__init__(kernel=kernel, C=lam, tol=tol)
        self.lam = lam

    def fit(
        self,
        X: Optional[np.ndarray],
        y: np.ndarray,
        c: Optional[np.ndarray] = None,
        gram: Optional[np.ndarray] = None,
    ) -> "WeightedSVM":
        """Train with importances ``c`` (default: all ones = plain SVM)."""
        n = len(np.asarray(y).reshape(-1))
        if c is None:
            c = np.ones(n)
        c = np.asarray(c, dtype=float).reshape(-1)
        if len(c) != n:
            raise ValueError("c length mismatch")
        # NaN fails both comparisons
        if not np.all((c >= 0) & (c <= 1 + 1e-12)):
            raise ValueError("importances must lie in [0, 1]")
        # before the product: inf · 0 would be a NaN budget
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and non-negative")
        super().fit(X, y, sample_C=self.lam * c, gram=gram)
        return self
