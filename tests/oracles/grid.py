"""The naive (λ, σ²) grid search — the oracle for
:func:`repro.learning.cross_validation.grid_search_wsvm`.

Serial, and every (λ, σ², fold) cell re-kernelizes its fold's feature
rows and trains with the scalar SMO partner walk, where production
slices one cached distance matrix and selects partners in bulk.  Fold
assignment and the reduction follow the production contract: folds
from :func:`~repro.learning.cross_validation.kfold_indices` on the same
``rng``, mean fold accuracy per grid point, ties to the earlier point.
Grids must have at least two points (production skips CV for one).
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

import numpy as np

from repro.learning.cross_validation import GridResult, kfold_indices
from repro.learning.kernels import gaussian_kernel
from repro.learning.metrics import accuracy

from tests.oracles.smo import ReferenceWeightedSVM


def grid_search_naive(
    X: np.ndarray,
    y: np.ndarray,
    c: Optional[np.ndarray],
    lam_grid: Sequence[float],
    sigma2_grid: Sequence[float],
    folds: int,
    rng: np.random.Generator,
    svm_params: Optional[dict] = None,
) -> GridResult:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if c is not None:
        c = np.asarray(c, dtype=float).reshape(-1)
    svm_params = svm_params or {}
    pairs = kfold_indices(len(y), folds, rng)
    table = []
    for lam, sigma2 in product(lam_grid, sigma2_grid):
        scores = []
        for train, test in pairs:
            model = ReferenceWeightedSVM(
                kernel=gaussian_kernel(sigma2), lam=lam, **svm_params
            )
            model.fit(X[train], y[train], None if c is None else c[train])
            scores.append(accuracy(y[test], model.predict(X[test])))
        table.append((lam, sigma2, float(np.mean(scores))))
    # max() keeps the first of equal scores: ties go to the earlier point
    lam, sigma2, score = max(table, key=lambda row: row[2])
    return GridResult(lam, sigma2, score, tuple(table))
