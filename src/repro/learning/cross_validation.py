"""Deterministic k-fold cross-validated grid search over (λ, σ²).

The paper tunes the Gaussian-kernel width and the WSVM budget by CV on
the training set.  Folds come from a seeded permutation so the search
is reproducible; sample importances follow their rows into each fold.

The search computes the pairwise squared-distance matrix once
(:class:`repro.learning.kernels.PrecomputedKernel`), derives each σ²
Gram as ``exp(−D / (2σ²))``, and trains/evaluates fold cells by
index-slicing the full Gram instead of re-kernelizing the fold's
feature rows; ``tests/oracles/grid.py`` keeps the re-kernelizing search
that proves the result unchanged.

``n_jobs`` fans the (λ, σ², fold) cells over a process or thread pool.
Every cell's fit is deterministic (the solver draws nothing) and results
are reduced into the table in grid × fold order, so the returned
:class:`GridResult` is bit-identical for any worker count or completion
order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.learning.kernels import PrecomputedKernel, gaussian_kernel
from repro.learning.metrics import accuracy
from repro.learning.wsvm import WeightedSVM

EXECUTORS = ("process", "thread")


def kfold_indices(
    n: int, folds: int, rng: np.random.Generator
) -> List[Tuple[np.ndarray, np.ndarray]]:
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError("need at least one sample per fold")
    order = rng.permutation(n)
    splits = np.array_split(order, folds)
    pairs = []
    for held_out in range(folds):
        test = np.sort(splits[held_out])
        train = np.sort(np.concatenate([s for k, s in enumerate(splits) if k != held_out]))
        pairs.append((train, test))
    return pairs


@dataclass(frozen=True)
class GridResult:
    lam: float
    sigma2: float
    score: float
    #: every (lam, sigma2, mean CV accuracy) evaluated, in grid order
    table: Tuple[Tuple[float, float, float], ...]


# Worker state lives in module globals so process-pool workers build the
# shared distance cache once (in the pool initializer) instead of having
# a multi-megabyte Gram pickled into every cell's arguments.
_WORKER: Dict[str, object] = {}


def _init_worker(X, y, c, pairs, svm_params, cache) -> None:
    if cache is None:
        cache = PrecomputedKernel(X)
    _WORKER.update(X=X, y=y, c=c, pairs=pairs, svm_params=svm_params, cache=cache)


def _eval_cell(cell: Tuple[int, int, float, float]) -> Tuple[int, int, float]:
    """Fit and score one (λ, σ²) × fold cell; returns (combo, fold, acc)."""
    combo_index, fold_index, lam, sigma2 = cell
    X, y, c = _WORKER["X"], _WORKER["y"], _WORKER["c"]
    cache: PrecomputedKernel = _WORKER["cache"]
    train, test = _WORKER["pairs"][fold_index]
    # A fold can end up single-class; accuracy is still defined.
    model = WeightedSVM(
        kernel=gaussian_kernel(sigma2), lam=lam, **_WORKER["svm_params"]
    )
    c_train = None if c is None else c[train]
    model.fit(
        X[train], y[train], c_train,
        gram=cache.gram_slice(sigma2, train, train),
    )
    predicted = model.predict(gram=cache.gram_slice(sigma2, test, train))
    return combo_index, fold_index, accuracy(y[test], predicted)


def grid_search_wsvm(
    X: np.ndarray,
    y: np.ndarray,
    c: Optional[np.ndarray],
    lam_grid: Sequence[float],
    sigma2_grid: Sequence[float],
    folds: int,
    rng: np.random.Generator,
    svm_params: Optional[dict] = None,
    n_jobs: int = 1,
    executor: str = "process",
    cache: Optional[PrecomputedKernel] = None,
) -> GridResult:
    """Pick (λ, σ²) by mean CV accuracy; ties go to the earlier grid point.

    ``cache`` lets the caller share an existing
    :class:`PrecomputedKernel` built on ``X`` (e.g. to reuse its Grams
    for the final full-set fit); process-pool workers always build their
    own since the memo cannot be shared across processes.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if c is not None:
        c = np.asarray(c, dtype=float).reshape(-1)
    if not lam_grid or not sigma2_grid:
        raise ValueError("empty grid")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if executor not in EXECUTORS:
        raise ValueError(f"executor must be one of {EXECUTORS}")
    svm_params = svm_params or {}

    combos = list(product(lam_grid, sigma2_grid))
    if len(combos) == 1:
        lam, sigma2 = combos[0]
        return GridResult(lam, sigma2, float("nan"), ((lam, sigma2, float("nan")),))
    if folds < 2:
        raise ValueError(
            "folds must be >= 2 to cross-validate a multi-point grid "
            f"({len(combos)} combos); pass a single grid point to skip CV"
        )

    pairs = kfold_indices(len(y), folds, rng)
    cells = [
        (combo_index, fold_index, lam, sigma2)
        for combo_index, (lam, sigma2) in enumerate(combos)
        for fold_index in range(folds)
    ]
    if n_jobs == 1 or executor == "thread":
        # Threads share the module-global state (and the Gram memo).
        _init_worker(X, y, c, pairs, svm_params, cache)
        try:
            if n_jobs == 1:
                results = [_eval_cell(cell) for cell in cells]
            else:
                with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                    results = list(pool.map(_eval_cell, cells))
        finally:
            _WORKER.clear()
    else:
        # Each process rebuilds the distance cache once in its
        # initializer; only the light (λ, σ², fold) tuples travel per cell.
        with ProcessPoolExecutor(
            max_workers=n_jobs,
            initializer=_init_worker,
            initargs=(X, y, c, pairs, svm_params, None),
        ) as pool:
            results = list(pool.map(_eval_cell, cells))

    # Stable reduction: scores land in a (combo, fold) table and the
    # winner scan walks grid order, so the result is independent of the
    # order cells completed in.
    scores = np.empty((len(combos), folds))
    for combo_index, fold_index, score in results:
        scores[combo_index, fold_index] = score
    table: List[Tuple[float, float, float]] = []
    best: Optional[Tuple[float, float, float]] = None
    for combo_index, (lam, sigma2) in enumerate(combos):
        mean_score = float(np.mean(scores[combo_index]))
        table.append((lam, sigma2, mean_score))
        if best is None or mean_score > best[2]:
            best = (lam, sigma2, mean_score)
    assert best is not None
    return GridResult(best[0], best[1], best[2], tuple(table))
