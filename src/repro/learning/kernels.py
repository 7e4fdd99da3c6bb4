"""Kernel functions and the shared distance/Gram cache.

Kernels take two sample matrices ``X (n, d)`` and ``Y (m, d)`` and
return the Gram matrix ``(n, m)``.

:class:`PrecomputedKernel` is the grid-search fast path: the pairwise
squared-distance matrix is σ²-independent, so it is computed once and
every Gaussian Gram is derived from it as ``exp(−D / (2σ²))``.  CV fold
kernels are index slices of the full Gram (``K[np.ix_(train, train)]``),
equal to re-kernelizing the fold's feature rows up to the last BLAS ulp
(dgemm may round shape-dependently); CV accuracies and the selected
(λ, σ²) are unaffected, and the benchmark harness verifies the final
models decide bit-identically to the naive path.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict

import numpy as np

Kernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


def linear_kernel(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.asarray(X) @ np.asarray(Y).T


def squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    sq = (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(Y * Y, axis=1)[None, :]
        - 2.0 * (X @ Y.T)
    )
    return np.maximum(sq, 0.0)


def gaussian_kernel(sigma2: float) -> Kernel:
    """The paper's Gaussian kernel ``K(x, y) = exp(−‖x−y‖² / (2σ²))``.

    The returned callable carries a ``sigma2`` attribute so consumers
    (model persistence, the cached scoring fast path in
    :class:`repro.learning.svm.KernelSVM`) can recognize a Gaussian
    kernel and recover its width without re-deriving it.
    """
    if not 0.0 < sigma2 < np.inf:  # NaN fails too
        raise ValueError("sigma2 must be finite and positive")

    def kernel(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.exp(-squared_distances(X, Y) / (2.0 * sigma2))

    kernel.sigma2 = float(sigma2)
    return kernel


def gaussian_cross_kernel(
    X: np.ndarray, Y: np.ndarray, y_norms: np.ndarray, sigma2: float
) -> np.ndarray:
    """``gaussian_kernel(sigma2)(X, Y)`` with ``Σ yᵢ²`` precomputed.

    The ‖x‖²+‖y‖²−2x·y expansion is evaluated in exactly the same
    operation order as :func:`squared_distances`, so the result is
    bit-identical to the uncached kernel; the only difference is that
    the row norms of ``Y`` (the support vectors, fixed after training)
    are not recomputed on every call.
    """
    x_norms = np.sum(X * X, axis=1)
    squared = x_norms[:, None] + y_norms[None, :] - 2.0 * (X @ Y.T)
    np.maximum(squared, 0.0, out=squared)
    squared /= 2.0 * sigma2
    np.negative(squared, out=squared)
    return np.exp(squared, out=squared)


def gaussian_cross_kernel_blocked(
    X: np.ndarray,
    Y: np.ndarray,
    y_norms: np.ndarray,
    sigma2: float,
    bounds,
) -> np.ndarray:
    """One fused cross-kernel over many row blocks of ``X``, with every
    row bit-identical to :func:`gaussian_cross_kernel` run on its block
    alone.

    ``bounds`` is a sequence of ``(start, stop)`` row spans partitioning
    ``X`` — in the serving micro-batcher, one span per stream scoring
    chunk.  dgemm rounds shape-dependently (a row's product can change
    in the last ulp when the matrix grows), so the two BLAS products are
    evaluated *per block* at exactly the shapes the serial path would
    use; every elementwise stage (row norms, the ‖x‖²+‖y‖²−2x·y
    assembly, the exp) is elementwise-deterministic and runs fused
    across the whole matrix.  That recovers most of the batching win —
    the exp dominates the kernel cost — without perturbing a single
    score bit.
    """
    X = np.asarray(X, dtype=float)
    products = np.empty((X.shape[0], Y.shape[0]))
    for start, stop in bounds:
        np.dot(X[start:stop], Y.T, out=products[start:stop])
    x_norms = np.sum(X * X, axis=1)
    squared = x_norms[:, None] + y_norms[None, :] - 2.0 * products
    np.maximum(squared, 0.0, out=squared)
    squared /= 2.0 * sigma2
    np.negative(squared, out=squared)
    return np.exp(squared, out=squared)


class PrecomputedKernel:
    """Distance cache shared by every (λ, σ²) × fold cell of a search.

    ``distances`` is computed once per training matrix; per-σ² Grams are
    memoized, so a grid with *k* σ² values costs *k* matrix exponentials
    instead of ``k × |λ-grid| × folds`` distance+exp recomputations.
    Thread-safe: a lock guards the memo so thread-pool workers never
    duplicate a Gram.
    """

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be (n, d)")
        self.distances = squared_distances(self.X, self.X)
        self._grams: Dict[float, np.ndarray] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.X)

    def gram(self, sigma2: float) -> np.ndarray:
        """The full ``(n, n)`` Gaussian Gram for one kernel width."""
        if not 0.0 < sigma2 < np.inf:  # NaN fails too
            raise ValueError("sigma2 must be finite and positive")
        key = float(sigma2)
        with self._lock:
            gram = self._grams.get(key)
            if gram is None:
                gram = np.exp(-self.distances / (2.0 * key))
                self._grams[key] = gram
        return gram

    def gram_slice(
        self, sigma2: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """``K[np.ix_(rows, cols)]`` of the σ² Gram — the fold view."""
        return self.gram(sigma2)[np.ix_(rows, cols)]


def make_kernel(name: str, **params) -> Kernel:
    if name == "linear":
        return linear_kernel
    if name == "gaussian":
        return gaussian_kernel(params["sigma2"])
    raise ValueError(f"unknown kernel {name!r}")
