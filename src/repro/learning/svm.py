"""From-scratch soft-margin kernel SVM, trained by LIBSVM's SMO.

Solves the C-SVC dual with *per-sample* box constraints

    min  ½ αᵀQα − eᵀα,   Q = (yyᵀ)∘K
    s.t. 0 ≤ αᵢ ≤ Cᵢ,    yᵀα = 0

which is exactly the Weighted SVM dual of the paper's Eqn. (4) when
``Cᵢ = λ·cᵢ`` (see :mod:`repro.learning.wsvm`); the plain SVM is the
special case of a constant ``Cᵢ``.  sklearn/LIBSVM are deliberately not
used (DESIGN.md §1), but the solver is LIBSVM's: second-order
working-set selection (Fan, Chen & Lin, JMLR 6, 2005) and the stopping
rule on the maximal KKT violation m(α) − M(α) ≤ ε (Chang & Lin, ACM
TIST 2011), with ε = ``tol``.  The stop certifies the fit: the duality
gap is then at most ε·ΣCᵢ for the returned intercept, which the tests
check from a recomputed gradient and against a brute-force QP oracle
(``tests/oracles/qp.py``).  Ties go to the lowest index, so training is
deterministic without an RNG.

``fit``/``decision_function`` also accept a precomputed Gram matrix so
grid searches can slice one cached kernel instead of re-kernelizing
features per CV cell (see :class:`repro.learning.kernels.PrecomputedKernel`).
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

import numpy as np

from repro.learning.kernels import Kernel, linear_kernel

#: curvature that stands in for a non-positive ``Kᵢᵢ + Kⱼⱼ − 2Kᵢⱼ``
#: (duplicate rows), as in LIBSVM
TAU = 1e-12
#: the pair-update cap is ``max(MIN_ITERATIONS, ITERATIONS_PER_SAMPLE·n)``;
#: LIBSVM allows 100·n with a floor of 10⁷
ITERATIONS_PER_SAMPLE = 100
MIN_ITERATIONS = 10_000
#: rows per run of stacked scoring tiles, so a run's kernel temporaries
#: stay in L2: on a 2-CPU host (OpenBLAS 0.3.31), 1600 windows against
#: 127 support vectors took 1658 µs as 16-row tiles in 256-row runs and
#: 2607 µs in one stacked call (medians of 35)
SCORE_RUN_ROWS = 256


class ConvergenceWarning(UserWarning):
    """SMO stopped at the iteration cap with a KKT violation above ε."""


def _smo(
    K: np.ndarray, y: np.ndarray, C: np.ndarray, tol: float
) -> Tuple[np.ndarray, float, int, float]:
    """LIBSVM's SMO with WSS2 on a full Gram ``K``.

    Returns ``(alpha, b, iterations, violation)``, where ``violation``
    is m(α) − M(α) at exit.  The solver keeps ``v = −y∘∇f(α)``, which is
    also ``y − f₀`` for the intercept-free decision values ``f₀``; a
    pair step updates it with one Gram row per moved variable.
    """
    n = len(y)
    K_diag = K.diagonal()
    alpha = np.zeros(n)
    v = y.copy()
    # membership of I_up / I_low as additive bars: v + up_bar is v on
    # I_up and −∞ elsewhere, v + low_bar is v on I_low and +∞ elsewhere.
    # A sample with Cᵢ = 0 is in neither, so it never moves.
    movable = C > 0
    up_bar = np.where(movable & (y > 0), 0.0, -np.inf)
    low_bar = np.where(movable & (y < 0), 0.0, np.inf)
    y_list, C_list = y.tolist(), C.tolist()
    max_iterations = max(MIN_ITERATIONS, ITERATIONS_PER_SAMPLE * n)
    iterations = 0
    while True:
        v_up = v + up_bar
        i = int(np.argmax(v_up))
        m = float(v_up[i])
        v_low = v + low_bar
        M = float(v_low.min())
        violation = m - M
        if violation <= tol or iterations >= max_iterations:
            break
        # WSS2: the j in I_low with v_j < m that maximizes (m − v_j)²/a
        K_i = K[i]
        quad = K_diag - 2.0 * K_i
        quad += K_diag[i]
        quad[quad <= 0.0] = TAU
        gain = m - v_low  # −∞ off I_low; the clamp drops it and v_j ≥ m
        np.maximum(gain, 0.0, out=gain)
        gain *= gain
        gain /= quad
        j = int(np.argmax(gain))

        # LIBSVM's pair update, clipped to unequal bounds Cᵢ, Cⱼ
        y_i, y_j, C_i, C_j = y_list[i], y_list[j], C_list[i], C_list[j]
        a_i = old_i = float(alpha[i])
        a_j = old_j = float(alpha[j])
        if y_i != y_j:
            delta = (y_i * float(v[i]) + y_j * float(v[j])) / float(quad[j])
            diff = a_i - a_j
            a_i += delta
            a_j += delta
            if diff > 0.0:
                if a_j < 0.0:
                    a_j, a_i = 0.0, diff
            elif a_i < 0.0:
                a_i, a_j = 0.0, -diff
            if diff > C_i - C_j:
                if a_i > C_i:
                    a_i, a_j = C_i, C_i - diff
            elif a_j > C_j:
                a_j, a_i = C_j, C_j + diff
        else:
            delta = (y_j * float(v[j]) - y_i * float(v[i])) / float(quad[j])
            total = a_i + a_j
            a_i -= delta
            a_j += delta
            if total > C_i:
                if a_i > C_i:
                    a_i, a_j = C_i, total - C_i
            elif a_j < 0.0:
                a_j, a_i = 0.0, total
            if total > C_j:
                if a_j > C_j:
                    a_j, a_i = C_j, total - C_j
            elif a_i < 0.0:
                a_i, a_j = 0.0, total
        step = K_i * (y_i * (a_i - old_i))
        step += K[j] * (y_j * (a_j - old_j))
        v -= step
        alpha[i], alpha[j] = a_i, a_j
        for t, a_t, y_t, C_t in ((i, a_i, y_i, C_i), (j, a_j, y_j, C_j)):
            below = 0.0 if a_t < C_t else np.inf
            above = 0.0 if a_t > 0.0 else np.inf
            if y_t > 0:
                up_bar[t], low_bar[t] = -below, above
            else:
                up_bar[t], low_bar[t] = -above, below
        iterations += 1

    free = (up_bar == 0.0) & (low_bar == 0.0)
    if free.any():
        b = float(np.mean(v[free]))
    else:
        # LIBSVM's midpoint of the bounds on b; one side is empty when
        # every movable sample has one label
        ends = [end for end in (m, M) if np.isfinite(end)]
        b = float(np.mean(ends)) if ends else 0.0
    return alpha, b, iterations, violation


def _tiled_matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray, tile: int) -> None:
    """``out[:] = A @ B`` tile by tile: ``A``'s whole ``tile``-row
    blocks as one stacked ``np.matmul``, a short tail as one more."""
    full = len(A) - len(A) % tile
    if full:
        np.matmul(
            A[:full].reshape(-1, tile, A.shape[1]),
            B,
            out=out[:full].reshape(-1, tile, *out.shape[1:]),
        )
    if full < len(A):
        np.matmul(A[full:], B, out=out[full:])


class KernelSVM:
    """Binary kernel SVM (labels must be ±1) trained by SMO.

    After :meth:`fit`, solver health is exposed as ``n_sweeps_`` (the
    number of pair updates made) and ``converged_`` (True only when the
    maximal KKT violation at exit is ≤ ``tol``; hitting the iteration
    cap instead issues a :class:`ConvergenceWarning`).
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        C: float = 1.0,
        tol: float = 1e-3,
    ):
        self.kernel = kernel or linear_kernel
        self.C = C
        self.tol = tol
        self.alpha: Optional[np.ndarray] = None
        self.b: float = 0.0
        self.n_sweeps_: int = 0
        self.converged_: bool = False
        self._sv_X: Optional[np.ndarray] = None
        self._sv_coef: Optional[np.ndarray] = None
        # scoring fast path (Gaussian kernels): compacted SV matrix,
        # its coefficients, and cached row norms — see _refresh_scoring_cache
        self._score_X: Optional[np.ndarray] = None
        self._score_coef: Optional[np.ndarray] = None
        self._score_norms: Optional[np.ndarray] = None

    # -- training ------------------------------------------------------
    def fit(
        self,
        X: Optional[np.ndarray],
        y: np.ndarray,
        sample_C: Optional[np.ndarray] = None,
        gram: Optional[np.ndarray] = None,
    ) -> "KernelSVM":
        """Train on ``(X, y)``, or on a precomputed ``gram`` matrix.

        When ``gram`` (the full ``(n, n)`` kernel matrix of the training
        set) is given, the kernel callable is not invoked; ``X`` may then
        be omitted, in which case prediction must also go through
        ``gram=`` cross-kernel matrices.
        """
        y = np.asarray(y, dtype=float).reshape(-1)
        n = len(y)
        if X is not None:
            X = np.asarray(X, dtype=float)
            if X.ndim != 2 or len(X) != n:
                raise ValueError("X must be (n, d) with one label per row")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be ±1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        if sample_C is None:
            C_vec = np.full(n, float(self.C))
        else:
            C_vec = np.asarray(sample_C, dtype=float).reshape(-1)
            if len(C_vec) != n:
                raise ValueError("sample_C length mismatch")
        if not np.all((C_vec >= 0.0) & (C_vec < np.inf)):
            raise ValueError("C and sample_C must be finite and non-negative")
        if gram is None:
            if X is None:
                raise ValueError("fit needs X when no precomputed gram is given")
            K = self.kernel(X, X)
        else:
            K = np.asarray(gram, dtype=float)
            if K.shape != (n, n):
                raise ValueError(f"gram must be ({n}, {n}), got {K.shape}")

        alpha, b, iterations, violation = _smo(K, y, C_vec, self.tol)
        self.alpha = alpha
        self.b = b
        support = alpha > 0.0
        self._sv_X = X[support] if X is not None else None
        self._sv_coef = alpha[support] * y[support]
        self.support_ = np.flatnonzero(support)
        self._refresh_scoring_cache()
        self.n_sweeps_ = iterations
        self.converged_ = violation <= self.tol
        if not self.converged_:
            warnings.warn(
                f"SMO stopped at its iteration cap ({iterations} pair "
                f"updates) with KKT violation {violation:.3g} > tol "
                f"{self.tol:g}; the model may be suboptimal",
                ConvergenceWarning,
                stacklevel=2,
            )
        return self

    # -- inference -----------------------------------------------------
    def _refresh_scoring_cache(self) -> None:
        """(Re)build the no-Gram scoring fast path from the fitted SVs.

        Compacts away coefficients that are exactly zero (the solver
        never produces them — support requires ``α > 0`` — but loaded or
        hand-built models may) and caches the SV row norms so
        ``decision_function`` can use the ‖x‖²+‖y‖²−2x·y expansion
        without recomputing ``Σ svᵢ²`` for every scoring chunk.  Called
        by :meth:`fit` and by model persistence after restoring SVs.
        """
        if self._sv_X is None or self._sv_coef is None:
            self._score_X = self._score_coef = self._score_norms = None
            return
        keep = np.flatnonzero(self._sv_coef != 0.0)
        if len(keep) < len(self._sv_coef):
            self._score_X = self._sv_X[keep]
            self._score_coef = self._sv_coef[keep]
        else:
            self._score_X = self._sv_X
            self._score_coef = self._sv_coef
        self._score_norms = np.sum(self._score_X * self._score_X, axis=1)

    def decision_function(
        self, X: Optional[np.ndarray] = None, gram: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Decision values for ``X``, or for a precomputed cross-kernel
        ``gram`` of shape ``(m, n_train)`` against the training set.

        With zero support vectors both branches return the constant
        intercept as ``np.full(m, b)`` — same shape and dtype either way.
        """
        if self.alpha is None:
            raise RuntimeError("KernelSVM.decision_function before fit")
        if gram is not None:
            gram = np.asarray(gram, dtype=float)
            if gram.ndim != 2 or gram.shape[1] != len(self.alpha):
                raise ValueError(
                    f"gram must be (m, {len(self.alpha)}), got {gram.shape}"
                )
            if len(self.support_) == 0:
                return np.full(gram.shape[0], float(self.b))
            return gram[:, self.support_] @ self._sv_coef + self.b
        if X is None:
            raise ValueError("decision_function needs X or gram")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be (m, d), got shape {X.shape}")
        return self.decision_tiles(X, max(len(X), 1))

    def decision_tiles(self, X: np.ndarray, tile: int) -> np.ndarray:
        """Decision values for ``X`` scored in tiles of ``tile``
        consecutive rows, the last of which may be short: each tile's
        scores equal ``decision_function`` of that tile alone, bit for
        bit, whatever else ``X`` holds.

        dgemm rounds a row by its position in a block of a given shape,
        so the tile is the unit whose shape fixes every score bit
        (DESIGN.md §12).  With a Gaussian kernel the whole tiles run as
        stacked fixed-shape ``np.matmul`` calls, each the kernel's own
        ``X @ Y.T`` on the same operand layout (``Y.T`` a view of the
        compacted SV matrix), in runs of whole tiles of about
        :data:`SCORE_RUN_ROWS` rows; the elementwise stages follow
        :func:`~repro.learning.kernels.squared_distances`' operation
        order, and compaction only ever removes exact-zero coefficients.
        """
        if self.alpha is None:
            raise RuntimeError("KernelSVM.decision_tiles before fit")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be (m, d), got shape {X.shape}")
        if len(self.support_) == 0:
            return np.full(X.shape[0], float(self.b))
        if self._sv_X is None:
            raise RuntimeError(
                "model was fit from a precomputed gram without X; "
                "pass gram= to decision_function/predict"
            )
        scores = np.empty(len(X))
        sigma2 = getattr(self.kernel, "sigma2", None)
        if sigma2 is None or self._score_norms is None:
            # no Gaussian fast path: the kernel call per tile defines it
            for start in range(0, len(X), tile):
                K = self.kernel(X[start : start + tile], self._sv_X)
                scores[start : start + tile] = K @ self._sv_coef
            return scores + self.b
        run = max(1, SCORE_RUN_ROWS // tile) * tile
        for start in range(0, len(X), run):
            rows = X[start : start + run]
            products = np.empty((len(rows), len(self._score_X)))
            _tiled_matmul(rows, self._score_X.T, products, tile)
            products *= 2.0
            x_norms = np.sum(rows * rows, axis=1)
            K = x_norms[:, None] + self._score_norms[None, :]
            K -= products
            np.maximum(K, 0.0, out=K)
            # ÷ −2σ² is ÷ 2σ² then negation, bit for bit
            K /= -2.0 * sigma2
            np.exp(K, out=K)
            _tiled_matmul(K, self._score_coef, scores[start : start + run], tile)
        scores += self.b
        return scores

    def predict(
        self, X: Optional[np.ndarray] = None, gram: Optional[np.ndarray] = None
    ) -> np.ndarray:
        scores = self.decision_function(X, gram=gram)
        return np.where(scores >= 0.0, 1.0, -1.0)
