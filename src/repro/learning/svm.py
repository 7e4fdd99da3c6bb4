"""From-scratch SMO-trained soft-margin kernel SVM.

Solves the C-SVC dual with *per-sample* box constraints

    max  Σαᵢ − ½ ΣΣ αᵢαⱼ yᵢyⱼ K(xᵢ,xⱼ)
    s.t. 0 ≤ αᵢ ≤ Cᵢ,   Σ αᵢyᵢ = 0

which is exactly the Weighted SVM dual of the paper's Eqn. (4) when
``Cᵢ = λ·cᵢ`` (see :mod:`repro.learning.wsvm`); the plain SVM is the
special case of a constant ``Cᵢ``.  sklearn/LIBSVM are deliberately not
used (DESIGN.md §1).

The solver is Platt's SMO with the max-|ΔE| second-choice heuristic, a
full decision-value cache updated incrementally after every pair step,
and a seeded tie-break RNG so training is deterministic.

Partner selection (:meth:`KernelSVM._partner_step`) evaluates every
candidate's step guards (clip window, curvature, minimum α move) in one
pass of array ops and jumps straight to the partner Platt's scalar walk
would have committed: sort partners by |ΔE| and attempt ``_take_step``
on each until one succeeds.  A failed attempt never mutates state, so a
candidate's success is order-independent; the guard arithmetic is
elementwise-identical and the tie-break RNG is consumed in exactly the
same situations, so the fitted model is bit-identical to the scalar
walk's.  That walk is kept as a test oracle (``tests/oracles/smo.py``)
which overrides the same method.

``fit``/``decision_function`` also accept a precomputed Gram matrix so
grid searches can slice one cached kernel instead of re-kernelizing
features per CV cell (see :class:`repro.learning.kernels.PrecomputedKernel`).
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from repro.learning.kernels import (
    Kernel,
    gaussian_cross_kernel,
    gaussian_cross_kernel_blocked,
    linear_kernel,
)

_EPS = 1e-8


class ConvergenceWarning(UserWarning):
    """SMO stopped at the sweep cap before reaching KKT stationarity."""


class KernelSVM:
    """Binary kernel SVM (labels must be ±1) trained by SMO.

    After :meth:`fit`, solver health is exposed as ``n_sweeps_`` (outer
    sweeps executed) and ``converged_`` (False when the ``max_sweeps``
    cap cut optimization short; a :class:`ConvergenceWarning` is issued).
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        C: float = 1.0,
        tol: float = 1e-3,
        max_passes: int = 5,
        max_sweeps: int = 200,
        seed: int = 0,
    ):
        self.kernel = kernel or linear_kernel
        self.C = C
        self.tol = tol
        self.max_passes = max_passes
        self.max_sweeps = max_sweeps
        self.seed = seed
        self.alpha: Optional[np.ndarray] = None
        self.b: float = 0.0
        self._b: float = 0.0
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
        if gram is None:
            if X is None:
                raise ValueError("fit needs X when no precomputed gram is given")
            K = self.kernel(X, X)
        else:
            K = np.asarray(gram, dtype=float)
            if K.shape != (n, n):
                raise ValueError(f"gram must be ({n}, {n}), got {K.shape}")
        if sample_C is None:
            C_vec = np.full(n, float(self.C))
        else:
            C_vec = np.asarray(sample_C, dtype=float).reshape(-1)
            if len(C_vec) != n:
                raise ValueError("sample_C length mismatch")
            if np.any(C_vec < 0):
                raise ValueError("sample_C must be non-negative")

        rng = np.random.default_rng(self.seed)
        K_diag = K.diagonal()
        alpha = np.zeros(n)
        self._b = 0.0
        # decision values without the intercept: f[i] = Σ αⱼyⱼK[j, i]
        f = np.zeros(n)
        active = np.flatnonzero(C_vec > _EPS)

        passes = 0
        sweeps = 0
        while passes < self.max_passes and sweeps < self.max_sweeps:
            changed = 0
            for i in active:
                b = self._b
                E_i = f[i] + b - y[i]
                r = y[i] * E_i
                if not (
                    (r < -self.tol and alpha[i] < C_vec[i] - _EPS)
                    or (r > self.tol and alpha[i] > _EPS)
                ):
                    continue
                # Platt's second-choice hierarchy: partners in decreasing
                # |E_i − E_j| order until one step succeeds — the single
                # best j can be stuck at a bound.
                E = f + b - y
                gaps = np.abs(E - E_i)
                gaps[i] = -1.0
                gaps[C_vec <= _EPS] = -1.0
                if self._partner_step(
                    i, K, K_diag, y, alpha, C_vec, f, E, E_i, gaps, rng
                ):
                    changed += 1
            sweeps += 1
            passes = passes + 1 if changed == 0 else 0

        b = self._b
        # Recompute the intercept from margin support vectors when any
        # exist — more stable than the running b1/b2 estimate.
        margin = (alpha > _EPS) & (alpha < C_vec - _EPS)
        if np.any(margin):
            b = float(np.mean(y[margin] - f[margin]))
        self.alpha = alpha
        self.b = b
        support = alpha > _EPS
        self._sv_X = X[support] if X is not None else None
        self._sv_coef = alpha[support] * y[support]
        self.support_ = np.flatnonzero(support)
        self._refresh_scoring_cache()
        self.n_sweeps_ = sweeps
        self.converged_ = passes >= self.max_passes
        if not self.converged_:
            warnings.warn(
                f"SMO hit the max_sweeps cap ({self.max_sweeps}) before "
                "converging; the model may be suboptimal",
                ConvergenceWarning,
                stacklevel=2,
            )
        return self

    def _partner_step(
        self, i, K, K_diag, y, alpha, C_vec, f, E, E_i, gaps, rng
    ) -> bool:
        """Commit the pair step (i, j) for the partner the scalar walk
        would pick; returns whether α changed.

        A failed ``_take_step`` never mutates state, so whether a given j
        succeeds is independent of attempt order; evaluating the three
        step guards for every candidate at once and picking the best
        survivor reproduces the walk exactly.  The tie-break shuffle
        consumes the RNG in the same situations as the walk (top-two
        gaps equal), keeping the random stream aligned.
        """
        n = len(gaps)
        order = None
        if n > 1:
            j_top = int(np.argmax(gaps))
            if np.count_nonzero(gaps == gaps[j_top]) > 1:
                order = np.argsort(-gaps, kind="stable")
                order = order.copy()
                rng.shuffle(order)
                order = order[np.argsort(-gaps[order], kind="stable")]
        ok = gaps >= 0.0
        if not ok.any():
            return False
        # Clip window [L, H] per candidate (elementwise the same
        # arithmetic as the scalar _take_step guards).
        same_label = y == y[i]
        total = alpha + alpha[i]
        gamma = alpha - alpha[i]
        L = np.where(
            same_label, np.maximum(0.0, total - C_vec[i]), np.maximum(0.0, gamma)
        )
        H = np.where(
            same_label, np.minimum(C_vec, total), np.minimum(C_vec, gamma + C_vec[i])
        )
        ok &= L < H - _EPS
        eta = 2.0 * K[i] - K[i, i] - K_diag
        ok &= eta < -_EPS
        if not ok.any():
            return False
        safe_eta = np.where(ok, eta, -1.0)
        a_new = np.clip(alpha - y * (E_i - E) / safe_eta, L, H)
        ok &= np.abs(a_new - alpha) >= _EPS
        candidates = np.flatnonzero(ok)
        if not len(candidates):
            return False
        if order is None:
            # stable descending gap order ⇒ largest gap, lowest index
            j = int(candidates[np.argmax(gaps[candidates])])
        else:
            j = int(order[np.flatnonzero(ok[order])[0]])
        return self._take_step(i, j, K, y, alpha, C_vec, f, E_i, E[j])

    def _take_step(self, i, j, K, y, alpha, C_vec, f, E_i, E_j) -> bool:
        if i == j:
            return False
        a_i, a_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            gamma = a_j - a_i
            L, H = max(0.0, gamma), min(C_vec[j], gamma + C_vec[i])
        else:
            total = a_i + a_j
            L, H = max(0.0, total - C_vec[i]), min(C_vec[j], total)
        if L >= H - _EPS:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= -_EPS:
            return False
        a_j_new = np.clip(a_j - y[j] * (E_i - E_j) / eta, L, H)
        if abs(a_j_new - a_j) < _EPS:
            return False
        a_i_new = a_i + y[i] * y[j] * (a_j - a_j_new)
        d_i, d_j = a_i_new - a_i, a_j_new - a_j
        b = self._b
        b1 = b - E_i - y[i] * d_i * K[i, i] - y[j] * d_j * K[i, j]
        b2 = b - E_j - y[i] * d_i * K[i, j] - y[j] * d_j * K[j, j]
        if _EPS < a_i_new < C_vec[i] - _EPS:
            self._b = b1
        elif _EPS < a_j_new < C_vec[j] - _EPS:
            self._b = b2
        else:
            self._b = (b1 + b2) / 2.0
        f += y[i] * d_i * K[i] + y[j] * d_j * K[j]
        alpha[i], alpha[j] = a_i_new, a_j_new
        return True

    # -- inference -----------------------------------------------------
    def _refresh_scoring_cache(self) -> None:
        """(Re)build the no-Gram scoring fast path from the fitted SVs.

        Compacts away coefficients that are exactly zero (the solver
        never produces them — support requires ``α > ε`` — but loaded or
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
        if len(self.support_) == 0:
            return np.full(X.shape[0], float(self.b))
        if self._sv_X is None:
            raise RuntimeError(
                "model was fit from a precomputed gram without X; "
                "pass gram= to decision_function/predict"
            )
        sigma2 = getattr(self.kernel, "sigma2", None)
        if sigma2 is not None and self._score_norms is not None:
            # Gaussian fast path: cached SV norms + compacted SV matrix.
            # Bit-identical to self.kernel(X, self._sv_X) — the expansion
            # is evaluated in the same operation order (see
            # kernels.gaussian_cross_kernel), and compaction only ever
            # removes exact-zero coefficients.
            K = gaussian_cross_kernel(X, self._score_X, self._score_norms, sigma2)
            return K @ self._score_coef + self.b
        return self.kernel(X, self._sv_X) @ self._sv_coef + self.b

    def decision_function_blocked(
        self, X: np.ndarray, bounds
    ) -> np.ndarray:
        """Decision values for ``X`` whose rows are a concatenation of
        independent blocks ``bounds = [(start, stop), ...]``, with every
        block's scores bit-identical to ``decision_function(X[start:stop])``.

        This is the serving micro-batcher's scoring call: windows from
        many streams ride in one matrix, but each stream's chunk must
        score exactly as it would have alone (dgemm rounds
        shape-dependently), so the BLAS products run per block while the
        elementwise kernel stages are fused across the whole matrix
        (:func:`~repro.learning.kernels.gaussian_cross_kernel_blocked`).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be (m, d), got shape {X.shape}")
        sigma2 = getattr(self.kernel, "sigma2", None)
        if (
            self.alpha is None
            or len(self.support_) == 0
            or self._sv_X is None
            or sigma2 is None
            or self._score_norms is None
        ):
            # No Gaussian fast path (untrained / zero-SV / exotic
            # kernel): per-block serial scoring is the definition.
            return np.concatenate(
                [self.decision_function(X[start:stop]) for start, stop in bounds]
            ) if len(X) else np.zeros(0)
        K = gaussian_cross_kernel_blocked(
            X, self._score_X, self._score_norms, sigma2, bounds
        )
        scores = np.empty(len(X))
        for start, stop in bounds:
            scores[start:stop] = K[start:stop] @ self._score_coef + self.b
        return scores

    def predict(
        self, X: Optional[np.ndarray] = None, gram: Optional[np.ndarray] = None
    ) -> np.ndarray:
        scores = self.decision_function(X, gram=gram)
        return np.where(scores >= 0.0, 1.0, -1.0)
