"""A brute-force QP solve of the SVM dual — the oracle that certifies
:func:`repro.learning.svm._smo` on problems small enough to enumerate.

The dual is ``min ½αᵀQα − eᵀα`` with ``Q = (yyᵀ)∘K``, ``0 ≤ α ≤ C`` and
``yᵀα = 0``.  Its optimal set is a polytope, and at a vertex of it the
free variables' KKT system is non-singular.  So enumerating every
assignment of each sample to its lower bound, its upper bound or free
(3ⁿ; a sample with ``Cᵢ = 0`` has one status), solving the equality
system for the free ones, and keeping the candidates that are feasible
KKT points finds the optimum even when ``Q`` is singular.  No solver
code is shared with production: plain ``numpy.linalg`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

LOWER, UPPER, FREE = 0, 1, 2


@dataclass(frozen=True)
class DualOptimum:
    alpha: np.ndarray
    #: the dual objective eᵀα − ½αᵀQα (larger is better)
    dual: float
    #: every intercept b that makes (α, b) a KKT point; a single
    #: point whenever α has a free component
    b_low: float
    b_high: float


def intercept_range(Q, y, C, alpha):
    """The interval of intercepts b satisfying KKT with ``alpha``.

    With ``vₜ = −yₜ∇f(α)ₜ``, a free sample needs b = vₜ; a sample at a
    bound needs b ≥ vₜ (α = 0 with y = +1, α = C with y = −1) or b ≤ vₜ
    (the other two cases).  A sample with ``Cₜ = 0`` imposes nothing.
    """
    v = -y * (Q @ alpha - 1.0)
    movable = C > 0
    lower, upper = alpha == 0.0, alpha == C
    free = movable & ~lower & ~upper
    floor = movable & ((lower & (y > 0)) | (upper & (y < 0)))
    ceiling = movable & ((lower & (y < 0)) | (upper & (y > 0)))
    return (
        float(v[floor | free].max(initial=-np.inf)),
        float(v[ceiling | free].min(initial=np.inf)),
    )


def solve_dual(K, y, C, tol: float = 1e-9) -> DualOptimum:
    """The feasible KKT point with the largest dual objective."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    C = np.asarray(C, dtype=float)
    n = len(y)
    if n > 10:
        raise ValueError("enumeration is 3ⁿ; keep n small")
    Q = np.outer(y, y) * K
    slack = tol * max(1.0, float(np.max(C, initial=0.0)))
    choices = [(LOWER,) if C[t] == 0 else (LOWER, UPPER, FREE) for t in range(n)]
    best = None
    for status in product(*choices):
        status = np.array(status)
        alpha = np.where(status == UPPER, C, 0.0)
        free = np.flatnonzero(status == FREE)
        if len(free):
            # Q_FF α_F + y_F b = 1 − Q_F,fixed α_fixed;  y_Fᵀα_F = −yᵀα_fixed
            k = len(free)
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = Q[np.ix_(free, free)]
            A[:k, k] = A[k, :k] = y[free]
            rhs = np.append(1.0 - Q[free] @ alpha, -(y @ alpha))
            alpha[free] = np.linalg.lstsq(A, rhs, rcond=None)[0][:k]
        if (
            np.any(alpha < -slack)
            or np.any(alpha > C + slack)
            or abs(y @ alpha) > slack
        ):
            continue
        # snap what rounding left beside a bound onto it
        alpha[np.abs(alpha) <= slack] = 0.0
        alpha = np.where(np.abs(alpha - C) <= slack, C, alpha)
        b_low, b_high = intercept_range(Q, y, C, alpha)
        if b_low > b_high + tol:
            continue
        dual = float(alpha.sum() - 0.5 * alpha @ Q @ alpha)
        if best is None or dual > best.dual:
            best = DualOptimum(alpha, dual, b_low, b_high)
    if best is None:
        raise AssertionError("no feasible KKT point found")
    return best
