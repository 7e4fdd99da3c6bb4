"""Platt's scalar SMO partner walk — the oracle for the vectorized
partner selection in :meth:`repro.learning.svm.KernelSVM._partner_step`.

The walk sorts candidate partners by |E_i − E_j| and attempts
``_take_step`` on each until one succeeds.  The subclass below swaps it
in through the one method ``fit`` calls per violating sample, so
everything else about the solver is production code.
"""

from __future__ import annotations

import numpy as np

from repro.learning.wsvm import WeightedSVM


class ReferenceWeightedSVM(WeightedSVM):
    """:class:`WeightedSVM` trained with the scalar partner walk."""

    def _partner_step(
        self, i, K, K_diag, y, alpha, C_vec, f, E, E_i, gaps, rng
    ) -> bool:
        order = np.argsort(-gaps, kind="stable")
        # break exact ties randomly so degenerate problems
        # cannot cycle; the rng is seeded, so still deterministic
        if len(order) > 1 and gaps[order[0]] == gaps[order[1]]:
            order = order.copy()
            rng.shuffle(order)
            order = order[np.argsort(-gaps[order], kind="stable")]
        for j in order:
            if gaps[j] < 0:
                break
            if self._take_step(i, int(j), K, y, alpha, C_vec, f, E_i, E[j]):
                return True
        return False
