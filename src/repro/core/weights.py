"""Algorithm 2 — weight assessment of mixed-log events against the benign CFG.

For every event in the noisy "mixed" training log, measure how well its
app-space call path is explained by the CFG inferred from the benign
log:

* ``CHECK_CFG`` — exact reachability: every node and every consecutive
  edge of the path exists in the benign CFG → benignity 1.0.
* density-array fallback (``ESTIMATE_WEIGHT``) — when the path strays
  off the benign CFG, score each element (node or edge) of the path for
  presence and take the mean, yielding a benignity in [0, 1].

The per-sample importance handed to the Weighted SVM for *negative*
(mixed) samples is the inversion ``c_i = 1 − benignity``: events the
benign CFG fully explains are almost certainly mislabeled benign noise
and get weight ≈ 0; events on alien paths are true malicious evidence
and get weight ≈ 1 (see DESIGN.md §1 for why the inversion is needed).

Fast path (DESIGN.md §10): :meth:`WeightAssessor.assess` maps each path
to its CFG id-tuple (unknown nodes → -1), deduplicates — app paths are
massively repetitive — and computes each distinct tuple's benignity
once through a vectorized membership check (node: ``id >= 0``; edge:
``np.searchsorted`` against the CFG's sorted packed-edge array),
scattering the memoized weights back per event.  The emitted ``c_i``
vector is bit-identical to :meth:`~WeightAssessor.event_weight` applied
path by path: the fallback builds the same interleaved float64 density
array and takes the same ``mean``.  Collapsing every
unknown node to one id is benignity-preserving — an unknown node scores
0 whatever its identity, as does any edge touching it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.cfg_inference import CFG
from repro.etw.events import FrameNode


class WeightAssessor:
    """Scores mixed-log app paths against a benign CFG.

    The memo snapshots the CFG through its :attr:`~CFG.version` counter:
    mutating the graph between ``assess`` calls invalidates the cached
    weights and the packed-edge table automatically.
    """

    def __init__(self, benign_cfg: CFG):
        self.benign_cfg = benign_cfg
        #: path id-tuple → c_i weight, valid for ``_memo_version``
        self._memo: Dict[Tuple[int, ...], float] = {}
        self._memo_version = -1
        self._edge_array = np.zeros(0, dtype=np.int64)

    # -- Algorithm 2 primitives ---------------------------------------
    def check_cfg(self, path: Sequence[FrameNode]) -> bool:
        """Exact reachability of ``path`` inside the benign CFG."""
        if not path:
            return True
        if not all(self.benign_cfg.has_node(node) for node in path):
            return False
        return all(
            self.benign_cfg.has_edge(src, dst) for src, dst in zip(path, path[1:])
        )

    def density_array(self, path: Sequence[FrameNode]) -> np.ndarray:
        """Presence scores for the path's alternating node/edge elements:
        ``[n0, e01, n1, e12, ..., nk]`` — 1.0 where the benign CFG
        contains the element, 0.0 where it does not."""
        if not path:
            return np.zeros(0)
        scores: List[float] = [1.0 if self.benign_cfg.has_node(path[0]) else 0.0]
        for src, dst in zip(path, path[1:]):
            scores.append(1.0 if self.benign_cfg.has_edge(src, dst) else 0.0)
            scores.append(1.0 if self.benign_cfg.has_node(dst) else 0.0)
        return np.asarray(scores)

    def benignity(self, path: Sequence[FrameNode]) -> float:
        """Benignity in [0, 1]; 1.0 iff the path is fully explained.

        An empty app path carries no app-space evidence and is treated
        as benign (weight 0) — it cannot incriminate anything.
        """
        if self.check_cfg(path):
            return 1.0
        return float(self.density_array(path).mean())

    # -- per-event weights --------------------------------------------
    def event_weight(self, path: Sequence[FrameNode]) -> float:
        """``c_i = 1 − benignity`` for a mixed (negative) sample."""
        return 1.0 - self.benignity(path)

    def assess(self, paths: Iterable[Sequence[FrameNode]]) -> np.ndarray:
        """Vector of ``c_i`` over a sequence of mixed-log app paths.

        Memoized; bit-identical to :meth:`event_weight` per path.
        """
        self._sync()
        path_ids = self.benign_cfg.path_ids
        memo = self._memo
        paths = paths if isinstance(paths, (list, tuple)) else list(paths)
        out = np.empty(len(paths))
        for position, path in enumerate(paths):
            key = tuple(path_ids(path))
            weight = memo.get(key)
            if weight is None:
                weight = 1.0 - self._benignity_ids(
                    np.asarray(key, dtype=np.int64)
                )
                memo[key] = weight
            out[position] = weight
        return out

    # -- vectorized id-space scoring ----------------------------------
    def _sync(self) -> None:
        """Refresh the memo and packed-edge table if the CFG changed."""
        version = self.benign_cfg.version
        if version != self._memo_version:
            self._memo.clear()
            self._edge_array = self.benign_cfg.packed_edge_array()
            self._memo_version = version

    def _benignity_ids(self, ids: np.ndarray) -> float:
        """Benignity of one distinct path given its node-id array
        (-1 = node unknown to the benign CFG)."""
        count = ids.shape[0]
        if count == 0:
            return 1.0
        node_ok = ids >= 0
        if count == 1:
            return 1.0 if node_ok[0] else 0.0
        edge_ok = np.zeros(count - 1, dtype=bool)
        both_known = node_ok[:-1] & node_ok[1:]
        if both_known.any():
            packed = (ids[:-1][both_known] << np.int64(32)) | ids[1:][both_known]
            edges = self._edge_array
            pos = np.searchsorted(edges, packed)
            hits = np.zeros(packed.shape[0], dtype=bool)
            inside = pos < edges.shape[0]
            if inside.any():
                hits[inside] = edges[pos[inside]] == packed[inside]
            edge_ok[both_known] = hits
        if node_ok.all() and edge_ok.all():
            # CHECK_CFG passes: fully explained.
            return 1.0
        # Interleave [n0, e01, n1, ..., nk] exactly like density_array,
        # then take the same float64 mean — bit-identical fallback.
        scores = np.empty(2 * count - 1)
        scores[0::2] = node_ok
        scores[1::2] = edge_ok
        return float(scores.mean())
