"""Algorithm 1 — CFG inference from adjacent app stack traces.

LEAPS never inspects binaries: the control flow graph of the monitored
application is inferred purely from the app-space stack walks attached
to consecutive system events.

Two kinds of path are extracted (paper Fig. 3):

* **explicit** paths — the caller→callee edges visible *inside* a single
  stack walk (frame i called frame i+1);
* **implicit** paths — the flow *between* two adjacent events: control
  returned from the first walk's innermost frame up to the lowest common
  ancestor of the two walks, then called down to the second walk's
  innermost frame.

Nodes are ``(module, function)`` pairs; addresses are deliberately not
part of node identity, since payload rebuilds re-randomize them.

Fast path (DESIGN.md §10): every node is interned to a dense integer id
in a per-CFG symbol table, adjacency lives in int sets, and edge
membership is a dict keyed on the packed ``(src_id << 32) | dst_id``
integer — so the hot membership checks of Algorithm 2 hash machine
integers instead of re-hashing nested string tuples.  The
``FrameNode``-level public API (``has_node``/``has_edge``/
``edge_kinds``/``nodes``/``edges``/…) is unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.etw.events import FrameNode

EXPLICIT = "explicit"
IMPLICIT = "implicit"

Edge = Tuple[FrameNode, FrameNode]

#: Low 32 bits of a packed edge key — the destination node id.
_DST_MASK = (1 << 32) - 1


class CFG:
    """A directed control flow graph over ``(module, function)`` nodes.

    Edges remember which extraction produced them (explicit, implicit,
    or both) — Figure 4 renders them differently and the ablations need
    to distinguish them.

    Internally nodes are interned to dense integer ids (first-appearance
    order); the id-level accessors (:meth:`intern`, :meth:`node_id`,
    :meth:`path_ids`, :meth:`packed_edge_array`) are the Algorithm-2
    fast path, while the ``FrameNode``-level API below matches the
    historical tuple-keyed implementation query for query.
    """

    def __init__(self):
        #: node → dense id, in first-appearance order
        self._ids: Dict[FrameNode, int] = {}
        #: id → node (inverse of ``_ids``)
        self._node_list: List[FrameNode] = []
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        #: packed ``(src_id << 32) | dst_id`` → edge kinds
        self._kinds: Dict[int, Set[str]] = {}
        #: bumped on every structural change — memo invalidation hook
        #: for consumers that snapshot the graph (WeightAssessor)
        self._version = 0

    # -- construction -------------------------------------------------
    def intern(self, node: FrameNode) -> int:
        """Dense id of ``node``, adding it to the graph if absent."""
        ident = self._ids.get(node)
        if ident is None:
            ident = len(self._node_list)
            self._ids[node] = ident
            self._node_list.append(node)
            self._succ[ident] = set()
            self._pred[ident] = set()
            self._version += 1
        return ident

    def add_node(self, node: FrameNode) -> None:
        self.intern(node)

    def add_edge(self, src: FrameNode, dst: FrameNode, kind: str = EXPLICIT) -> None:
        if kind not in (EXPLICIT, IMPLICIT):
            raise ValueError(f"unknown edge kind {kind!r}")
        self._add_edge_ids(self.intern(src), self.intern(dst), kind)

    def _add_edge_ids(self, src_id: int, dst_id: int, kind: str) -> None:
        packed = (src_id << 32) | dst_id
        kinds = self._kinds.get(packed)
        if kinds is None:
            kinds = self._kinds[packed] = set()
            self._succ[src_id].add(dst_id)
            self._pred[dst_id].add(src_id)
            self._version += 1
        if kind not in kinds:
            kinds.add(kind)
            self._version += 1

    def merge(self, other: "CFG") -> None:
        """Union ``other`` into this graph, preserving edge kinds."""
        mapping = [self.intern(node) for node in other._node_list]
        for packed, kinds in other._kinds.items():
            src_id = mapping[packed >> 32]
            dst_id = mapping[packed & _DST_MASK]
            for kind in kinds:
                self._add_edge_ids(src_id, dst_id, kind)

    # -- queries ------------------------------------------------------
    def has_node(self, node: FrameNode) -> bool:
        return node in self._ids

    def has_edge(self, src: FrameNode, dst: FrameNode) -> bool:
        src_id = self._ids.get(src)
        if src_id is None:
            return False
        dst_id = self._ids.get(dst)
        return dst_id is not None and dst_id in self._succ[src_id]

    def edge_kinds(self, src: FrameNode, dst: FrameNode) -> FrozenSet[str]:
        src_id = self._ids.get(src)
        dst_id = self._ids.get(dst)
        if src_id is None or dst_id is None:
            return frozenset()
        return frozenset(self._kinds.get((src_id << 32) | dst_id, ()))

    def successors(self, node: FrameNode) -> FrozenSet[FrameNode]:
        ident = self._ids.get(node)
        if ident is None:
            return frozenset()
        nodes = self._node_list
        return frozenset(nodes[dst] for dst in self._succ[ident])

    def predecessors(self, node: FrameNode) -> FrozenSet[FrameNode]:
        ident = self._ids.get(node)
        if ident is None:
            return frozenset()
        nodes = self._node_list
        return frozenset(nodes[src] for src in self._pred[ident])

    def nodes(self) -> Iterator[FrameNode]:
        return iter(self._ids)

    def edges(self) -> Iterator[Edge]:
        nodes = self._node_list
        for packed in self._kinds:
            yield (nodes[packed >> 32], nodes[packed & _DST_MASK])

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return len(self._kinds)

    @property
    def version(self) -> int:
        """Monotonic structural version; changes iff the graph changed."""
        return self._version

    def __contains__(self, node: FrameNode) -> bool:
        return self.has_node(node)

    def __eq__(self, other: object) -> bool:
        """Graph equality: same node set and same edge→kinds mapping.

        Intern order (and therefore id assignment) is irrelevant — two
        CFGs built by merging the same logs in different orders compare
        equal.
        """
        if not isinstance(other, CFG):
            return NotImplemented
        if self._ids.keys() != other._ids.keys():
            return False
        return self._edge_kind_map() == other._edge_kind_map()

    def _edge_kind_map(self) -> Dict[Edge, FrozenSet[str]]:
        nodes = self._node_list
        return {
            (nodes[packed >> 32], nodes[packed & _DST_MASK]): frozenset(kinds)
            for packed, kinds in self._kinds.items()
        }

    def __repr__(self) -> str:
        return f"CFG(nodes={self.node_count}, edges={self.edge_count})"

    # -- id-level fast path (Algorithm 2) ------------------------------
    def node_id(self, node: FrameNode) -> int:
        """Dense id of ``node``, or -1 when absent (no insertion)."""
        return self._ids.get(node, -1)

    def path_ids(self, path: Sequence[FrameNode]) -> List[int]:
        """Ids of a path's nodes, -1 for nodes outside the graph."""
        get = self._ids.get
        return [get(node, -1) for node in path]

    def packed_edge_array(self) -> np.ndarray:
        """Sorted int64 array of packed edge keys — the vectorized edge
        membership table (``np.searchsorted`` against packed queries)."""
        arr = np.fromiter(self._kinds.keys(), dtype=np.int64, count=len(self._kinds))
        arr.sort()
        return arr


def common_prefix_length(first: Sequence[FrameNode], second: Sequence[FrameNode]) -> int:
    limit = min(len(first), len(second))
    for position in range(limit):
        if first[position] != second[position]:
            return position
    return limit


def implicit_chain(
    prev: Sequence[FrameNode], curr: Sequence[FrameNode]
) -> List[FrameNode]:
    """The inferred node sequence control traversed between two adjacent
    stack walks: returns from ``prev``'s innermost frame up to the lowest
    common ancestor, then calls down to ``curr``'s innermost frame."""
    split = common_prefix_length(prev, curr)
    chain: List[FrameNode] = list(reversed(prev[split:]))
    if split > 0:
        chain.append(prev[split - 1])
    chain.extend(curr[split:])
    return chain


class CFGInferencer:
    """Algorithm 1: build a :class:`CFG` from a sequence of app paths."""

    def infer(self, app_paths: Iterable[Sequence[FrameNode]]) -> CFG:
        """Infer the CFG of one log's app-path sequence.

        ``app_paths`` is consumed exactly once, so any iterator or
        generator (of paths, of path-iterators) is a valid input; each
        path is materialized to a tuple before use.  App paths are
        massively repetitive, so path-level memo sets skip re-adding a
        stack walk (or an adjacent-walk pair) already folded into the
        graph — edge insertion is idempotent, making the memoized result
        identical to the naive per-event loop.
        """
        cfg = CFG()
        seen_paths: Set[Tuple[FrameNode, ...]] = set()
        seen_pairs: Set[Tuple[Tuple[FrameNode, ...], Tuple[FrameNode, ...]]] = set()
        prev: Tuple[FrameNode, ...] = ()
        for raw in app_paths:
            path = tuple(raw)
            if path not in seen_paths:
                seen_paths.add(path)
                self.add_explicit_path(cfg, path)
            if prev and path:
                pair = (prev, path)
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    self.add_implicit_path(cfg, prev, path)
            if path:
                prev = path
        return cfg

    def infer_many(
        self, paths_iters: Iterable[Iterable[Sequence[FrameNode]]]
    ) -> CFG:
        """Infer one CFG per log and merge them — the multi-log trainer.

        Each item of ``paths_iters`` is one log's app-path sequence;
        every log is inferred independently (implicit edges are never
        drawn *across* logs — adjacent events must come from the same
        capture) and the partial CFGs are merged in input order with
        kind sets preserved.
        """
        merged = CFG()
        for paths in paths_iters:
            merged.merge(self.infer(paths))
        return merged

    @staticmethod
    def add_explicit_path(cfg: CFG, path: Sequence[FrameNode]) -> None:
        ids = [cfg.intern(node) for node in path]
        for src_id, dst_id in zip(ids, ids[1:]):
            if src_id != dst_id:
                cfg._add_edge_ids(src_id, dst_id, EXPLICIT)

    @staticmethod
    def add_implicit_path(
        cfg: CFG, prev: Sequence[FrameNode], curr: Sequence[FrameNode]
    ) -> None:
        chain = implicit_chain(prev, curr)
        ids = [cfg.intern(node) for node in chain]
        for src_id, dst_id in zip(ids, ids[1:]):
            if src_id != dst_id:
                cfg._add_edge_ids(src_id, dst_id, IMPLICIT)
