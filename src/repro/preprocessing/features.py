"""3-tuple event features.

Each event is reduced to a numeric 3-tuple (paper §III-B / Fig. 2):

``(event_type_id, app_signature_id, system_signature_id)``

* *event type* — the behaviour-level identity ``(category, opcode,
  name)``.  Stable across payload rebuilds, so this dimension carries
  the cross-build detection signal.
* *app signature* — the app-space call path ``((module, function), …)``.
  Payload polymorphism re-randomizes these per build; unseen signatures
  map to the reserved UNKNOWN id.
* *system signature* — the system-space call chain; shared OS code, so
  stable.

Ids are assigned by first-appearance order during :meth:`fit`, which
makes featurization deterministic for a fixed training corpus.  (The
full UPGMA clustering of the paper's Figure 2 collapses *similar* —
rather than identical — attributes to one id; that refinement is not
built, see ROADMAP item 2.)

Fast paths: logs are highly repetitive — thousands of events collapse
to a few dozen distinct walks and event types — and every path works on
:class:`~repro.etw.events.EventColumns`, grouping events by event type
through one packed key (:func:`etype_keys`).  Scans featurize through
:class:`StreamFeatures`, which resolves each walk and event type once
per stream and gathers the rows; training builds one
:class:`AttributeTable` per log (each used walk partitioned once), which
:meth:`EventFeaturizer.fit` and :meth:`EventFeaturizer.transform_columns`
read.  Both give the uncached per-event lookups' values bit for bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.etw.events import EventColumns, EventRecord, StackFrame
from repro.etw.stack_partition import StackPartitionError, StackPartitioner

#: Reserved id for attribute values never seen during training.
UNKNOWN_ID = 0


class Vocabulary:
    """First-appearance-ordered mapping of hashable keys to ids ≥ 1."""

    def __init__(self):
        self._ids: Dict[Hashable, int] = {}
        self.frozen = False

    def add(self, key: Hashable) -> int:
        if key not in self._ids:
            if self.frozen:
                return UNKNOWN_ID
            self._ids[key] = len(self._ids) + 1
        return self._ids[key]

    def lookup(self, key: Hashable) -> int:
        return self._ids.get(key, UNKNOWN_ID)

    def keys(self):
        """Keys in first-appearance (id) order."""
        return self._ids.keys()

    def freeze(self) -> None:
        self.frozen = True

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids


class AttributeTable(NamedTuple):
    """A log's attribute triples, factored by table: its distinct event
    types and the app and system signatures of each walk its events
    use, each in first-appearance order, plus per event the index of
    its event type and of its walk.  Built by
    :meth:`EventFeaturizer.attribute_table`; training reads the app
    signatures as Algorithm 1's and 2's app paths."""

    etypes: List[Tuple[str, int, str]]
    etype_of: np.ndarray
    apps: List[tuple]
    systems: List[tuple]
    walk_of: np.ndarray

    def app_paths(self) -> List[tuple]:
        """Each event's app path, gathered from the per-walk table."""
        return list(map(self.apps.__getitem__, self.walk_of.tolist()))


def _first_appearance(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``codes`` in first-appearance order: the
    event index where each first appears, and each event's value
    index."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def etype_keys(cols: EventColumns) -> np.ndarray:
    """One int64 key per event, equal for two events exactly when their
    (category, opcode, name) codes are equal: the codes packed into one
    integer when the table sizes times the opcode span fit int64, else
    (say, an object opcode column of values past int64) each column's
    dense ranks, combined pairwise and re-ranked so no product passes
    n²."""
    category, opcode, name = cols.category_id, cols.opcode, cols.name_id
    categories, names = len(cols.category_vocab), len(cols.name_vocab)
    if len(opcode) and opcode.dtype != object:
        low = int(opcode.min())
        if (int(opcode.max()) - low + 1) * categories * names < 2**63:
            return ((opcode - low) * categories + category) * names + name
    keys = np.zeros(len(opcode), dtype=np.int64)
    for column in (opcode, category, name):
        ranks = np.unique(column, return_inverse=True)[1]
        keys = np.unique(keys * len(keys) + ranks, return_inverse=True)[1]
    return keys


class EventFeaturizer:
    """Fit attribute vocabularies on training logs, then map any event
    stream to an ``(n, 3)`` feature matrix."""

    DIMS = 3

    def __init__(self, partitioner: StackPartitioner | None = None):
        self.partitioner = partitioner or StackPartitioner()
        self.etype_vocab = Vocabulary()
        self.app_vocab = Vocabulary()
        self.system_vocab = Vocabulary()
        self.fitted = False

    # -- attribute extraction -----------------------------------------
    def _signatures(self, frames: Sequence[StackFrame]) -> Tuple[tuple, tuple]:
        """A walk's app and system signatures."""
        split = self.partitioner.split_index(frames)
        app = tuple((frame.module, frame.function) for frame in frames[:split])
        system = tuple((frame.module, frame.function) for frame in frames[split:])
        return app, system

    def attribute_table(self, cols: EventColumns) -> AttributeTable:
        """``cols``' attributes by table: each walk an event uses is
        partitioned once, in first-appearance order, so a walk that
        fails to partition raises the error the per-event path raises —
        the first failing walk in event order; table entries no event
        uses are never partitioned."""
        first_walk, walk_of = _first_appearance(cols.walk_id)
        apps, systems = [], []
        walks = cols.walks
        for walk in cols.walk_id[first_walk].tolist():
            app, system = self._signatures(walks[walk])
            apps.append(app)
            systems.append(system)

        first_etype, etype_of = _first_appearance(etype_keys(cols))
        categories, names = cols.category_vocab, cols.name_vocab
        etypes = [
            (categories[category], opcode, names[name])
            for category, opcode, name in zip(
                cols.category_id[first_etype].tolist(),
                cols.opcode[first_etype].tolist(),
                cols.name_id[first_etype].tolist(),
            )
        ]
        return AttributeTable(etypes, etype_of, apps, systems, walk_of)

    # -- fit / transform ----------------------------------------------
    def fit(
        self, *logs: Union[AttributeTable, EventColumns, Sequence[EventRecord]]
    ) -> "EventFeaturizer":
        """Fit the vocabularies on ``logs`` in order — attribute tables,
        columns, or records (converted with
        :meth:`~repro.etw.events.EventColumns.from_records`).  Each
        vocabulary sees its keys in first-appearance order over the
        events, one key per distinct event type and per used walk."""
        for table in logs:
            if not isinstance(table, AttributeTable):
                if not isinstance(table, EventColumns):
                    table = EventColumns.from_records(table)
                table = self.attribute_table(table)
            for key in table.etypes:
                self.etype_vocab.add(key)
            for app, system in zip(table.apps, table.systems):
                self.app_vocab.add(app)
                self.system_vocab.add(system)
        self.etype_vocab.freeze()
        self.app_vocab.freeze()
        self.system_vocab.freeze()
        self.fitted = True
        return self

    def transform(self, events: Sequence[EventRecord]) -> np.ndarray:
        """:meth:`transform_columns` of a record list's table."""
        return self.transform_columns(
            self.attribute_table(EventColumns.from_records(events))
        )

    def transform_columns(self, table: AttributeTable) -> np.ndarray:
        """The ``(n, 3)`` feature rows of a log's :class:`AttributeTable`:
        one lookup per distinct event type and per used walk, then the
        rows are gathered from those ids — the per-event lookups'
        values, bit for bit."""
        if not self.fitted:
            raise RuntimeError("EventFeaturizer.transform before fit")
        lookup = self.etype_vocab.lookup
        etype_ids = np.array([lookup(key) for key in table.etypes], dtype=float)
        signature_ids = np.array(
            [
                (self.app_vocab.lookup(app), self.system_vocab.lookup(system))
                for app, system in zip(table.apps, table.systems)
            ],
            dtype=float,
        ).reshape(-1, 2)
        out = np.empty((len(table.walk_of), self.DIMS), dtype=float)
        out[:, 0] = etype_ids.take(table.etype_of)
        out[:, 1:] = signature_ids.take(table.walk_of, axis=0)
        return out


class StreamFeatures:
    """The scans' featurizer: one stream's rows, block by block.  The
    stream's blocks share cumulative tables (its parser's or chunk
    decoder's, or one log's), so walk id → (app id, system id) and
    (category, opcode, name) codes → etype id are kept for the stream's
    life and only entries new to it are resolved; a block over other
    tables rebinds them."""

    def __init__(self, featurizer: EventFeaturizer):
        self.featurizer = featurizer
        self._bound: tuple = (None, None, None)

    def transform(
        self, cols: EventColumns
    ) -> Tuple[np.ndarray, Optional[StackPartitionError]]:
        """``(rows, None)`` for ``cols``' events — or, when a walk does
        not partition, the rows of the events before the first such walk
        in event order, and its :class:`StackPartitionError`."""
        tables = (cols.walks, cols.category_vocab, cols.name_vocab)
        if any(mine is not theirs for mine, theirs in zip(tables, self._bound)):
            self._bound, self._etype_ids = tables, {}
            self._walk_rows = np.zeros((0, 2))  # NaN until resolved
        stop, error = self._resolve_walks(cols.walks, cols.walk_id)
        block = cols if stop == cols.n_events else cols.rows(0, stop)
        distinct, etype_of = np.unique(etype_keys(block), return_inverse=True)
        member = np.empty(len(distinct), dtype=np.intp)  # an event of each
        member[etype_of] = np.arange(stop)
        codes = (cols.category_id, cols.opcode, cols.name_id)
        keys = list(zip(*(column[member].tolist() for column in codes)))
        memo, lookup = self._etype_ids, self.featurizer.etype_vocab.lookup
        for category, opcode, name in set(keys) - memo.keys():
            memo[category, opcode, name] = lookup(
                (cols.category_vocab[category], opcode, cols.name_vocab[name])
            )
        out = np.empty((stop, EventFeaturizer.DIMS))
        out[:, 0] = np.take(list(map(memo.__getitem__, keys)), etype_of)
        out[:, 1:] = self._walk_rows.take(cols.walk_id[:stop], axis=0)
        return out, error

    def _resolve_walks(
        self, walks: list, walk_id: np.ndarray
    ) -> Tuple[int, Optional[StackPartitionError]]:
        """Resolve the walks new to the stream, in bulk (lists, then one
        array store); ``(stop, error)`` as in :meth:`transform`."""
        grow = len(walks) - len(self._walk_rows)
        if grow > 0:  # geometrically, so growth costs O(1) per walk
            more = np.full((max(grow, len(self._walk_rows)), 2), np.nan)
            self._walk_rows = np.concatenate((self._walk_rows, more))
        fresh = np.isnan(self._walk_rows[walk_id, 0])
        if not fresh.any():
            return len(walk_id), None
        new = np.flatnonzero(np.bincount(walk_id[fresh], minlength=len(walks)))
        featurizer, ids, failed = self.featurizer, [], {}
        apps, systems = featurizer.app_vocab, featurizer.system_vocab
        for walk in new.tolist():
            try:
                app, system = featurizer._signatures(walks[walk])
                ids.append((apps.lookup(app), systems.lookup(system)))
            except StackPartitionError as error:  # stop at its first event
                failed[int(np.argmax(walk_id == walk))] = error
                ids.append((np.nan, np.nan))
        self._walk_rows[new] = np.reshape(ids, (-1, 2))
        stop = min(failed, default=len(walk_id))
        return stop, failed.get(stop)
