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

Scan fast path: production logs are highly repetitive — thousands of
events collapse to a few dozen distinct ``(etype, app-path,
system-path)`` attribute triples.  :meth:`transform` over records
(text scans, streams, serve, training) memoizes resolved ids per raw
event key; :meth:`transform_columns` over a capture's
:class:`~repro.etw.events.EventColumns` resolves each used walk and
each distinct event type once and fills the rows with ``np.take``.
Both give the uncached lookups' values bit for bit.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Sequence, Tuple

import numpy as np

from repro.etw.events import EventColumns, EventRecord, StackFrame
from repro.etw.stack_partition import StackPartitioner, StackPartitionError

#: Reserved id for attribute values never seen during training.
UNKNOWN_ID = 0

#: One event's attribute triple: (etype, app signature, system signature).
AttributeTriple = Tuple[Hashable, Hashable, Hashable]


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
        # attribute triple → resolved (etype_id, app_id, system_id);
        # valid only after the vocabularies are frozen in fit()
        self._id_cache: Dict[AttributeTriple, Tuple[int, int, int]] = {}
        # (category, opcode, name, frames) → resolved ids: short-circuits
        # the attribute-triple construction itself, which is the dominant
        # per-event cost once ids are memoized.  Keying on the raw frames
        # tuple is sound because the attribute triple is a pure function
        # of (etype, frames); cheap because the parser interns frames and
        # StackFrame caches its hash.
        self._event_cache: Dict[tuple, Tuple[int, int, int]] = {}

    # -- attribute extraction -----------------------------------------
    def attributes(self, event: EventRecord) -> AttributeTriple:
        """One partition pass per event (the pre-fast-path version
        partitioned twice, once per stack half)."""
        return (event.etype, *self._signatures(event.frames))

    def _signatures(self, frames: Sequence[StackFrame]) -> Tuple[tuple, tuple]:
        """A walk's app and system signatures."""
        split = self.partitioner.split_index(frames)
        app = tuple((frame.module, frame.function) for frame in frames[:split])
        system = tuple((frame.module, frame.function) for frame in frames[split:])
        return app, system

    # -- fit / transform ----------------------------------------------
    def fit(self, *event_streams: Iterable[EventRecord]) -> "EventFeaturizer":
        self._id_cache.clear()
        self._event_cache.clear()
        for stream in event_streams:
            for event in stream:
                etype, app, system = self.attributes(event)
                self.etype_vocab.add(etype)
                self.app_vocab.add(app)
                self.system_vocab.add(system)
        self.etype_vocab.freeze()
        self.app_vocab.freeze()
        self.system_vocab.freeze()
        self.fitted = True
        return self

    def _resolve(self, attrs: AttributeTriple) -> Tuple[int, int, int]:
        """Vocabulary ids for one attribute triple, through the memo."""
        ids = self._id_cache.get(attrs)
        if ids is None:
            etype, app, system = attrs
            ids = (
                self.etype_vocab.lookup(etype),
                self.app_vocab.lookup(app),
                self.system_vocab.lookup(system),
            )
            self._id_cache[attrs] = ids
        return ids

    def _resolve_event(self, event: EventRecord) -> Tuple[int, int, int]:
        """Vocabulary ids for one event, through the event-level memo."""
        key = (event.category, event.opcode, event.name, event.frames)
        ids = self._event_cache.get(key)
        if ids is None:
            ids = self._resolve(self.attributes(event))
            self._event_cache[key] = ids
        return ids

    def transform(self, events: Sequence[EventRecord]) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("EventFeaturizer.transform before fit")
        out = np.empty((len(events), self.DIMS), dtype=float)
        resolve_event = self._resolve_event
        rows = [resolve_event(event) for event in events]
        if rows:
            out[:] = rows
        return out

    def transform_columns(self, cols: EventColumns) -> np.ndarray:
        """:meth:`transform` of ``cols.records()``, bit for bit, without
        building a record: each walk an event uses is partitioned once,
        each distinct ``(category, opcode, name)`` is looked up once,
        and the rows are gathered from those ids.  A walk that fails to
        partition raises the error the record path raises — the first
        failing walk in event order; table entries no event uses are
        never partitioned."""
        if not self.fitted:
            raise RuntimeError("EventFeaturizer.transform before fit")
        n = len(cols.walk_id)
        out = np.empty((n, self.DIMS), dtype=float)
        used, walk_of = np.unique(cols.walk_id, return_inverse=True)
        signature_ids = np.empty((len(used), 2))
        failures = {}
        for position, walk in enumerate(used.tolist()):
            try:
                app, system = self._signatures(cols.walks[walk])
            except StackPartitionError as error:
                failures[walk] = error
                continue
            signature_ids[position] = (
                self.app_vocab.lookup(app), self.system_vocab.lookup(system)
            )
        if failures:
            failing = np.isin(cols.walk_id, list(failures))
            raise failures[int(cols.walk_id[failing.argmax()])]

        # Group events by event type through dense codes: each product
        # below is of two codes smaller than n, so it cannot overflow.
        _, etype_of = np.unique(cols.category_id, return_inverse=True)
        for column in (cols.opcode, cols.name_id):
            values, codes = np.unique(column, return_inverse=True)
            etypes, etype_of = np.unique(
                etype_of * len(values) + codes, return_inverse=True
            )
        sample = np.empty(len(etypes), dtype=np.intp)
        sample[etype_of] = np.arange(n)  # any event of each type will do
        categories, names = cols.category_vocab, cols.name_vocab
        lookup = self.etype_vocab.lookup
        etype_ids = np.array([
            lookup((categories[category], opcode, names[name]))
            for category, opcode, name in zip(
                cols.category_id[sample].tolist(),
                cols.opcode[sample].tolist(),
                cols.name_id[sample].tolist(),
            )
        ])
        out[:, 0] = etype_ids.take(etype_of)
        out[:, 1:] = signature_ids.take(walk_of, axis=0)
        return out

    def fit_transform(self, events: Sequence[EventRecord]) -> np.ndarray:
        self.fit(events)
        return self.transform(events)
