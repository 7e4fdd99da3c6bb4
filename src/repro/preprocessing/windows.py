"""Window coalescing: per-event 3-tuples → fixed-width sample vectors.

Classifying single events is too noisy (paper §III-B, window ablation):
LEAPS concatenates the 3-tuples of ``window_events`` consecutive events
into one sample — 10 events × 3 dims = the paper's 30-dim vectors — and
slides the window by ``stride`` events.  Trailing events that do not
fill a whole window are dropped.

:class:`WindowCoalescer` gathers a whole log's windows at once into
:class:`WindowArrays` (training and the batch scan), and
:class:`PushCoalescer` runs the same gather over a stream's blocks,
carrying the rows and eids of the next window between them (the
incremental scan).  Only :meth:`WindowCoalescer.coalesce_with_matrix`
builds :class:`Window` objects, for callers that want them.

Per-window sample weights aggregate the member events' Algorithm-2
weights (mean by default, max as the pessimistic alternative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.etw.events import EventRecord


@dataclass(frozen=True)
class Window:
    """One coalesced sample and the event span it covers."""

    start_index: int
    start_eid: int
    end_eid: int
    vector: np.ndarray


class WindowArrays(NamedTuple):
    """Every window of a featurized log as parallel arrays: the index
    and eid of its first event, the eid of its last, and the stacked
    ``(m, 3*window)`` sample matrix."""

    start_index: np.ndarray
    start_eid: np.ndarray
    end_eid: np.ndarray
    matrix: np.ndarray


class WindowCoalescer:
    def __init__(self, window_events: int = 10, stride: int = 10):
        if window_events < 1:
            raise ValueError("window_events must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.window_events = window_events
        self.stride = stride

    @property
    def dims(self) -> int:
        return 3 * self.window_events

    def _starts(self, count: int) -> np.ndarray:
        stop = max(count - self.window_events + 1, 0)
        return np.arange(0, stop, self.stride, dtype=np.intp)

    def _gather(self, features: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """All window vectors in one fancy-indexed gather — one numpy
        call instead of a per-window slice/concatenate; values are
        bit-identical to the per-window construction."""
        offsets = np.arange(self.window_events)
        rows = np.asarray(features, dtype=float)[starts[:, None] + offsets]
        return rows.reshape(len(starts), self.dims)

    def coalesce_arrays(
        self, features: np.ndarray, eids: np.ndarray
    ) -> WindowArrays:
        """Every window of a featurized log whose events carry ``eids``:
        window starts from one ``arange``, the matrix from one gather."""
        if len(features) != len(eids):
            raise ValueError("features/events length mismatch")
        starts = self._starts(len(eids))
        return WindowArrays(
            starts,
            eids[starts],
            eids[starts + (self.window_events - 1)],
            self._gather(features, starts),
        )

    def coalesce_with_matrix(
        self, features: np.ndarray, events: Sequence[EventRecord]
    ) -> Tuple[List[Window], np.ndarray]:
        """:meth:`coalesce_arrays` of a record list as :class:`Window`
        objects plus the stacked ``(m, 3*window)`` sample matrix — each
        ``Window.vector`` is a row view of the returned matrix."""
        windows = self.coalesce_arrays(
            features, np.array([event.eid for event in events], dtype=object)
        )
        return [
            Window(*fields) for fields in zip(
                windows.start_index.tolist(), windows.start_eid.tolist(),
                windows.end_eid.tolist(), windows.matrix,
            )
        ], windows.matrix

    def push_coalescer(self) -> "PushCoalescer":
        """A fresh push-mode coalescer carrying this coalescer's geometry
        — one per incremental scan."""
        return PushCoalescer(self)

    def coalesce_matrix(self, features: np.ndarray) -> np.ndarray:
        """Window vectors only, stacked into an ``(m, 3*window)`` matrix."""
        return self._gather(features, self._starts(len(features)))

    def window_weights(
        self, event_weights: np.ndarray, aggregate: str = "mean"
    ) -> np.ndarray:
        """Aggregate per-event Algorithm-2 weights into per-window
        weights: one gather, then a row reduction (bit-identical to
        reducing each window's slice alone)."""
        if aggregate not in ("mean", "max"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        reduce = np.mean if aggregate == "mean" else np.max
        starts = self._starts(len(event_weights))
        rows = np.asarray(event_weights, dtype=float)[
            starts[:, None] + np.arange(self.window_events)
        ]
        return reduce(rows, axis=1)


class PushCoalescer:
    """Incremental coalescing: push blocks of event eids and their
    feature rows, get back the windows each block completed.

    The per-stream state between blocks is the rows and eids from the
    next window's start on, fewer than ``window_events`` — the
    coalescer's share of the streaming-scan memory bound.  Each push runs
    :meth:`WindowCoalescer.coalesce_arrays` over them, so window spans
    and vectors equal the batch gather's over the whole stream, however
    the stream was cut into blocks.
    """

    __slots__ = ("coalescer", "rows", "eids", "start", "count")

    def __init__(self, coalescer: WindowCoalescer):
        self.coalescer = coalescer
        self.rows = np.zeros((0, 3))
        self.eids = np.zeros(0, dtype=np.int64)
        self.start = 0  # stream index of the next window's first event
        self.count = 0  # events pushed so far

    def push_block(self, eids: np.ndarray, rows: np.ndarray) -> WindowArrays:
        """Push the next block of events (any length) as their eids and
        ``(n, 3)`` feature rows; returns the windows whose last event
        lies in this block."""
        if len(eids) != len(rows):
            raise ValueError("features/events length mismatch")
        skip = min(max(self.start - self.count, 0), len(eids))  # between windows
        self.count += len(eids)
        rows = np.concatenate((self.rows, rows[skip:]))
        eids = np.concatenate((self.eids, eids[skip:]))
        windows = self.coalescer.coalesce_arrays(rows, eids)
        taken = len(windows.start_index) * self.coalescer.stride
        self.rows, self.eids = rows[taken:], eids[taken:]
        start, self.start = self.start, self.start + taken
        return windows._replace(start_index=windows.start_index + start)
