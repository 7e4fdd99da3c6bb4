"""Window coalescing: per-event 3-tuples → fixed-width sample vectors.

Classifying single events is too noisy (paper §III-B, window ablation):
LEAPS concatenates the 3-tuples of ``window_events`` consecutive events
into one sample — 10 events × 3 dims = the paper's 30-dim vectors — and
slides the window by ``stride`` events.  Trailing events that do not
fill a whole window are dropped.

Two coalescers share one geometry: :class:`WindowCoalescer` gathers a
whole log's windows at once (training and the batch scan, which takes
them as :class:`WindowArrays` and builds no :class:`Window`), and
:class:`PushCoalescer` carries a stream's last ``window_events`` rows
between blocks (the incremental scan), producing the same windows.

Per-window sample weights aggregate the member events' Algorithm-2
weights (mean by default, max as the pessimistic alternative).
"""

from __future__ import annotations

from collections import deque
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
        """Every window of a featurized log plus the stacked
        ``(m, 3*window)`` sample matrix, built in one pass — each
        ``Window.vector`` is a row view of the returned matrix."""
        if len(features) != len(events):
            raise ValueError("features/events length mismatch")
        starts = self._starts(len(events))
        matrix = self._gather(features, starts)
        last = self.window_events - 1
        windows = [
            Window(
                start_index=int(start),
                start_eid=events[start].eid,
                end_eid=events[start + last].eid,
                vector=matrix[position],
            )
            for position, start in enumerate(starts)
        ]
        return windows, matrix

    def push_coalescer(self) -> "PushCoalescer":
        """A fresh push-mode coalescer carrying this coalescer's geometry
        — one per incremental scan."""
        return PushCoalescer(self.window_events, self.stride)

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
    """Incremental coalescing: push blocks of events and their feature
    rows, get back the windows each block completed.

    The per-stream state between blocks is a deque of at most
    ``window_events`` pending rows plus the running event count — the
    coalescer's share of the streaming-scan memory bound — so window
    spans and vectors equal :meth:`WindowCoalescer.coalesce_with_matrix`'s
    over the whole stream, however the stream was cut into blocks.
    """

    __slots__ = ("window_events", "stride", "buffer", "count")

    def __init__(self, window_events: int, stride: int):
        if window_events < 1:
            raise ValueError("window_events must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.window_events = window_events
        self.stride = stride
        self.buffer: deque = deque(maxlen=window_events)
        self.count = 0

    def push_block(self, events, rows: np.ndarray) -> "list[Window]":
        """Push the next block of events (any length) with their
        ``(n, 3)`` feature rows; returns the windows whose last event
        lies in this block.

        A window covering rows ``[j, j+w)`` of the held+new row matrix
        is that slice flattened — pure data movement, so its vector is
        bit-identical to the batch gather's.
        """
        n = len(events)
        if n == 0:
            return []
        window_events = self.window_events
        stride = self.stride
        base = self.count
        held = list(self.buffer)
        first_global = base - len(held)
        if held:
            combined = np.concatenate(
                [np.stack([pair[1] for pair in held]), rows]
            )
            all_events = [pair[0] for pair in held]
            all_events.extend(events)
        else:
            combined = np.asarray(rows)
            all_events = list(events)
        self.count = base + n
        out: list = []
        # windows whose final event lies in this block: start index in
        # [base - w + 1, base + n - w], clamped to >= 0, on the stride
        lo = max(0, base - window_events + 1)
        first_start = -(-lo // stride) * stride
        for start in range(first_start, base + n - window_events + 1, stride):
            j = start - first_global
            out.append(
                Window(
                    start_index=start,
                    start_eid=all_events[j].eid,
                    end_eid=all_events[j + window_events - 1].eid,
                    vector=combined[j : j + window_events].reshape(-1),
                )
            )
        for pair in zip(events[-window_events:], rows[-window_events:]):
            self.buffer.append(pair)
        return out
