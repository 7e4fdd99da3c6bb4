"""Window coalescing: 3-tuples → 30-dim samples, weight aggregation."""

import numpy as np
import pytest

from repro.etw.events import EventRecord
from repro.preprocessing.windows import WindowCoalescer


def make_events(n):
    return [
        EventRecord(
            eid=i, timestamp=i * 1000, pid=1, process="app.exe",
            tid=4, category="C", opcode=0, name="n",
        )
        for i in range(n)
    ]


class TestCoalesce:
    def test_paper_dimensions(self):
        coalescer = WindowCoalescer(window_events=10, stride=10)
        assert coalescer.dims == 30
        matrix = coalescer.coalesce_matrix(np.arange(60).reshape(20, 3))
        assert matrix.shape == (2, 30)

    def test_window_vector_is_concatenation(self):
        features = np.arange(12).reshape(4, 3)
        matrix = WindowCoalescer(window_events=2, stride=2).coalesce_matrix(features)
        assert matrix[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert matrix[1].tolist() == [6, 7, 8, 9, 10, 11]

    def test_stride_overlap(self):
        features = np.arange(12).reshape(4, 3)
        matrix = WindowCoalescer(window_events=2, stride=1).coalesce_matrix(features)
        assert matrix.shape == (3, 6)
        assert matrix[1].tolist() == [3, 4, 5, 6, 7, 8]

    def test_trailing_partial_window_dropped(self):
        features = np.arange(15).reshape(5, 3)
        matrix = WindowCoalescer(window_events=2, stride=2).coalesce_matrix(features)
        assert matrix.shape == (2, 6)

    def test_too_few_events_yields_nothing(self):
        matrix = WindowCoalescer(window_events=10).coalesce_matrix(np.ones((4, 3)))
        assert matrix.shape == (0, 30)

    def test_window_metadata(self):
        events = make_events(5)
        features = np.zeros((5, 3))
        coalescer = WindowCoalescer(window_events=2, stride=2)
        windows, _ = coalescer.coalesce_with_matrix(features, events)
        assert [(w.start_eid, w.end_eid) for w in windows] == [(0, 1), (2, 3)]
        assert windows[1].start_index == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WindowCoalescer().coalesce_with_matrix(np.zeros((3, 3)), make_events(4))


class TestWindowWeights:
    def test_mean_aggregation(self):
        weights = np.array([0.0, 1.0, 1.0, 0.0])
        out = WindowCoalescer(window_events=2, stride=2).window_weights(weights)
        assert out.tolist() == [0.5, 0.5]

    def test_max_aggregation(self):
        weights = np.array([0.0, 1.0, 0.0, 0.0])
        coalescer = WindowCoalescer(window_events=2, stride=2)
        assert coalescer.window_weights(weights, aggregate="max").tolist() == [1.0, 0.0]

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            WindowCoalescer().window_weights(np.ones(10), aggregate="median")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WindowCoalescer(window_events=0)
        with pytest.raises(ValueError):
            WindowCoalescer(stride=0)


def push_one(coalescer, event, row):
    """Push a single event — the smallest block — and return the window
    it completed, if any."""
    windows = coalescer.push_block([event], row[None, :])
    assert len(windows) <= 1
    return windows[0] if windows else None


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.start_index == theirs.start_index
        assert mine.start_eid == theirs.start_eid
        assert mine.end_eid == theirs.end_eid
        assert np.array_equal(mine.vector, theirs.vector)


class TestPushCoalescer:
    """The incremental push coalescer must reproduce the batch gather
    (and hence the batch scan) window for window."""

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_push_matches_batch(self, window, stride):
        events = make_events(17)
        features = np.arange(len(events) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        batch, _ = coalescer.coalesce_with_matrix(features, events)
        push = coalescer.push_coalescer()
        pushed = [
            w
            for event, row in zip(events, features)
            for w in [push_one(push, event, row)]
            if w is not None
        ]
        assert_same_windows(pushed, batch)

    def test_short_stream_pushes_nothing(self):
        push = WindowCoalescer(window_events=10, stride=5).push_coalescer()
        for event in make_events(9):
            assert push_one(push, event, np.zeros(3)) is None

    def test_fresh_push_coalescer_per_stream(self):
        coalescer = WindowCoalescer(window_events=2, stride=1)
        first, second = coalescer.push_coalescer(), coalescer.push_coalescer()
        events = make_events(4)
        for event in events[:3]:
            push_one(first, event, np.zeros(3))
        # a second stream's coalescer starts from scratch
        assert push_one(second, events[0], np.zeros(3)) is None
        assert push_one(second, events[1], np.zeros(3)) is not None

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (4, 4), (5, 3)])
    @pytest.mark.parametrize("split", [1, 3, 6, 17])
    def test_push_block_matches_scalar_push(self, window, stride, split):
        """Block pushes in any splitting reproduce the scalar stream —
        one event per push — window for window, bit for bit."""
        events = make_events(17)
        features = np.arange(len(events) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        scalar = coalescer.push_coalescer()
        want = [
            w
            for event, row in zip(events, features)
            for w in [push_one(scalar, event, row)]
            if w is not None
        ]
        block = coalescer.push_coalescer()
        got = []
        for start in range(0, len(events), split):
            got.extend(
                block.push_block(
                    events[start : start + split],
                    features[start : start + split],
                )
            )
        assert_same_windows(got, want)
        # the two coalescers stay interchangeable mid-stream
        extra = make_events(20)[17:]
        for event in extra:
            row = np.full(3, float(event.eid))
            a, b = push_one(scalar, event, row), push_one(block, event, row)
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.vector, b.vector)
