"""Window coalescing: 3-tuples → 30-dim samples, weight aggregation."""

import numpy as np
import pytest

from repro.etw.events import EventRecord
from repro.preprocessing.windows import WindowArrays, WindowCoalescer


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


def make_eids(n):
    """Eids unequal to event indices, so a swapped field shows."""
    return 100 + 3 * np.arange(n, dtype=np.int64)


def push_one(coalescer, eid, row):
    """Push a single event — the smallest block — and return the windows
    it completed (at most one)."""
    windows = coalescer.push_block(np.array([eid]), row[None, :])
    assert len(windows.start_index) <= 1
    return windows


def joined(blocks):
    """The windows of several pushes as one :class:`WindowArrays`."""
    return WindowArrays(*(np.concatenate(column) for column in zip(*blocks)))


def assert_same_windows(got, want):
    """Two :class:`WindowArrays` hold the same windows, bit for bit."""
    assert got.start_index.tolist() == want.start_index.tolist()
    assert got.start_eid.tolist() == want.start_eid.tolist()
    assert got.end_eid.tolist() == want.end_eid.tolist()
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.tobytes() == want.matrix.tobytes()


class TestPushCoalescer:
    """The incremental push coalescer must reproduce the batch gather
    (and hence the batch scan) window for window."""

    @pytest.mark.parametrize(
        "window,stride", [(2, 1), (3, 2), (4, 4), (5, 3), (2, 3), (3, 7)]
    )
    def test_push_matches_batch(self, window, stride):
        eids = make_eids(17)
        features = np.arange(len(eids) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        batch = coalescer.coalesce_arrays(features, eids)
        push = coalescer.push_coalescer()
        pushed = joined(
            [push_one(push, eid, row) for eid, row in zip(eids, features)]
        )
        assert_same_windows(pushed, batch)

    def test_short_stream_pushes_nothing(self):
        push = WindowCoalescer(window_events=10, stride=5).push_coalescer()
        for eid in make_eids(9):
            assert len(push_one(push, eid, np.zeros(3)).start_index) == 0

    def test_fresh_push_coalescer_per_stream(self):
        coalescer = WindowCoalescer(window_events=2, stride=1)
        first, second = coalescer.push_coalescer(), coalescer.push_coalescer()
        eids = make_eids(4)
        for eid in eids[:3]:
            push_one(first, eid, np.zeros(3))
        # a second stream's coalescer starts from scratch
        assert len(push_one(second, eids[0], np.zeros(3)).start_index) == 0
        assert len(push_one(second, eids[1], np.zeros(3)).start_index) == 1

    @pytest.mark.parametrize(
        "window,stride", [(2, 1), (3, 2), (4, 4), (5, 3), (2, 3), (3, 7)]
    )
    @pytest.mark.parametrize("split", [1, 3, 6, 17])
    def test_push_block_matches_scalar_push(self, window, stride, split):
        """Block pushes in any splitting reproduce the scalar stream —
        one event per push — window for window, bit for bit."""
        eids = make_eids(17)
        features = np.arange(len(eids) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        scalar = coalescer.push_coalescer()
        want = joined(
            [push_one(scalar, eid, row) for eid, row in zip(eids, features)]
        )
        block = coalescer.push_coalescer()
        got = joined([
            block.push_block(eids[start : start + split],
                             features[start : start + split])
            for start in range(0, len(eids), split)
        ])
        assert_same_windows(got, want)
        # the two coalescers stay interchangeable mid-stream
        for eid in make_eids(20)[17:]:
            row = np.full(3, float(eid))
            assert_same_windows(
                push_one(block, eid, row), push_one(scalar, eid, row)
            )

    def test_eids_past_int64_join_int64_eids(self):
        """A text stream's eids may leave int64 mid-stream (the text
        format bounds no integer): the held int64 eids and the new
        Python-int eids meet in one window."""
        coalescer = WindowCoalescer(window_events=2, stride=1)
        push = coalescer.push_coalescer()
        first = np.array([2**63 - 2, 2**63 - 1], dtype=np.int64)
        beyond = np.array([2**63, 2**63 + 1], dtype=object)
        push.push_block(first, np.zeros((2, 3)))
        windows = push.push_block(beyond, np.ones((2, 3)))
        assert windows.start_eid.tolist() == [2**63 - 1, 2**63]
        assert windows.end_eid.tolist() == [2**63, 2**63 + 1]
        assert all(type(eid) is int for eid in windows.start_eid.tolist())
