"""Golden-file regression tests over a generated catalog row.

The generator is deterministic and pinned by committed digests
(``tests/generation_digests.json``), so the logs of the session's
generated row (``tests.conftest.generated_row``) are the ground truth
for the raw-log format; these tests pin the parser and the serializer
to them.
"""

from itertools import islice

import pytest

from repro.etw.parser import RawLogParser, serialize_events
from repro.etw.stack_partition import is_partition_clean

HEADER_LINES = 600

LOG_NAMES = ("benign.log", "mixed.log", "malicious.log")


def read_header(path, limit=HEADER_LINES):
    with open(path, "r", encoding="utf-8") as handle:
        return list(islice(handle, limit))


@pytest.fixture(scope="module")
def benign_header(generated_row):
    return read_header(generated_row / "benign.log")


class TestBenignHeaderInvariants:
    def test_parses_and_event_ids_monotonic(self, benign_header):
        events = RawLogParser().parse_lines(benign_header)
        assert len(events) > 0
        eids = [event.eid for event in events]
        assert eids == sorted(eids)
        assert len(set(eids)) == len(eids)

    def test_frame_depth_ordering(self, benign_header):
        """Frame indices run 0..k-1 from the app entry point downward."""
        for event in RawLogParser().parse_lines(benign_header):
            assert [frame.index for frame in event.frames] == list(
                range(len(event.frames))
            )

    def test_app_frames_below_system_frames(self, benign_header):
        for event in RawLogParser().parse_lines(benign_header):
            assert is_partition_clean(event.frames), event.eid


@pytest.mark.parametrize("log", LOG_NAMES)
def test_every_golden_log_header_parses(generated_row, log):
    """Every log (malicious/mixed included) parses and keeps the
    partition invariant — injected ``<unknown>`` frames stay in app
    space."""
    events = RawLogParser().parse_lines(read_header(generated_row / log))
    assert len(events) > 0
    for event in events:
        assert is_partition_clean(event.frames)


def test_round_trip_full_log(generated_row):
    """parse → serialize → parse is the identity on one full log."""
    path = generated_row / "benign.log"
    lines = path.read_text(encoding="utf-8").splitlines()
    parser = RawLogParser()
    events = parser.parse_lines(lines)
    assert serialize_events(events) == lines
    assert parser.parse_lines(serialize_events(events)) == events


@pytest.mark.parametrize("log", LOG_NAMES)
def test_round_trip_identity_property(generated_row, log):
    """parse → serialize → parse is the identity on every log header:
    the serialized text reproduces the input lines exactly, and
    re-parsing reproduces the events exactly (frames included)."""
    lines = [raw.rstrip("\n") for raw in read_header(generated_row / log)]
    # snap to the last complete event block so the tail stack walk is whole
    last_event = max(
        i for i, line in enumerate(lines) if line.startswith("EVENT|")
    )
    lines = lines[:last_event]
    parser = RawLogParser()
    events = parser.parse_lines(lines)
    assert serialize_events(events) == lines
    assert parser.parse_lines(serialize_events(events)) == events
