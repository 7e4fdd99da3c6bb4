"""Raw-log parser: structure, correlation, errors, round-trip."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.etw.events import EventRecord, StackFrame
from repro.etw.parser import (
    _FRAME_INTERN,
    ParseError,
    RawLogParser,
    clear_frame_intern,
    iter_parse,
    serialize_event,
    serialize_events,
)


@pytest.fixture
def parser():
    return RawLogParser()


class TestParsing:
    def test_parses_all_events(self, parser, tiny_log_lines):
        events = parser.parse_lines(tiny_log_lines)
        assert [e.eid for e in events] == [0, 1, 2]

    def test_event_fields(self, parser, tiny_log_lines):
        event = parser.parse_lines(tiny_log_lines)[1]
        assert event.timestamp == 1000
        assert event.pid == 1000
        assert event.process == "app.exe"
        assert event.tid == 4
        assert event.category == "FILE_IO_READ"
        assert event.opcode == 3
        assert event.name == "read_config"
        assert event.etype == ("FILE_IO_READ", 3, "read_config")

    def test_stack_correlation(self, parser, tiny_log_lines):
        events = parser.parse_lines(tiny_log_lines)
        frames = events[0].frames
        assert [f.index for f in frames] == [0, 1, 2, 3]
        assert frames[0] == StackFrame(0, "app.exe", "WinMain", 0x400012)
        assert frames[2].node == ("user32.dll", "GetMessageW")

    def test_blank_lines_ignored(self, parser, tiny_log_lines):
        padded = ["", tiny_log_lines[0], "   "] + tiny_log_lines[1:] + [""]
        assert len(parser.parse_lines(padded)) == 3

    def test_streaming_matches_batch(self, parser, tiny_log_lines):
        assert list(iter_parse(tiny_log_lines)) == parser.parse_lines(tiny_log_lines)

    def test_slice_process(self, parser, tiny_log_lines):
        events = parser.parse_lines(tiny_log_lines)
        assert parser.slice_process(events, "app.exe") == events
        assert parser.slice_process(events, "other.exe") == []


def two_instance_log():
    """Two distinct pids sharing the image name, plus a third process."""
    lines = []
    for eid, (pid, process) in enumerate(
        [(1000, "app.exe"), (2000, "app.exe"), (1000, "app.exe"),
         (3000, "other.exe"), (2000, "app.exe")]
    ):
        lines.append(f"EVENT|{eid}|{eid * 10}|{pid}|{process}|4|FILE_IO_READ|3|read")
        lines.append(f"STACK|{eid}|0|{process}|main_{pid}|0x400012")
    return lines


class TestPidAwareSlicing:
    """Regression: same-named processes with distinct pids must not be
    merged into one trace — Algorithm-1 implicit edges would connect
    stacks from unrelated processes."""

    @pytest.fixture
    def events(self, parser):
        return parser.parse_lines(two_instance_log())

    def test_name_only_slicing_merges_pids(self, parser, events):
        # historical behaviour, kept for single-instance captures
        assert len(parser.slice_process(events, "app.exe")) == 4

    def test_pid_slicing_separates_instances(self, parser, events):
        first = parser.slice_process(events, "app.exe", pid=1000)
        second = parser.slice_process(events, "app.exe", pid=2000)
        assert [e.eid for e in first] == [0, 2]
        assert [e.eid for e in second] == [1, 4]
        # the two traces share no stack frames — distinct address spaces
        assert {f.function for e in first for f in e.frames} == {"main_1000"}
        assert {f.function for e in second for f in e.frames} == {"main_2000"}

    def test_pid_slicing_respects_name_too(self, parser, events):
        assert parser.slice_process(events, "app.exe", pid=3000) == []

    def test_processes_enumeration(self, parser, events):
        assert parser.processes(events) == [
            ("app.exe", 1000),
            ("app.exe", 2000),
            ("other.exe", 3000),
        ]

    def test_enumeration_drives_complete_slicing(self, parser, events):
        sliced = [
            parser.slice_process(events, process, pid=pid)
            for process, pid in parser.processes(events)
        ]
        assert sum(len(s) for s in sliced) == len(events)


class TestDelimiterValidation:
    """Raw '|' in a string field used to serialize into unparseable
    output ("EVENT needs 9 fields, got 10"); now rejected at
    construction time so the round-trip cannot silently corrupt."""

    def make_event(self, **overrides):
        kwargs = dict(
            eid=1, timestamp=0, pid=1000, process="a.exe", tid=4,
            category="FILE_IO_READ", opcode=3, name="read",
        )
        kwargs.update(overrides)
        return EventRecord(**kwargs)

    @pytest.mark.parametrize("field", ["process", "category", "name"])
    def test_event_rejects_pipe(self, field):
        with pytest.raises(ValueError, match="delimiter"):
            self.make_event(**{field: "a|b.exe"})

    @pytest.mark.parametrize("field", ["module", "function"])
    def test_frame_rejects_pipe(self, field):
        kwargs = dict(index=0, module="m.dll", function="f", address=1)
        kwargs[field] = "bad|value"
        with pytest.raises(ValueError, match="delimiter"):
            StackFrame(**kwargs)

    def test_newline_rejected_too(self):
        with pytest.raises(ValueError, match="delimiter"):
            self.make_event(name="two\nlines")

    def test_clean_values_accepted(self):
        event = self.make_event(process="a b.exe", name="c2 host")
        assert serialize_event(event)  # spaces are fine; they round-trip

    def test_round_trip_is_total_for_constructible_events(self):
        """Any event that can be constructed now round-trips; the
        confirmed failure shape is unrepresentable."""
        event = self.make_event().with_frames(
            [StackFrame(0, "m.dll", "f", 0x10)]
        )
        assert list(iter_parse(serialize_event(event))) == [event]


class TestErrors:
    def test_unknown_tag(self, parser):
        with pytest.raises(ParseError, match="unknown record tag"):
            parser.parse_lines(["BOGUS|1|2"])

    def test_stack_before_event(self, parser):
        with pytest.raises(ParseError, match="before any EVENT"):
            parser.parse_lines(["STACK|0|0|app.exe|f|0x1"])

    def test_eid_mismatch(self, parser, tiny_log_lines):
        lines = tiny_log_lines[:1] + ["STACK|7|0|app.exe|f|0x1"]
        with pytest.raises(ParseError, match="does not match"):
            parser.parse_lines(lines)

    def test_non_contiguous_frame_index(self, parser, tiny_log_lines):
        lines = tiny_log_lines[:1] + ["STACK|0|5|app.exe|f|0x1"]
        with pytest.raises(ParseError, match="non-contiguous"):
            parser.parse_lines(lines)

    def test_wrong_field_count(self, parser):
        with pytest.raises(ParseError, match="EVENT needs"):
            parser.parse_lines(["EVENT|1|2|3"])

    def test_bad_numeric_field(self, parser):
        with pytest.raises(ParseError, match="bad EVENT field"):
            parser.parse_lines(["EVENT|x|0|1000|app.exe|4|C|1|n"])

    def test_error_carries_line_number(self, parser):
        with pytest.raises(ParseError, match="line 1"):
            parser.parse_lines(["EVENT|1|2|3"])


class TestRoundTrip:
    def test_serialize_single_event(self, parser, tiny_log_lines):
        events = parser.parse_lines(tiny_log_lines)
        assert serialize_event(events[0]) == tiny_log_lines[:5]

    def test_round_trip_identity(self, parser, tiny_log_lines):
        events = parser.parse_lines(tiny_log_lines)
        assert serialize_events(events) == tiny_log_lines
        assert parser.parse_lines(serialize_events(events)) == events


    def test_unpickled_frame_hashes_in_its_own_process(self):
        """A frame caches its hash, but a pickled frame must not carry it
        into a process whose ``str`` hashes are salted differently."""
        fields = (3, "kernel32.dll", "CreateFileW", 0x7FF0)
        code = (
            "import pickle, sys\n"
            "from repro.etw.events import StackFrame\n"
            "frame = pickle.loads(sys.stdin.buffer.read())\n"
            f"print(hash(frame) == hash(StackFrame(*{fields!r})))\n"
        )
        env = dict(
            os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path)
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            input=pickle.dumps(StackFrame(*fields)),
            capture_output=True,
            env=env,
            check=True,
        )
        assert done.stdout.split() == [b"True"]


class TestFrameIntern:
    def test_equal_frames_intern_to_same_object(self, parser, tiny_log_lines):
        first = parser.parse_lines(tiny_log_lines)
        second = parser.parse_lines(tiny_log_lines)
        assert first[0].frames[0] is second[0].frames[0]

    def test_clear_frame_intern_releases_and_counts(self, parser, tiny_log_lines):
        clear_frame_intern()
        parser.parse_lines(tiny_log_lines)
        held = len(_FRAME_INTERN)
        assert held > 0
        assert clear_frame_intern() == held
        assert len(_FRAME_INTERN) == 0
        # clearing is a pure cache drop: equality survives, identity resets
        before = parser.parse_lines(tiny_log_lines)
        clear_frame_intern()
        after = parser.parse_lines(tiny_log_lines)
        assert before == after
        assert before[0].frames[0] is not after[0].frames[0]


class TestFrameInternBound:
    """The always-on growth bound: stats observability plus the safe
    eviction point the serving workers call between bundle reloads."""

    def test_stats_track_entries_and_bytes(self, parser, tiny_log_lines):
        from repro.etw.parser import frame_intern_stats

        empty = frame_intern_stats()
        assert empty.entries == 0
        parser.parse_lines(tiny_log_lines)
        stats = frame_intern_stats()
        assert stats.entries == len(_FRAME_INTERN) > 0
        assert stats.approx_bytes > stats.entries * 8

    def test_evict_is_noop_under_the_bound(self, parser, tiny_log_lines):
        from repro.etw.parser import evict_frame_intern, frame_intern_stats

        parser.parse_lines(tiny_log_lines)
        held = frame_intern_stats().entries
        assert evict_frame_intern(max_entries=held) == 0
        assert frame_intern_stats().entries == held

    def test_evict_clears_when_over_the_bound(self, parser, tiny_log_lines):
        from repro.etw.parser import evict_frame_intern, frame_intern_stats

        events = parser.parse_lines(tiny_log_lines)
        held = frame_intern_stats().entries
        assert evict_frame_intern(max_entries=held - 1) == held
        assert frame_intern_stats().entries == 0
        # eviction is a cache drop, not a data change
        assert parser.parse_lines(tiny_log_lines) == events

    def test_evict_rejects_negative_bound(self):
        from repro.etw.parser import evict_frame_intern

        with pytest.raises(ValueError):
            evict_frame_intern(max_entries=-1)

    def test_default_bound_is_documented_constant(self):
        from repro.etw.parser import FRAME_INTERN_MAX_ENTRIES, evict_frame_intern

        assert FRAME_INTERN_MAX_ENTRIES == 1_000_000
        assert evict_frame_intern() == 0  # a test-sized table is under it
