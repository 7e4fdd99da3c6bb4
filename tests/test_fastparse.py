"""The vectorized text parser must be indistinguishable from the
scalar one — events, frame interning identity, reports, and exceptions.

``parse_fast`` takes a bulk-split fast path on clean well-formed input
and silently falls back to scalar ``iter_parse`` otherwise, so the
contract is total equivalence on *every* input, not just happy paths.
``parse_columns`` is the same parse emitting columns, so its
``records()`` are held to the same contract.  Each check runs the
parsers on the same input and compares everything observable.
"""

import warnings
from collections.abc import Iterator

import numpy as np
import pytest

from repro.etw import fastparse
from repro.etw.events import EventColumns
from repro.etw.fastparse import StreamingParser, parse_columns, parse_fast
from repro.etw.parser import ParseError, ParseMachine, iter_parse, split_log_text
from repro.etw.recovery import ParseReport

from tests.conftest import TINY_LOG
from tests.faults import fault_corpus

POLICIES = ("strict", "warn", "drop")


def _run(parse, source, policy, rct):
    """``(output, report, error)`` of one parse; ``error`` is the type
    and message of a raised ``ParseError``."""
    report = ParseReport()
    output = error = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            output = parse(
                source, policy=policy, report=report, require_complete_tail=rct
            )
        except ParseError as raised:
            error = (type(raised), str(raised))
    return output, report, error


def _scalar(lines, **kwargs):
    return list(iter_parse(lines, **kwargs))


def run_both(source_fast, lines_scalar, policy, rct=False):
    """Parse one input through the block parser, as records
    (``parse_fast``) and as columns (``parse_columns``), and through the
    scalar parser; assert that the events (with frame identity),
    reports, and raised errors agree.  Returns the parsed events (None
    when they raised)."""
    items = list(source_fast) if isinstance(source_fast, Iterator) else None
    scalar_events, scalar_report, scalar_error = _run(
        _scalar, lines_scalar, policy, rct
    )
    for parse in (parse_fast, parse_columns):
        source = source_fast if items is None else iter(items)
        events, report, error = _run(parse, source, policy, rct)
        assert error == scalar_error
        if parse is parse_columns and events is not None:
            assert isinstance(events, EventColumns)
            assert events.n_events == len(events.walk_id)
            events = events.records()
        assert events == scalar_events
        if events is not None:
            for mine, theirs in zip(events, scalar_events):
                for frame_a, frame_b in zip(mine.frames, theirs.frames):
                    assert frame_a is frame_b, "frames not interned identically"
        assert report.to_dict() == scalar_report.to_dict()
        assert report.lines_accounted == report.total_lines
    return scalar_events


TINY_LINES = TINY_LOG.splitlines()


class TestCleanEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("rct", (False, True))
    def test_str_bytes_and_sequence_inputs(self, policy, rct):
        events = run_both(TINY_LOG, TINY_LINES, policy, rct)
        assert len(events) == 3
        run_both(TINY_LOG.encode(), TINY_LINES, policy, rct)
        run_both(list(TINY_LINES), TINY_LINES, policy, rct)

    def test_crlf_line_endings(self):
        crlf = TINY_LOG.replace("\n", "\r\n")
        run_both(crlf, TINY_LINES, "strict")
        run_both(crlf.encode(), TINY_LINES, "strict")

    def test_sequence_lines_keep_trailing_newline(self):
        with_newlines = [line + "\n" for line in TINY_LINES]
        run_both(with_newlines, with_newlines, "strict")

    def test_blank_lines_everywhere(self):
        blanky = (
            "\n\n"
            + TINY_LOG.replace("EVENT|1", "\n \nEVENT|1")
            + "\n   \n"
        )
        report = ParseReport()
        events = parse_fast(blanky, policy="drop", report=report)
        assert events == run_both(blanky, split_log_text(blanky), "drop")
        assert report.blank_lines > 0

    def test_empty_inputs(self):
        assert run_both("", [], "strict") == []
        assert run_both("\n\n\n", split_log_text("\n\n\n"), "drop") == []


class TestHostileEquivalence:
    @pytest.mark.parametrize("policy", ("strict", "drop"))
    def test_lone_carriage_return_in_field(self, policy):
        # \r is a reserved delimiter: the scalar parser classifies it
        # as BAD_FIELD; the fast path must not mask that.
        dirty = TINY_LOG.replace("send_data", "send\rdata")
        run_both(dirty, split_log_text(dirty), policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_undecodable_bytes_line(self, policy):
        bad = TINY_LOG.encode() + b"EVENT|3|3|1|app.exe|4|X\xff\xfe|1|z\n"
        bad_lines = TINY_LINES + [b"EVENT|3|3|1|app.exe|4|X\xff\xfe|1|z"]
        run_both(bad, bad_lines, policy)

    def test_unicode_line_boundary_stays_in_field(self):
        embedded = TINY_LOG.replace("send_data", "send\x85data")
        events = run_both(embedded, split_log_text(embedded), "strict")
        assert any("\x85" in event.name for event in events)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fault_corpus(self, seed, policy):
        for variant in fault_corpus(TINY_LINES, seed=seed):
            for rct in (False, True):
                run_both(
                    list(variant.lines), list(variant.lines), policy, rct
                )

    def test_iterator_input_falls_back_cleanly(self):
        # generators can't be bulk-split; equivalence must still hold
        run_both(iter(TINY_LINES), TINY_LINES, "strict")


class TestReportFilling:
    def test_clean_parse_accounting(self):
        report = ParseReport()
        events = parse_fast(TINY_LOG, report=report)
        assert report.events_yielded == len(events) == 3
        assert report.total_lines == len(TINY_LINES)
        assert report.consumed_lines == len(TINY_LINES)
        assert report.blank_lines == 0
        assert report.clean

    def test_gc_state_is_restored(self):
        import gc

        assert gc.isenabled()
        parse_fast(TINY_LOG)
        assert gc.isenabled()
        gc.disable()
        try:
            parse_fast(TINY_LOG)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            parse_fast(TINY_LOG, policy="lenient")


def _chunked(lines, seed):
    """Deterministic pseudo-random chunking of a line list."""
    import random

    rng = random.Random(seed)
    cursor = 0
    chunks = []
    while cursor < len(lines):
        size = rng.randint(1, 7)
        chunks.append(lines[cursor : cursor + size])
        cursor += size
    return chunks


def stream_records(parser, block):
    """A :class:`StreamingParser` block as records, after checking that
    it indexes the stream's one set of cumulative tables."""
    assert isinstance(block, EventColumns)
    assert block.n_events == len(block.walk_id) == len(block.eid)
    assert block.walks is parser._walks
    for name, (_, vocab) in zip(("process", "category", "name"), parser._tables):
        assert getattr(block, f"{name}_vocab") is vocab
    return block.records()


def run_streaming(lines, policy, seed, rct=False, chunks=None):
    """Feed one input through StreamingParser in seeded chunks (or the
    given ``chunks``) and the scalar parser whole; assert total
    equivalence (events, frame identity, reports, errors).  When both
    raise, the events the stream produced — returned by the calls before
    the failing one plus the failing call's ``ParseError.events`` — must
    be the events ``iter_parse`` yielded before raising.  Returns the
    events (None when raised)."""
    from repro.etw.fastparse import StreamingParser

    stream_report, scalar_report = ParseReport(), ParseReport()
    stream_error = scalar_error = None
    stream_events, scalar_events = [], []
    parser = StreamingParser(
        policy=policy, report=stream_report, require_complete_tail=rct
    )
    if chunks is None:
        chunks = _chunked(lines, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            for chunk in chunks:
                stream_events.extend(stream_records(parser, parser.feed_lines(chunk)))
            stream_events.extend(stream_records(parser, parser.finish()))
        except ParseError as error:
            stream_error = error
            stream_events.extend(stream_records(parser, error.events))
        try:
            for event in iter_parse(
                lines,
                policy=policy,
                report=scalar_report,
                require_complete_tail=rct,
            ):
                scalar_events.append(event)
        except ParseError as error:
            scalar_error = error
    if scalar_error is not None:
        assert stream_error is not None
        assert stream_error.kind == scalar_error.kind
        assert stream_error.lineno == scalar_error.lineno
    else:
        assert stream_error is None
    assert stream_events == scalar_events
    for mine, theirs in zip(stream_events, scalar_events):
        for frame_a, frame_b in zip(mine.frames, theirs.frames):
            assert frame_a is frame_b  # same intern table
    assert stream_report.to_dict() == scalar_report.to_dict()
    return None if stream_error is not None else stream_events


class TestStreamingParser:
    """The serving-side incremental parser: any chunking of any input
    must be indistinguishable from one scalar parse of the whole."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clean_log_any_chunking(self, policy, seed):
        lines = split_log_text(TINY_LOG * 6)
        events = run_streaming(lines, policy, seed)
        assert len(events) == 18

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_corpus_any_chunking(self, policy, seed):
        base = split_log_text(TINY_LOG * 4)
        for variant in fault_corpus(base, seed=0):
            run_streaming(variant.lines, policy, seed)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bytes_lines_go_scalar(self, policy):
        from repro.etw.fastparse import StreamingParser

        lines = split_log_text(TINY_LOG)
        lines.insert(3, b"\xff\xfe garbage")
        run_streaming(lines, policy, seed=0)
        parser = StreamingParser(policy="drop")
        parser.feed_lines(lines)
        assert parser.scalar_mode  # undecodable input forced the fallback

    def test_backlog_limit_flips_to_scalar(self):
        from repro.etw.fastparse import StreamingParser

        parser = StreamingParser(policy="drop", backlog_limit=8)
        parser.feed_lines(["# preamble"] * 9)  # no EVENT line in sight
        assert parser.scalar_mode
        assert parser.finish().n_events == 0
        assert parser.report.events_yielded == 0

    def test_feed_after_finish_rejected(self):
        from repro.etw.fastparse import StreamingParser

        parser = StreamingParser(policy="drop")
        parser.finish()
        with pytest.raises(RuntimeError):
            parser.feed_lines(["EVENT|0|0|1|a|1|C|1|n"])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_require_complete_tail(self, policy):
        lines = split_log_text(TINY_LOG)[:-2]  # cut mid stack walk
        run_streaming(lines, policy, seed=0, rct=True)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_malformed_event_line_does_not_close_the_open_block(self, policy):
        # The scalar parser keeps an event open until a *valid* EVENT
        # line closes it; under strict policy a malformed one drops the
        # open event.  A stream cut before the malformed line must not
        # have bulk-yielded that event already.
        lines = list(TINY_LINES)
        second_event = [
            position
            for position, line in enumerate(lines)
            if line.startswith("EVENT|")
        ][1]
        lines[second_event] += "|extra"
        events = run_streaming(
            lines, policy, seed=0, chunks=[lines[:6], lines[6:]]
        )
        if policy == "strict":
            assert events is None
            parser = StreamingParser(policy="strict")
            assert parser.feed_lines(lines[:6]).n_events == 0  # event 0 stays open
        else:
            assert [event.eid for event in events] == [0, 2]


# -- block-path edge cases ----------------------------------------------


def _event(eid, depth, stack_eid=None, name="read_config"):
    """One event block in raw-log lines: ``depth`` frames, STACK lines
    spelling the eid as ``stack_eid`` (default: as the EVENT line)."""
    stack_eid = eid if stack_eid is None else stack_eid
    lines = [f"EVENT|{eid}|{eid}000|1000|app.exe|4|FILE_IO_READ|3|{name}"]
    for index in range(depth):
        lines.append(
            f"STACK|{stack_eid}|{index}|app.exe|f{index}|0x{0x400000 + index:x}"
        )
    return lines


def _text(*blocks, ending="\n"):
    return "\n".join(line for block in blocks for line in block) + ending


def _edit(lines, position, old, new):
    lines = list(lines)
    lines[position] = lines[position].replace(old, new)
    return lines


EDGE_CASES = {
    "stack_eid_zero_padded": _text(
        _event(6, 3), _event(7, 3, stack_eid="07"), _event(8, 3)
    ),
    "one_stack_eid_zero_padded": _text(
        _event(6, 3), _edit(_event(7, 3), 2, "STACK|7|", "STACK|07|")
    ),
    "eid_1_then_12": _text(_event(1, 3), _event(12, 3), _event(2, 3)),
    "eid_12_stack_after_eid_1": _text(
        _event(1, 3) + ["STACK|12|3|app.exe|f3|0x400003"], _event(12, 3)
    ),
    "zero_frames_first": _text(_event(1, 0), _event(2, 3), _event(3, 3)),
    "zero_frames_middle": _text(_event(1, 3), _event(2, 0), _event(3, 3)),
    "zero_frames_last": _text(
        _event(1, 3), _event(2, 3), _event(3, 0, name="close_handle")
    ),
    "zero_frames_last_suspect_tail": _text(
        _event(1, 3), _event(2, 3), _event(3, 0)
    ),
    "zero_frames_only": _text(_event(1, 0), _event(2, 0)),
    "frame_index_gap": _text(
        _event(1, 3), _edit(_event(2, 3), 2, "|1|app", "|2|app")
    ),
    "frame_index_duplicate": _text(
        _event(1, 3), _edit(_event(2, 3), 3, "|2|app", "|1|app")
    ),
    "non_hex_address": _text(
        _event(1, 3), _edit(_event(2, 3), 2, "|0x4", "|0xZ4"), _event(3, 3)
    ),
    "extra_pipe_in_stack_line": _text(
        _event(1, 3), _edit(_event(2, 3), 2, "|f1|", "|f1|x|"), _event(3, 3)
    ),
    "module_named_stack": _text(
        _event(1, 3), _edit(_event(2, 3), 2, "|app.exe|", "|STACK|")
    ),
    "function_named_event": _text(
        _event(1, 3), _edit(_event(2, 3), 1, "|f0|", "|EVENT|")
    ),
    "stack_and_eid_as_frame_fields": _text(
        _event(1, 3), _edit(_event(2, 3), 1, "|app.exe|f0|", "|STACK|2|")
    ),
    "no_trailing_newline": _text(_event(1, 3), _event(2, 3), ending=""),
    "two_trailing_newlines": _text(_event(1, 3), _event(2, 3), ending="\n\n"),
    "blank_lines_in_stack_block": _text(
        _event(1, 3)[:2] + ["", "   ", "\t"] + _event(1, 3)[2:],
        _event(2, 3),
    ),
    "whitespace_lines_around_blocks": _text(
        [" \x0c", "\x85"], _event(1, 3), ["  "], _event(2, 3), [" "]
    ),
    # eids, timestamps and an opcode past int64: the text format bounds
    # no integer, so columns hold them as Python ints
    "ints_past_int64": _text(
        _event(1, 3),
        _edit(_event(2**63, 3), 0, "|3|read", f"|{-(2**63) - 1}|read"),
        _event(2**64 + 5, 3),
    ),
}

#: the edge cases that are clean logs: the block path must keep them
CLEAN_EDGE_CASES = (
    "blank_lines_in_stack_block",
    "eid_1_then_12",
    "function_named_event",
    "ints_past_int64",
    "module_named_stack",
    "no_trailing_newline",
    "stack_and_eid_as_frame_fields",
    "two_trailing_newlines",
    "whitespace_lines_around_blocks",
    "zero_frames_first",
    "zero_frames_last",
    "zero_frames_middle",
    "zero_frames_only",
)


class TestBlockPathEdges:
    """Inputs probing each proof step of the block path, through every
    input kind and the streaming parser; each must match the scalar
    parser exactly, whichever path it takes."""

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("rct", (False, True))
    def test_parse_fast(self, name, policy, rct):
        text = EDGE_CASES[name]
        lines = split_log_text(text)
        run_both(text, lines, policy, rct)
        run_both(text.encode(), lines, policy, rct)
        run_both(list(lines), lines, policy, rct)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_streaming(self, name, policy):
        lines = split_log_text(EDGE_CASES[name])
        for seed in range(3):
            run_streaming(lines, policy, seed)
        run_streaming(lines, policy, seed=0, chunks=[lines])


# -- fast-path coverage -------------------------------------------------


def _with_blank_lines(text):
    """``text`` with blank and whitespace-only lines before the first
    line and after every fifth, inside stack blocks too."""
    fillers = ("", "   ", "\t", " \x0c ")
    out = [fillers[1]]
    for position, line in enumerate(text.split("\n")):
        out.append(line)
        if position % 5 == 2:
            out.append(fillers[position % len(fillers)])
    return "\n".join(out)


@pytest.fixture(scope="module")
def catalog_logs(tmp_path_factory):
    """``(text, reference events)`` for clean generated catalog logs and
    their blank-line variants; references come from the scalar parser
    before any test patches it."""
    from repro.datasets.generation import generate_dataset

    root = tmp_path_factory.mktemp("catalog")
    logs = []
    for row in ("winscp_reverse_tcp", "chrome_reverse_https", "vim_codeinject"):
        dataset = generate_dataset(
            row, root / row, seed=2, train_events=150, scan_events=150
        )
        for log in dataset.logs.values():
            text = log.path.read_bytes().decode("utf-8")
            for variant in (text, _with_blank_lines(text)):
                reference = list(iter_parse(split_log_text(variant)))
                assert len(reference) == log.n_events
                logs.append((variant, reference))
    return logs


class TestFastPathCoverage:
    """The equivalence suite cannot see a silent fallback to the scalar
    parser — it would erase the block path's gain without changing one
    result.  With the scalar entry points made to fail, clean inputs
    must still parse."""

    @pytest.fixture
    def scalar_forbidden(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("clean input reached the scalar parser")

        monkeypatch.setattr(fastparse, "iter_parse", forbidden)
        monkeypatch.setattr(ParseMachine, "feed", forbidden)

    def test_parse_fast_never_goes_scalar(self, catalog_logs, scalar_forbidden):
        for text, reference in catalog_logs:
            lines = split_log_text(text)
            crlf = text.replace("\n", "\r\n")
            inputs = (
                text,
                text.encode(),
                lines,
                [line + "\n" for line in lines],
                crlf,
                crlf.encode(),
            )
            for source in inputs:
                report = ParseReport()
                assert parse_fast(source, report=report) == reference
                assert report.clean
                assert report.total_lines == len(lines)
                assert report.lines_accounted == report.total_lines
                columns_report = ParseReport()
                cols = parse_columns(source, report=columns_report)
                assert cols.records() == reference
                assert columns_report.to_dict() == report.to_dict()

    @pytest.mark.parametrize("name", CLEAN_EDGE_CASES)
    def test_clean_edge_cases_never_go_scalar(self, name, scalar_forbidden):
        text = EDGE_CASES[name]
        for source in (text, text.encode(), split_log_text(text)):
            assert parse_fast(source, policy="strict")
            assert parse_columns(source, policy="strict").n_events

    def test_ints_past_int64_columns_hold_python_ints(self, scalar_forbidden):
        cols = parse_columns(EDGE_CASES["ints_past_int64"])
        assert cols.eid.tolist() == [1, 2**63, 2**64 + 5]
        assert cols.timestamp.tolist() == [1000, 2**63 * 1000, (2**64 + 5) * 1000]
        assert cols.opcode.tolist() == [3, -(2**63) - 1, 3]
        for name in ("eid", "timestamp", "opcode"):
            column = getattr(cols, name)
            assert column.dtype == object
            assert all(type(value) is int for value in column)
        assert cols.pid.dtype == cols.tid.dtype == cols.walk_id.dtype == np.int64

    @pytest.mark.parametrize("seed", range(3))
    def test_streaming_scalar_sees_only_the_final_block(
        self, catalog_logs, monkeypatch, seed
    ):
        fed = []
        feed = ParseMachine.feed

        def recording_feed(machine, raw):
            fed.append(raw)
            return feed(machine, raw)

        monkeypatch.setattr(ParseMachine, "feed", recording_feed)
        for text, reference in catalog_logs:
            lines = split_log_text(text)
            final_block = max(
                position
                for position, line in enumerate(lines)
                if line.startswith("EVENT|")
            )
            del fed[:]
            parser = StreamingParser(policy="strict")
            events = []
            for chunk in _chunked(lines, seed):
                events.extend(stream_records(parser, parser.feed_lines(chunk)))
            assert fed == []
            events.extend(stream_records(parser, parser.finish()))
            assert fed == lines[final_block:]
            assert events == reference
            assert not parser.scalar_mode
