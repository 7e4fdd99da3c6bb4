"""Versioned binary columnar capture format — parse once, scan forever.

A fleet-scale LEAPS deployment re-reads the same telemetry text for
every scan, so tokenizing dominates end-to-end time (BENCH_ingest).  A
*capture* is the one-time columnar form of a parsed raw log: a
``<name>.leapscap`` directory holding

``capture.json``
    Schema version (``leaps-capture/v1``), entity counts, provenance of
    the conversion (source path, parse policy), and the full
    :class:`~repro.etw.recovery.ParseReport` of the parse that produced
    the events — recovery accounting survives the binary detour.
``arrays.npz``
    The events in columnar form, exact:

    ============================  ======== =========================================
    array                         dtype    meaning
    ============================  ======== =========================================
    ``eid, timestamp, pid,``      int64    per-event integer columns
    ``tid, opcode``
    ``process_id, category_id,``  int64    per-event index into the string vocabulary
    ``name_id``
    ``walk_id``                   int64    per-event index into the walk table
    ``frame_index``               int64    per unique frame: its stack index
    ``frame_module_id,``          int64    per unique frame: vocabulary indices
    ``frame_function_id``
    ``frame_address``             (u)int64 per unique frame: return address
    ``walk_frame_ids``            int64    all walks, flattened frame indices
    ``walk_offsets``              int64    walk *w* is ``walk_frame_ids[o[w]:o[w+1]]``
    ``vocab_*``                   str      newline-joined unique strings (see below)
    ============================  ======== =========================================

String vocabularies (``vocab_process``, ``vocab_category``,
``vocab_name``, ``vocab_module``, ``vocab_function``) are stored as one
newline-joined scalar with a trailing ``"\\n"`` sentinel rather than a
fixed-width unicode array: field values can never contain a newline
(:func:`repro.etw.events._check_field` rejects it at construction), the
join is therefore lossless, and it sidesteps both the quadratic memory
of width-padded arrays and numpy's silent stripping of trailing NUL
characters.  ``frame_address`` is written as int64 when every address
fits, uint64 otherwise — readers just widen to Python ints.

Stack walks are deduplicated: real fleets collapse millions of events
onto a few hundred distinct walks, so per-event storage is nine int64
cells regardless of stack depth, and the reader materializes each
distinct walk tuple exactly once.  Frames come out of the parser's
process-wide intern table, so downstream featurization memos hit on
object identity exactly as after a text parse.

Reading validates before trusting: schema string, id ranges, offset
monotonicity, and vocabulary strings free of raw-log delimiters.  A
capture that fails validation raises :class:`CaptureError` (or
:class:`CaptureVersionError` for a schema mismatch) — a scanner must
never silently misinterpret a capture written by a newer converter.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.etw.events import EventLog, EventRecord, StackFrame
from repro.etw.parser import intern_frame
from repro.etw.recovery import ParseReport

#: Capture schema identifier; bump the suffix on incompatible changes.
SCHEMA = "leaps-capture/v1"

#: Directory suffix marking a path as a columnar capture.
CAPTURE_SUFFIX = ".leapscap"

JSON_NAME = "capture.json"
NPZ_NAME = "arrays.npz"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1

_VOCAB_NAMES = ("process", "category", "name", "module", "function")


class CaptureError(RuntimeError):
    """The capture is missing, malformed, or cannot be written."""


class CaptureVersionError(CaptureError):
    """The capture's schema version is not one this code understands."""


def is_capture_path(path: Union[str, os.PathLike]) -> bool:
    """Whether a path addresses a columnar capture (by its suffix)."""
    return Path(os.fspath(path)).suffix == CAPTURE_SUFFIX


@dataclass
class Capture:
    """A loaded capture: the events, the conversion-time parse report
    (``None`` when the writer had none), and the raw metadata document."""

    events: EventLog
    report: Optional[ParseReport]
    meta: dict


# -- writing ----------------------------------------------------------


def _address_column(values: Sequence[int]) -> np.ndarray:
    if not values:
        return np.zeros(0, dtype=np.int64)
    low, high = min(values), max(values)
    if _INT64_MIN <= low and high <= _INT64_MAX:
        return np.array(values, dtype=np.int64)
    if 0 <= low and high <= _UINT64_MAX:
        return np.array(values, dtype=np.uint64)
    raise CaptureError("frame address out of 64-bit range")


def _join_vocab(name: str, strings: Sequence[str]) -> str:
    for value in strings:
        # Construction-time validation normally guarantees this, but
        # events built by trusted fast paths bypass __init__ — recheck
        # before the newline join becomes the storage format.
        if "\n" in value or "\r" in value or "|" in value:
            raise CaptureError(
                f"vocab_{name} entry {value!r} contains a raw-log delimiter"
            )
    return "\n".join(strings) + "\n" if strings else ""


def _split_vocab(raw: object, name: str) -> List[str]:
    text = str(raw)
    if text == "":
        return []
    if not text.endswith("\n"):
        raise CaptureError(f"vocab_{name} is missing its trailing sentinel")
    entries = text.split("\n")
    entries.pop()
    return entries


def _finalize_capture(
    path: Path,
    arrays: dict,
    vocabs: dict,
    counts: dict,
    report: Optional[ParseReport],
    source: Optional[dict],
) -> Path:
    """Shared write tail: vocab joins, metadata document, and the two
    on-disk members.  Every writer funnels through here (the per-event
    reference writer in ``tests/oracles/capture.py`` too), so metadata
    bytes cannot drift between entry points."""
    for name, strings in vocabs.items():
        arrays[f"vocab_{name}"] = _join_vocab(name, strings)
    meta = {
        "schema": SCHEMA,
        "counts": {
            **counts,
            **{
                f"vocab_{name}": len(strings)
                for name, strings in vocabs.items()
            },
        },
        "source": source,
        "parse_report": None if report is None else report.to_dict(),
    }
    path.mkdir(parents=True, exist_ok=True)
    (path / JSON_NAME).write_text(json.dumps(meta, indent=2) + "\n")
    np.savez(path / NPZ_NAME, **arrays)
    return path


def captures_byte_identical(
    a: Union[str, os.PathLike], b: Union[str, os.PathLike]
) -> bool:
    """Whether two captures hold identical bytes, member by member.

    ``arrays.npz`` is a zip whose entry *timestamps* vary run to run,
    so whole-file comparison spuriously fails; metadata and every array
    member are compared instead (the equality that actually matters).
    """
    import zipfile

    a, b = Path(os.fspath(a)), Path(os.fspath(b))
    if (a / JSON_NAME).read_bytes() != (b / JSON_NAME).read_bytes():
        return False
    with zipfile.ZipFile(a / NPZ_NAME) as zip_a, zipfile.ZipFile(
        b / NPZ_NAME
    ) as zip_b:
        if zip_a.namelist() != zip_b.namelist():
            return False
        return all(
            zip_a.read(name) == zip_b.read(name)
            for name in zip_a.namelist()
        )


def _int64_column(name: str, values: Sequence[int]) -> np.ndarray:
    # np.array performs the int64 range check itself (OverflowError)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise CaptureError(f"{name} value out of int64 range") from None


def _walk_tables(distinct_walks: Sequence[Tuple[StackFrame, ...]]) -> dict:
    """Frame table, walk CSR arrays, and module/function vocabularies
    from the distinct walks in first-appearance order.

    Byte-identical to a per-event writer's interleaved traversal
    (``tests/oracles/capture.py``): that loop only does frame/vocab
    work when it meets a *new* walk, so its traversal order is exactly "frames of each distinct walk, in
    walk first-appearance order" — a frame's first appearance in that
    sequence equals its first appearance in event order (a repeated
    walk cannot introduce a frame its first occurrence didn't)."""
    module_table: dict = {}
    function_table: dict = {}
    frame_ids: dict = {}
    frame_index: List[int] = []
    frame_module_id: List[int] = []
    frame_function_id: List[int] = []
    frame_address: List[int] = []
    walk_frame_ids: List[int] = []
    walk_offsets: List[int] = [0]
    for walk in distinct_walks:
        for frame in walk:
            frame_id = frame_ids.get(frame)
            if frame_id is None:
                frame_id = len(frame_index)
                frame_ids[frame] = frame_id
                frame_index.append(frame.index)
                module = module_table.get(frame.module)
                if module is None:
                    module = len(module_table)
                    module_table[frame.module] = module
                frame_module_id.append(module)
                function = function_table.get(frame.function)
                if function is None:
                    function = len(function_table)
                    function_table[frame.function] = function
                frame_function_id.append(function)
                frame_address.append(frame.address)
            walk_frame_ids.append(frame_id)
        walk_offsets.append(len(walk_frame_ids))
    return {
        "frame_index": _int64_column("frame_index", frame_index),
        "frame_module_id": np.array(frame_module_id, dtype=np.int64),
        "frame_function_id": np.array(frame_function_id, dtype=np.int64),
        "frame_address": _address_column(frame_address),
        "walk_frame_ids": np.array(walk_frame_ids, dtype=np.int64),
        "walk_offsets": np.array(walk_offsets, dtype=np.int64),
        "module_vocab": list(module_table),
        "function_vocab": list(function_table),
    }


def _arrays_from_columns(cols) -> "tuple[dict, dict]":
    """Array assembly from the parser's :class:`EventColumns` sidecar:
    every per-event quantity is already an id or an int list, so the
    writer's per-event cost is five ``np.array`` conversions."""
    walk_arrays = _walk_tables(cols.walks)
    arrays = {
        "eid": _int64_column("eid", cols.eid),
        "timestamp": _int64_column("timestamp", cols.timestamp),
        "pid": _int64_column("pid", cols.pid),
        "tid": _int64_column("tid", cols.tid),
        "opcode": _int64_column("opcode", cols.opcode),
        "process_id": np.array(cols.process_id, dtype=np.int64),
        "category_id": np.array(cols.category_id, dtype=np.int64),
        "name_id": np.array(cols.name_id, dtype=np.int64),
        "walk_id": np.array(cols.walk_id, dtype=np.int64),
        "frame_index": walk_arrays["frame_index"],
        "frame_module_id": walk_arrays["frame_module_id"],
        "frame_function_id": walk_arrays["frame_function_id"],
        "frame_address": walk_arrays["frame_address"],
        "walk_frame_ids": walk_arrays["walk_frame_ids"],
        "walk_offsets": walk_arrays["walk_offsets"],
    }
    vocabs = {
        "process": cols.process_vocab,
        "category": cols.category_vocab,
        "name": cols.name_vocab,
        "module": walk_arrays["module_vocab"],
        "function": walk_arrays["function_vocab"],
    }
    counts = {
        "events": cols.n_events,
        "frames": len(walk_arrays["frame_index"]),
        "walks": len(cols.walks),
    }
    return arrays, vocabs, counts


def _factorize(values: Sequence) -> "tuple[np.ndarray, list]":
    """(id array, distinct values in first-appearance order) — the bulk
    equivalent of interning each event's value in turn.
    ``dict.fromkeys`` preserves first-appearance order in one C pass."""
    table = {value: index for index, value in enumerate(dict.fromkeys(values))}
    ids = np.fromiter(
        map(table.__getitem__, values), np.int64, count=len(values)
    )
    return ids, list(table)


def _arrays_from_events(events: Sequence[EventRecord]) -> "tuple[dict, dict]":
    """Generic bulk assembly for arbitrary event sequences (no parser
    sidecar): column extraction by comprehension, vocabularies by bulk
    first-appearance interning, walk dedup with an identity pre-pass
    (interned walks collapse by ``id()`` before any tuple is hashed)."""
    n = len(events)
    walks = [event.frames for event in events]
    # identity pre-pass: first-appearance-ordered distinct *objects*
    uniq = dict(zip(map(id, walks), walks))
    # equality dedup over the (few) identity-distinct walks; two equal
    # but distinct tuples must still collapse to one walk id, exactly
    # as in an equality-keyed per-event table
    walk_table: dict = {}
    distinct_walks: List[Tuple[StackFrame, ...]] = []
    idmap: dict = {}
    for key, walk in uniq.items():
        index = walk_table.get(walk)
        if index is None:
            index = len(distinct_walks)
            walk_table[walk] = index
            distinct_walks.append(walk)
        idmap[key] = index
    walk_id = np.fromiter(map(idmap.__getitem__, map(id, walks)), np.int64, n)
    walk_arrays = _walk_tables(distinct_walks)
    process_id, process_vocab = _factorize([e.process for e in events])
    category_id, category_vocab = _factorize([e.category for e in events])
    name_id, name_vocab = _factorize([e.name for e in events])
    arrays = {
        "eid": _int64_column("eid", [e.eid for e in events]),
        "timestamp": _int64_column("timestamp", [e.timestamp for e in events]),
        "pid": _int64_column("pid", [e.pid for e in events]),
        "tid": _int64_column("tid", [e.tid for e in events]),
        "opcode": _int64_column("opcode", [e.opcode for e in events]),
        "process_id": process_id,
        "category_id": category_id,
        "name_id": name_id,
        "walk_id": walk_id,
        "frame_index": walk_arrays["frame_index"],
        "frame_module_id": walk_arrays["frame_module_id"],
        "frame_function_id": walk_arrays["frame_function_id"],
        "frame_address": walk_arrays["frame_address"],
        "walk_frame_ids": walk_arrays["walk_frame_ids"],
        "walk_offsets": walk_arrays["walk_offsets"],
    }
    vocabs = {
        "process": process_vocab,
        "category": category_vocab,
        "name": name_vocab,
        "module": walk_arrays["module_vocab"],
        "function": walk_arrays["function_vocab"],
    }
    counts = {
        "events": n,
        "frames": len(walk_arrays["frame_index"]),
        "walks": len(distinct_walks),
    }
    return arrays, vocabs, counts


def write_capture(
    path: Union[str, os.PathLike],
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize parsed events to a capture directory ``path``.

    Creates the directory (and parents) if needed; overwrites an
    existing capture in place.  Returns the capture path.

    Output is byte-identical to the per-event reference writer
    (``tests/oracles/capture.py``) for every input.  When ``events`` is an
    :class:`~repro.etw.events.EventLog` carrying the parser's
    :class:`~repro.etw.events.EventColumns` sidecar
    (``parse_fast(..., columns=True)``, as :func:`convert_log` uses),
    array assembly skips per-event attribute access entirely; arbitrary
    event sequences take the generic bulk path.
    """
    path = Path(os.fspath(path))
    cols = getattr(events, "columns", None)
    if cols is not None and cols.n_events == len(events):
        arrays, vocabs, counts = _arrays_from_columns(cols)
    else:
        arrays, vocabs, counts = _arrays_from_events(events)
    return _finalize_capture(path, arrays, vocabs, counts, report, source)


def write_capture_columns(
    path: Union[str, os.PathLike],
    cols,
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize an :class:`~repro.etw.events.EventColumns` directly.

    The generation fast path's sink: column blocks go straight to the
    capture arrays without ever materializing an ``EventRecord`` (or a
    line of text).  Byte-identical to :func:`write_capture` over the
    equivalent event list — ``tests/test_fastgen.py`` holds the
    generator's captures to the per-event reference writer.
    """
    path = Path(os.fspath(path))
    arrays, vocabs, counts = _arrays_from_columns(cols)
    return _finalize_capture(path, arrays, vocabs, counts, report, source)


def convert_log(
    src: Union[str, os.PathLike],
    dst: Optional[Union[str, os.PathLike]] = None,
    *,
    policy: str = "drop",
    require_complete_tail: bool = False,
) -> Path:
    """One-time text → columnar conversion of a raw log file.

    Parses ``src`` under the given recovery ``policy`` (default
    ``"drop"``: corrupt lines are classified and skipped, not fatal) and
    writes the capture to ``dst`` (default: ``src`` with its suffix
    replaced by ``.leapscap``).  The conversion's
    :class:`~repro.etw.recovery.ParseReport` is recorded in the capture
    metadata, so nothing recovery learned about the text is lost.
    """
    from repro.etw.fastparse import parse_fast

    src = Path(os.fspath(src))
    if dst is None:
        dst = src.with_suffix(CAPTURE_SUFFIX)
    report = ParseReport()
    events = parse_fast(
        src.read_bytes(),
        policy=policy,
        report=report,
        require_complete_tail=require_complete_tail,
        columns=True,
    )
    return write_capture(
        dst,
        events,
        report=report,
        source={
            "path": str(src),
            "policy": policy,
            "require_complete_tail": bool(require_complete_tail),
        },
    )


# -- reading ----------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CaptureError(message)


def load_capture(path: Union[str, os.PathLike]) -> Capture:
    """Load and validate a capture; returns events bit-identical to the
    parse that was converted (same interned frames, same report)."""
    path = Path(os.fspath(path))
    json_path = path / JSON_NAME
    npz_path = path / NPZ_NAME
    if not json_path.is_file() or not npz_path.is_file():
        raise CaptureError(
            f"{path} is not a capture (needs {JSON_NAME} + {NPZ_NAME})"
        )
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CaptureError(f"unparseable {json_path}: {error}") from error
    schema = meta.get("schema")
    if schema != SCHEMA:
        raise CaptureVersionError(
            f"capture schema {schema!r} is not supported (expected {SCHEMA!r})"
        )

    with np.load(npz_path, allow_pickle=False) as data:
        try:
            arrays = {key: data[key] for key in data.files}
        except (ValueError, OSError) as error:
            raise CaptureError(f"unreadable {npz_path}: {error}") from error

    try:
        vocab = {
            name: _split_vocab(arrays[f"vocab_{name}"][()], name)
            for name in _VOCAB_NAMES
        }
        eid = arrays["eid"]
        timestamp = arrays["timestamp"]
        pid = arrays["pid"]
        tid = arrays["tid"]
        opcode = arrays["opcode"]
        process_id = arrays["process_id"]
        category_id = arrays["category_id"]
        name_id = arrays["name_id"]
        walk_id = arrays["walk_id"]
        frame_index = arrays["frame_index"]
        frame_module_id = arrays["frame_module_id"]
        frame_function_id = arrays["frame_function_id"]
        frame_address = arrays["frame_address"]
        walk_frame_ids = arrays["walk_frame_ids"]
        walk_offsets = arrays["walk_offsets"]
    except KeyError as error:
        raise CaptureError(f"capture is missing array {error}") from error

    n_events = len(eid)
    n_frames = len(frame_index)
    n_walks = len(walk_offsets) - 1
    for name, column in (
        ("timestamp", timestamp),
        ("pid", pid),
        ("tid", tid),
        ("opcode", opcode),
        ("process_id", process_id),
        ("category_id", category_id),
        ("name_id", name_id),
        ("walk_id", walk_id),
    ):
        _require(
            len(column) == n_events, f"column {name} length != event count"
        )
    _require(
        len(frame_module_id) == n_frames
        and len(frame_function_id) == n_frames
        and len(frame_address) == n_frames,
        "frame table columns disagree on length",
    )
    _require(n_walks >= 0, "walk_offsets must have at least one entry")
    offsets = walk_offsets.tolist()
    _require(
        offsets[0] == 0 and offsets[-1] == len(walk_frame_ids),
        "walk_offsets must span walk_frame_ids exactly",
    )
    _require(
        all(a <= b for a, b in zip(offsets, offsets[1:])),
        "walk_offsets must be monotonically non-decreasing",
    )
    for name, column, bound in (
        ("process_id", process_id, len(vocab["process"])),
        ("category_id", category_id, len(vocab["category"])),
        ("name_id", name_id, len(vocab["name"])),
        ("walk_id", walk_id, n_walks),
        ("frame_module_id", frame_module_id, len(vocab["module"])),
        ("frame_function_id", frame_function_id, len(vocab["function"])),
        ("walk_frame_ids", walk_frame_ids, n_frames),
    ):
        if len(column) and (
            int(column.min()) < 0 or int(column.max()) >= bound
        ):
            raise CaptureError(f"{name} out of range [0, {bound})")
    for name in ("process", "category", "name", "module", "function"):
        for value in vocab[name]:
            if "|" in value or "\r" in value:
                raise CaptureError(
                    f"vocab_{name} entry {value!r} contains a raw-log "
                    "delimiter"
                )

    # The hot path: pure C-driven loops over Python ints and interned
    # objects.  Pause generational GC as in the block-level text parser —
    # the transient containers otherwise trigger rescans costing more
    # than the reconstruction itself.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        modules = vocab["module"]
        functions = vocab["function"]
        frames: List[StackFrame] = [
            intern_frame(index, modules[module], functions[function], address)
            for index, module, function, address in zip(
                frame_index.tolist(),
                frame_module_id.tolist(),
                frame_function_id.tolist(),
                frame_address.tolist(),
            )
        ]
        flat = walk_frame_ids.tolist()
        walks: List[Tuple[StackFrame, ...]] = [
            tuple(frames[frame_id] for frame_id in flat[start:stop])
            for start, stop in zip(offsets, offsets[1:])
        ]
        processes = vocab["process"]
        categories = vocab["category"]
        names = vocab["name"]
        events = EventLog()
        append = events.append
        new = EventRecord.__new__
        # Vocab strings are validated delimiter-free above and integer
        # fields are exact int64 round-trips, so __init__ can be
        # bypassed exactly as in the block-level text parser.
        for (
            event_eid,
            event_timestamp,
            event_pid,
            event_process,
            event_tid,
            event_category,
            event_opcode,
            event_name,
            event_walk,
        ) in zip(
            eid.tolist(),
            timestamp.tolist(),
            pid.tolist(),
            process_id.tolist(),
            tid.tolist(),
            category_id.tolist(),
            opcode.tolist(),
            name_id.tolist(),
            walk_id.tolist(),
        ):
            record = new(EventRecord)
            record.eid = event_eid
            record.timestamp = event_timestamp
            record.pid = event_pid
            record.process = processes[event_process]
            record.tid = event_tid
            record.category = categories[event_category]
            record.opcode = event_opcode
            record.name = names[event_name]
            record.frames = walks[event_walk]
            append(record)
    finally:
        if gc_was_enabled:
            gc.enable()

    report_doc = meta.get("parse_report")
    report = None if report_doc is None else ParseReport.from_dict(report_doc)
    events.report = report
    events.source = os.fspath(path)
    return Capture(events=events, report=report, meta=meta)


def read_capture(
    path: Union[str, os.PathLike],
) -> Tuple[EventLog, Optional[ParseReport]]:
    """Events + conversion report of a capture (convenience wrapper)."""
    capture = load_capture(path)
    return capture.events, capture.report


def iter_capture(path: Union[str, os.PathLike]) -> Iterator[EventRecord]:
    """``iter_parse``-shaped access: yield the capture's events in order."""
    return iter(load_capture(path).events)


# -- command line ------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.etw.capture`` — convert raw logs and inspect
    captures from the shell:

    ``convert <log> [<out.leapscap>]``
        One-time text → columnar conversion (:func:`convert_log`).
    ``info <capture.leapscap>``
        Schema, entity counts, provenance, and parse-report summary.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.etw.capture",
        description="Columnar capture tools: parse once, scan forever.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    convert = commands.add_parser(
        "convert", help="convert a raw text log to a .leapscap capture"
    )
    convert.add_argument("log", help="raw pipe-delimited log file")
    convert.add_argument(
        "capture", nargs="?", default=None,
        help="output capture directory (default: <log>.leapscap)",
    )
    convert.add_argument(
        "--policy", default="drop", choices=("strict", "warn", "drop"),
        help="parse recovery policy (default: drop)",
    )
    info = commands.add_parser(
        "info", help="print a capture's schema, counts, and provenance"
    )
    info.add_argument("capture", help="capture directory (.leapscap)")
    args = parser.parse_args(argv)

    if args.command == "convert":
        try:
            out = convert_log(args.log, args.capture, policy=args.policy)
        except (OSError, CaptureError) as error:
            print(f"error: {error}")
            return 1
        meta = json.loads((out / JSON_NAME).read_text(encoding="utf-8"))
        counts = meta["counts"]
        print(f"wrote {out}")
        print(
            f"  events={counts['events']}  frames={counts['frames']}  "
            f"walks={counts['walks']}"
        )
        report = meta.get("parse_report") or {}
        if report:
            print(
                f"  lines={report.get('total_lines')}  "
                f"dropped={report.get('events_dropped')}  "
                f"errors={report.get('error_lines')}"
            )
        return 0

    try:
        capture = load_capture(args.capture)
    except CaptureError as error:
        print(f"error: {error}")
        return 1
    meta = capture.meta
    print(f"{args.capture}: schema {meta['schema']}")
    for key, value in meta["counts"].items():
        print(f"  {key}: {value}")
    source = meta.get("source") or {}
    if source:
        print(f"  source: {source.get('path')} (policy={source.get('policy')})")
    if capture.report is not None:
        report = capture.report
        print(
            f"  parse report: {report.total_lines} lines, "
            f"{report.events_yielded} events, "
            f"{report.error_lines} error lines, "
            f"truncated_tail={report.truncated_tail}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
