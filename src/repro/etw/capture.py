"""Versioned binary columnar capture format and the one columnar codec.

A *capture* is the columnar form of a parsed raw log, written once so
later scans skip text parsing: a ``<name>.leapscap`` directory holding

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

**One codec, two containers.**  :class:`DeltaEncoder` keeps cumulative
string, frame and walk tables and turns a run of events into a
:class:`Delta`: the nine event columns plus the vocabulary entries,
frame rows and walks the run adds to those tables.
:class:`DeltaDecoder` keeps the same tables on the reading side, checks
a delta against them — dtype, shape, lengths, offsets, id ranges,
vocabulary delimiters and frame numbering — and only then grows them.
It returns the delta's events as :class:`~repro.etw.events.EventColumns`
over those tables; records are built only on request
(:meth:`~repro.etw.events.EventColumns.records`, which
:attr:`Capture.events` calls).  :func:`convert_log` parses text straight
to columns and encodes them, so no record is built on the way from a
text log to a capture either.  A capture is the first delta
against empty tables; the serve wire's columnar chunks
(:mod:`repro.serve.columnar`) are the later deltas of a stream, framed
as bytes.  Each container passes its own error type, so a capture that
fails validation raises :class:`CaptureError` (or
:class:`CaptureVersionError` for a schema mismatch) — a scanner must
never silently misinterpret a capture written by a newer converter.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.etw.events import (
    INT_FIELDS,
    STRING_FIELDS,
    EventColumns,
    EventRecord,
    StackFrame,
    intern_codes,
)
from repro.etw.fastparse import parse_columns
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

#: vocabulary order of both containers; must never change within a version
_VOCAB_NAMES = ("process", "category", "name", "module", "function")
#: the nine per-event columns, in storage order
_EVENT_COLUMNS = EventColumns.COLUMNS
_FRAME_COLUMNS = (
    "frame_index", "frame_module_id", "frame_function_id", "frame_address",
)
#: every numeric array of a delta, under its capture name
_ARRAYS = _EVENT_COLUMNS + _FRAME_COLUMNS + ("walk_frame_ids", "walk_offsets")


class CaptureError(RuntimeError):
    """The capture is missing, malformed, or cannot be written."""


class CaptureVersionError(CaptureError):
    """The capture's schema version is not one this code understands."""


def is_capture_path(path: Union[str, os.PathLike]) -> bool:
    """Whether a path addresses a columnar capture (by its suffix)."""
    return Path(os.fspath(path)).suffix == CAPTURE_SUFFIX


@dataclass
class Capture:
    """A loaded capture: the decoded columns, the conversion-time parse
    report (``None`` when the writer had none), the raw metadata
    document and the capture path.  A capture scan featurizes
    ``columns``; ``events`` builds records for callers that ask."""

    columns: EventColumns
    report: Optional[ParseReport]
    meta: dict
    source: str

    @property
    def events(self) -> List[EventRecord]:
        """The records, built from ``columns`` on every read."""
        return self.columns.records()


# -- the codec ----------------------------------------------------------


class Delta(NamedTuple):
    """What one run of events adds to the cumulative tables: ``arrays``
    holds the nine event columns, the new frame rows and the new walks
    as CSR (``walk_offsets`` starts at 0) under their capture array
    names; ``vocabs`` holds each vocabulary's new entries."""

    arrays: Dict[str, np.ndarray]
    vocabs: Dict[str, List[str]]


def _int64(name: str, values, error: type) -> np.ndarray:
    # np.asarray performs the int64 range check itself (OverflowError)
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise error(f"{name} value out of int64 range") from None


def _address_column(values: Sequence[int], error: type = CaptureError) -> np.ndarray:
    if not values:
        return np.zeros(0, dtype=np.int64)
    low, high = min(values), max(values)
    if _INT64_MIN <= low and high <= _INT64_MAX:
        return np.array(values, dtype=np.int64)
    if 0 <= low and high <= _UINT64_MAX:
        return np.array(values, dtype=np.uint64)
    raise error("frame address out of 64-bit range")


def _join_vocab(name: str, strings: Sequence[str], error: type = CaptureError) -> str:
    for value in strings:
        # Construction-time validation normally guarantees this, but
        # events built by trusted fast paths bypass __init__ — recheck
        # before the newline join becomes the storage format.
        if "\n" in value or "\r" in value or "|" in value:
            raise error(
                f"vocab_{name} entry {value!r} contains a raw-log delimiter"
            )
    return "\n".join(strings) + "\n" if strings else ""


def _split_vocab(text: str, name: str, error: type) -> List[str]:
    if text == "":
        return []
    if not text.endswith("\n"):
        raise error(f"vocab_{name} is missing its trailing sentinel")
    entries = text.split("\n")
    entries.pop()
    return entries


class DeltaEncoder:
    """Writing side of the codec: cumulative string, frame and walk
    tables, grown in first-appearance order.  One instance per capture
    or per wire stream; each delta carries only what the tables did not
    already hold.  Encoding failures raise ``error``."""

    def __init__(self, error: type = CaptureError):
        self._error = error
        self._vocabs = {name: ({}, []) for name in _VOCAB_NAMES}
        self._frames: dict = {}
        self._walks: dict = {}

    def encode(self, events: Sequence[EventRecord]) -> Delta:
        """The delta of ``events``, in event order."""
        return self.encode_columns(EventColumns.from_records(events))

    def encode_columns(self, cols: EventColumns) -> Delta:
        """The delta of ``cols``: its vocabularies and walks are
        interned into the cumulative tables, and its id columns are
        translated through them, without a record in sight."""
        error = self._error
        new: Dict[str, List[str]] = {name: [] for name in _VOCAB_NAMES}

        def intern(name: str, values: list) -> np.ndarray:
            index, table = self._vocabs[name]
            known = len(table)
            codes = intern_codes(index, table, values)
            new[name] = table[known:]
            return codes

        arrays = {
            name: _int64(name, getattr(cols, name), error) for name in INT_FIELDS
        }
        for name in STRING_FIELDS:
            ids = intern(name, getattr(cols, f"{name}_vocab"))
            arrays[f"{name}_id"] = ids[getattr(cols, f"{name}_id")]

        # One pass per table walk; equal but distinct walk tuples meet
        # in the equality-keyed walk table.
        frame_table, walk_table = self._frames, self._walks
        new_frames: List[StackFrame] = []
        flat: List[int] = []
        offsets = [0]
        walk_ids: List[int] = []
        for walk in cols.walks:
            index = walk_table.get(walk)
            if index is None:
                index = walk_table[walk] = len(walk_table)
                for frame in walk:
                    frame_id = frame_table.get(frame)
                    if frame_id is None:
                        frame_id = frame_table[frame] = len(frame_table)
                        new_frames.append(frame)
                    flat.append(frame_id)
                offsets.append(len(flat))
            walk_ids.append(index)
        arrays["walk_id"] = np.array(walk_ids, dtype=np.int64)[cols.walk_id]
        arrays["frame_index"] = _int64(
            "frame_index", [frame.index for frame in new_frames], error
        )
        arrays["frame_module_id"] = intern(
            "module", [frame.module for frame in new_frames]
        )
        arrays["frame_function_id"] = intern(
            "function", [frame.function for frame in new_frames]
        )
        arrays["frame_address"] = _address_column(
            [frame.address for frame in new_frames], error
        )
        arrays["walk_frame_ids"] = np.array(flat, dtype=np.int64)
        arrays["walk_offsets"] = np.array(offsets, dtype=np.int64)
        return Delta(arrays, new)


class DeltaDecoder:
    """Reading side of the codec: the same cumulative tables, as lists
    of strings, interned frames and walk tuples.  :meth:`decode` checks
    a delta against them before any table grows, and raises ``error``
    — the container's own error type — on any failure."""

    def __init__(self, error: type = CaptureError):
        self._error = error
        self._vocabs: Dict[str, List[str]] = {name: [] for name in _VOCAB_NAMES}
        self._frames: List[StackFrame] = []
        # the stack index of every frame in ``_frames``
        self._frame_index = np.zeros(0, dtype=np.int64)
        self._walks: List[tuple] = []

    def decode(self, arrays: dict, vocabs: Dict[str, List[str]]) -> EventColumns:
        """The events of one delta as columns over the cumulative
        tables.  ``arrays`` maps the capture array names to the delta's
        arrays; ``vocabs`` maps each vocabulary name to its new
        entries."""
        error = self._error
        for name in _ARRAYS:
            array = arrays.get(name)
            if array is None:
                raise error(f"missing array {name!r}")
            # kind and itemsize, not an exact dtype: byte order may vary
            # and the check must not copy
            kinds = "iu" if name == "frame_address" else "i"
            if array.ndim != 1 or array.dtype.kind not in kinds or (
                array.dtype.itemsize != 8
            ):
                raise error(f"{name} must be a 1-D 64-bit integer array")
        columns = [arrays[name] for name in _EVENT_COLUMNS]
        frame_index, module_ids, function_ids, addresses = (
            arrays[name] for name in _FRAME_COLUMNS
        )
        flat = arrays["walk_frame_ids"]
        offsets = arrays["walk_offsets"]
        n_events = len(columns[0])
        if any(len(column) != n_events for column in columns):
            raise error("event columns disagree on length")
        n_new_frames = len(frame_index)
        if not (
            len(module_ids) == len(function_ids) == len(addresses)
            == n_new_frames
        ):
            raise error("frame table columns disagree on length")
        if not len(offsets):
            raise error("walk_offsets must have at least one entry")
        if offsets[0] != 0 or offsets[-1] != len(flat):
            raise error("walk_offsets must span walk_frame_ids exactly")
        # compare, not subtract: a difference could wrap around
        if len(offsets) > 1 and (offsets[:-1] > offsets[1:]).any():
            raise error("walk_offsets must be monotonically non-decreasing")

        tables = self._vocabs
        frames, walks = self._frames, self._walks
        sizes = {name: len(tables[name]) + len(vocabs[name]) for name in tables}
        for name, column, bound in (
            ("process_id", columns[5], sizes["process"]),
            ("category_id", columns[6], sizes["category"]),
            ("name_id", columns[7], sizes["name"]),
            ("walk_id", columns[8], len(walks) + len(offsets) - 1),
            ("frame_module_id", module_ids, sizes["module"]),
            ("frame_function_id", function_ids, sizes["function"]),
            ("walk_frame_ids", flat, len(frames) + n_new_frames),
        ):
            if len(column) and (column.min() < 0 or column.max() >= bound):
                raise error(f"{name} out of range [0, {bound})")
        for name, entries in vocabs.items():
            for value in entries:
                if "|" in value or "\r" in value:
                    raise error(
                        f"vocab_{name} entry {value!r} contains a raw-log "
                        "delimiter"
                    )
        # Frame k of every walk carries stack index k, as in a text
        # parse, which rejects any other numbering; frames an earlier
        # delta sent are checked through the cumulative table.
        frame_indices = np.concatenate((self._frame_index, frame_index))
        positions = np.arange(len(flat)) - np.repeat(offsets[:-1], np.diff(offsets))
        if (frame_indices[flat] != positions).any():
            raise error("frame_index disagrees with the frame's walk position")

        for name, entries in vocabs.items():
            tables[name].extend(entries)
        modules, functions = tables["module"], tables["function"]
        frames.extend(
            intern_frame(index, modules[module], functions[function], address)
            for index, module, function, address in zip(
                frame_index.tolist(),
                module_ids.tolist(),
                function_ids.tolist(),
                addresses.tolist(),
            )
        )
        self._frame_index = frame_indices
        walk_frames = list(map(frames.__getitem__, flat.tolist()))
        bounds = offsets.tolist()
        walks.extend(
            tuple(walk_frames[start:stop])
            for start, stop in zip(bounds, bounds[1:])
        )
        cols = EventColumns.__new__(EventColumns)  # every slot is set below
        cols.n_events = n_events
        for name, column in zip(_EVENT_COLUMNS, columns):
            setattr(cols, name, column)
        for name in STRING_FIELDS:
            setattr(cols, f"{name}_vocab", tables[name])
        cols.walks = walks
        return cols


# -- writing ----------------------------------------------------------


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


def _write_delta(
    path: Union[str, os.PathLike],
    delta: Delta,
    report: Optional[ParseReport],
    source: Optional[dict],
) -> Path:
    arrays = delta.arrays
    counts = {
        "events": len(arrays["eid"]),
        "frames": len(arrays["frame_index"]),
        "walks": len(arrays["walk_offsets"]) - 1,
    }
    return _finalize_capture(
        Path(os.fspath(path)), dict(arrays), delta.vocabs, counts, report,
        source,
    )


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


def write_capture(
    path: Union[str, os.PathLike],
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize parsed events to a capture directory ``path``: the
    first delta of a fresh :class:`DeltaEncoder`.

    Creates the directory (and parents) if needed; overwrites an
    existing capture in place.  Returns the capture path.  Output is
    byte-identical to the per-event reference writer
    (``tests/oracles/capture.py``) for every input.
    """
    return _write_delta(path, DeltaEncoder().encode(events), report, source)


def write_capture_columns(
    path: Union[str, os.PathLike],
    cols: EventColumns,
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize an :class:`~repro.etw.events.EventColumns` directly.

    The sink of :func:`convert_log` and of the generation fast path:
    column blocks go straight to the capture arrays without ever
    materializing an ``EventRecord`` (or a line of text).
    Byte-identical to :func:`write_capture` over the equivalent event
    list — ``tests/test_fastgen.py`` holds the generator's captures to
    the per-event reference writer, and ``tests/test_capture.py``
    holds :func:`convert_log` to :func:`write_capture` over
    :func:`~repro.etw.fastparse.parse_fast`.
    """
    return _write_delta(
        path, DeltaEncoder().encode_columns(cols), report, source
    )


def convert_log(
    src: Union[str, os.PathLike],
    dst: Optional[Union[str, os.PathLike]] = None,
    *,
    policy: str = "drop",
    require_complete_tail: bool = False,
) -> Path:
    """One-time text → columnar conversion of a raw log file.

    Parses ``src`` to columns with
    :func:`~repro.etw.fastparse.parse_columns` under the given recovery
    ``policy`` (default ``"drop"``: corrupt lines are classified and
    skipped, not fatal) and writes them with
    :func:`write_capture_columns` to ``dst`` (default: ``src`` with its
    suffix replaced by ``.leapscap``).  The conversion's
    :class:`~repro.etw.recovery.ParseReport` is recorded in the capture
    metadata, so nothing recovery learned about the text is lost.
    """
    src = Path(os.fspath(src))
    if dst is None:
        dst = src.with_suffix(CAPTURE_SUFFIX)
    report = ParseReport()
    columns = parse_columns(
        src.read_bytes(),
        policy=policy,
        report=report,
        require_complete_tail=require_complete_tail,
    )
    return write_capture_columns(
        dst,
        columns,
        report=report,
        source={
            "path": str(src),
            "policy": policy,
            "require_complete_tail": bool(require_complete_tail),
        },
    )


# -- reading ----------------------------------------------------------


def load_capture(path: Union[str, os.PathLike]) -> Capture:
    """Load and validate a capture into columns; its ``events`` are
    bit-identical to the parse that was converted (same interned
    frames, same report)."""
    path = Path(os.fspath(path))
    json_path = path / JSON_NAME
    npz_path = path / NPZ_NAME
    if not json_path.is_file() or not npz_path.is_file():
        raise CaptureError(
            f"{path} is not a capture (needs {JSON_NAME} + {NPZ_NAME})"
        )
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as error:  # bad JSON, UTF-8 or depth
        raise CaptureError(f"unparseable {json_path}: {error}") from error
    if not isinstance(meta, dict):
        raise CaptureError(f"{json_path} is not a JSON object")
    schema = meta.get("schema")
    if schema != SCHEMA:
        raise CaptureVersionError(
            f"capture schema {schema!r} is not supported (expected {SCHEMA!r})"
        )
    report_doc = meta.get("parse_report")
    try:
        report = None if report_doc is None else ParseReport.from_dict(report_doc)
    except ValueError as error:
        raise CaptureError(f"bad parse_report in {json_path}: {error}") from error

    try:
        data = np.load(npz_path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            arrays = {key: data[key] for key in data.files}
    except Exception as error:
        # A damaged archive surfaces as BadZipFile, EOFError, ValueError,
        # NotImplementedError, OSError, a zlib or lzma error, ... — an
        # open-ended set that all means "unreadable" here.
        raise CaptureError(f"unreadable {npz_path}: {error}") from error

    vocabs = {}
    for name in _VOCAB_NAMES:
        raw = arrays.get(f"vocab_{name}")
        if raw is None:
            raise CaptureError(f"capture is missing array 'vocab_{name}'")
        if raw.ndim or raw.dtype.kind != "U":
            raise CaptureError(f"vocab_{name} must be a string scalar")
        vocabs[name] = _split_vocab(str(raw[()]), name, CaptureError)
    columns = DeltaDecoder().decode(arrays, vocabs)
    return Capture(columns, report, meta, os.fspath(path))


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
