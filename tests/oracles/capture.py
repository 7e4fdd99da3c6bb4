"""The per-event capture writer — the oracle for
:func:`repro.etw.capture.write_capture` and
:func:`~repro.etw.capture.write_capture_columns` — plus a reader of the
chunk layout and a v1 rewriter.

One loop over the events interns every string, frame and walk as it is
first met.  The write tail (metadata document and events chunk) is
production's ``_finalize_capture``, so the oracle checks array assembly
and shares the container format.  :func:`read_chunk_arrays` reads an
events chunk straight from the layout in the ``repro.etw.capture``
docstring, independent of the decoder, and :func:`rewrite_as_v1` turns
a capture into the retired ``leaps-capture/v1`` form that
:func:`~repro.etw.capture.load_capture` still reads.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.etw.capture import (
    _INT64_MAX,
    _INT64_MIN,
    _VOCAB_NAMES,
    CHUNK_HEADER_SIZE,
    EVENTS_NAME,
    JSON_NAME,
    NPZ_NAME,
    SCHEMA_V1,
    CaptureError,
    Delta,
    _address_column,
    _finalize_capture,
)
from repro.etw.events import EventRecord
from repro.etw.recovery import ParseReport


def _int_column(name: str, values: Sequence[int]) -> np.ndarray:
    if any(v < _INT64_MIN or v > _INT64_MAX for v in values):
        raise CaptureError(f"{name} value out of int64 range")
    return np.array(values, dtype=np.int64)


def naive_delta(events: Sequence[EventRecord]) -> Delta:
    """The delta of ``events`` against empty tables, one event at a
    time: every array and vocabulary of a fresh
    :class:`~repro.etw.capture.DeltaEncoder`'s must match it."""
    vocabs: dict = {name: {} for name in _VOCAB_NAMES}

    def vocab_id(name: str, value: str) -> int:
        table = vocabs[name]
        index = table.get(value)
        if index is None:
            index = len(table)
            table[value] = index
        return index

    eid: List[int] = []
    timestamp: List[int] = []
    pid: List[int] = []
    tid: List[int] = []
    opcode: List[int] = []
    process_id: List[int] = []
    category_id: List[int] = []
    name_id: List[int] = []
    walk_id: List[int] = []

    frame_ids: dict = {}
    frame_rows: List[Tuple[int, int, int, int]] = []
    walk_ids: dict = {}
    walk_frame_ids: List[int] = []
    walk_offsets: List[int] = [0]

    for event in events:
        eid.append(event.eid)
        timestamp.append(event.timestamp)
        pid.append(event.pid)
        tid.append(event.tid)
        opcode.append(event.opcode)
        process_id.append(vocab_id("process", event.process))
        category_id.append(vocab_id("category", event.category))
        name_id.append(vocab_id("name", event.name))

        walk = event.frames
        index = walk_ids.get(walk)
        if index is None:
            ids = []
            for frame in walk:
                frame_id = frame_ids.get(frame)
                if frame_id is None:
                    frame_id = len(frame_rows)
                    frame_ids[frame] = frame_id
                    frame_rows.append(
                        (
                            frame.index,
                            vocab_id("module", frame.module),
                            vocab_id("function", frame.function),
                            frame.address,
                        )
                    )
                ids.append(frame_id)
            index = len(walk_offsets) - 1
            walk_ids[walk] = index
            walk_frame_ids.extend(ids)
            walk_offsets.append(len(walk_frame_ids))
        walk_id.append(index)

    arrays = {
        "eid": _int_column("eid", eid),
        "timestamp": _int_column("timestamp", timestamp),
        "pid": _int_column("pid", pid),
        "tid": _int_column("tid", tid),
        "opcode": _int_column("opcode", opcode),
        "process_id": np.array(process_id, dtype=np.int64),
        "category_id": np.array(category_id, dtype=np.int64),
        "name_id": np.array(name_id, dtype=np.int64),
        "walk_id": np.array(walk_id, dtype=np.int64),
        "frame_index": _int_column(
            "frame_index", [row[0] for row in frame_rows]
        ),
        "frame_module_id": np.array(
            [row[1] for row in frame_rows], dtype=np.int64
        ),
        "frame_function_id": np.array(
            [row[2] for row in frame_rows], dtype=np.int64
        ),
        "frame_address": _address_column([row[3] for row in frame_rows]),
        "walk_frame_ids": np.array(walk_frame_ids, dtype=np.int64),
        "walk_offsets": np.array(walk_offsets, dtype=np.int64),
    }
    return Delta(arrays, {name: list(table) for name, table in vocabs.items()})


def write_capture_naive(
    path: Union[str, os.PathLike],
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Per-event-loop capture writer: every metadata and chunk byte of
    :func:`~repro.etw.capture.write_capture` must match it."""
    return _finalize_capture(
        Path(os.fspath(path)), naive_delta(events), report, source
    )


def read_chunk_arrays(chunk: bytes) -> dict:
    """An events chunk read as capture arrays, straight from the layout
    in the ``repro.etw.capture`` docstring (independent of the
    decoder): each vocabulary as its newline-joined blob under
    ``vocab_<name>``, walk lengths as CSR ``walk_offsets``."""
    body = memoryview(chunk)[CHUNK_HEADER_SIZE:]
    offset = 0

    def take(n):
        nonlocal offset
        offset += n
        return body[offset - n : offset]

    def u32():
        return struct.unpack("<I", take(4))[0]

    def ints(n, dtype="<i8"):
        return np.frombuffer(take(8 * n), dtype=dtype).copy()

    n_events = u32()
    arrays = {}
    for name in ("process", "category", "name", "module", "function"):
        u32()  # entry count
        arrays[f"vocab_{name}"] = bytes(take(u32())).decode("utf-8")
    n_frames = u32()
    for column in ("frame_index", "frame_module_id", "frame_function_id"):
        arrays[column] = ints(n_frames)
    wide = take(1)[0]
    arrays["frame_address"] = ints(n_frames, "<u8" if wide else "<i8")
    n_walks, n_flat = u32(), u32()
    arrays["walk_frame_ids"] = ints(n_flat)
    arrays["walk_offsets"] = np.concatenate(
        [np.zeros(1, np.int64), np.cumsum(ints(n_walks))]
    )
    for column in ("eid", "timestamp", "pid", "tid", "opcode", "process_id",
                   "category_id", "name_id", "walk_id"):
        arrays[column] = ints(n_events)
    assert offset == len(body)
    return arrays


def rewrite_as_v1(path: Union[str, os.PathLike]) -> Path:
    """Rewrite a capture in place as ``leaps-capture/v1``: its delta as
    ``arrays.npz`` members (each vocabulary a newline-joined string
    scalar) and its ``capture.json`` with the v1 schema, which is all
    that v1 wrote differently."""
    path = Path(os.fspath(path))
    arrays = read_chunk_arrays((path / EVENTS_NAME).read_bytes())
    np.savez(
        path / NPZ_NAME,
        **{
            name: np.array(value) if name.startswith("vocab_") else value
            for name, value in arrays.items()
        },
    )
    meta = json.loads((path / JSON_NAME).read_text())
    meta["schema"] = SCHEMA_V1
    (path / JSON_NAME).write_text(json.dumps(meta, indent=2) + "\n")
    (path / EVENTS_NAME).unlink()
    return path
