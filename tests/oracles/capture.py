"""The per-event capture writer — the oracle for
:func:`repro.etw.capture.write_capture` and
:func:`~repro.etw.capture.write_capture_columns`.

One loop over the events interns every string, frame and walk as it is
first met.  The write tail (vocabulary joins, metadata document, the two
on-disk members) is production's ``_finalize_capture``, so the oracle
checks array assembly and shares the container format.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.etw.capture import (
    _INT64_MAX,
    _INT64_MIN,
    _VOCAB_NAMES,
    CaptureError,
    _address_column,
    _finalize_capture,
)
from repro.etw.events import EventRecord
from repro.etw.recovery import ParseReport


def _int_column(name: str, values: Sequence[int]) -> np.ndarray:
    if any(v < _INT64_MIN or v > _INT64_MAX for v in values):
        raise CaptureError(f"{name} value out of int64 range")
    return np.array(values, dtype=np.int64)


def write_capture_naive(
    path: Union[str, os.PathLike],
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Per-event-loop capture writer: every array and metadata byte of
    :func:`~repro.etw.capture.write_capture` must match it."""
    path = Path(os.fspath(path))

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
    counts = {
        "events": len(eid),
        "frames": len(frame_rows),
        "walks": len(walk_offsets) - 1,
    }
    return _finalize_capture(
        path,
        arrays,
        {name: list(table) for name, table in vocabs.items()},
        counts,
        report,
        source,
    )
