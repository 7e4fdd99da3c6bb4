"""Hypothesis fuzzing of both columnar decoders.

Whatever a capture directory (``leaps-capture/v2``'s ``events.lc`` or
v1's ``arrays.npz``) or a chunk stream holds, the only error that may
escape is the container's documented one: ``CaptureError`` from
:func:`~repro.etw.capture.load_capture`, ``ChunkError`` from
:meth:`~repro.serve.columnar.CaptureChunkDecoder.feed`.  Whatever does
decode must be usable downstream: a decoded parse report merges into
a stream's report the way a serve shard merges it.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.etw.capture import (
    EVENTS_NAME,
    CaptureError,
    convert_log,
    load_capture,
)
from repro.etw.fastparse import parse_fast
from repro.etw.recovery import ParseReport
from repro.serve.columnar import (
    CHUNK_HEADER_SIZE,
    CHUNK_MAGIC,
    CHUNK_REPORT,
    CHUNK_VERSION,
    CaptureChunkDecoder,
    ChunkError,
    encode_event_stream,
)

from tests.conftest import TINY_LOG
from tests.oracles.capture import rewrite_as_v1
from tests.test_api import make_log
from tests.test_stream_scan import SCAN_SPECS

#: a log with a uint64 address, repeated walks and one corrupt line, so
#: every table and the parse report are non-trivial
LINES = (
    TINY_LOG.replace("0x400012", "0xfffffffffffff012", 1).splitlines()
    + ["@@corrupt@@"]
    + make_log(SCAN_SPECS[:6], start_eid=3)
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


def assert_usable(report):
    """A decoded report survives what a serve shard does with it."""
    if report is not None:
        merged = ParseReport().merge(report).merge(report)
        merged.summary()
        json.dumps(merged.to_dict())


# -- captures ----------------------------------------------------------


@pytest.fixture(scope="module")
def capture_v2(tmp_path_factory):
    src = tmp_path_factory.mktemp("fuzz") / "host.log"
    src.write_text("\n".join(LINES) + "\n", encoding="utf-8")
    path = convert_log(src, policy="drop")
    meta = json.loads((path / "capture.json").read_text())
    assert meta["parse_report"]["issues"]
    return path


@pytest.fixture(scope="module")
def capture(capture_v2, tmp_path_factory):
    path = rewrite_as_v1(
        shutil.copytree(capture_v2, tmp_path_factory.mktemp("v1") / "x.leapscap")
    )
    with np.load(path / "arrays.npz") as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads((path / "capture.json").read_text())
    return arrays, meta, (path / "arrays.npz").read_bytes()


def _retype(array, dtype):
    try:
        return array.astype(dtype)
    except (TypeError, ValueError):
        return np.zeros(array.shape, dtype=dtype)


def _reshape(array, how):
    flat = array.reshape(-1)
    return {
        "column": flat.reshape(-1, 1),
        "row": flat.reshape(1, -1),
        "scalar": flat[0] if len(flat) else np.array(0),
        "empty": flat[:0],
        "shorter": flat[:-1],
        "longer": np.concatenate([flat, flat[:1]]),
    }[how]


@st.composite
def capture_mutations(draw, arrays, meta):
    """One random mutation of a valid capture: returns the (arrays,
    meta, npz bytes or None) to write."""
    arrays, meta = dict(arrays), json.loads(json.dumps(meta))
    name = draw(st.sampled_from(sorted(arrays)))
    kind = draw(st.sampled_from(
        ["dtype", "shape", "value", "drop", "json", "report", "truncate"]
    ))
    if kind == "dtype":
        arrays[name] = _retype(arrays[name], draw(st.sampled_from(
            ["<f8", "<i4", "<u8", ">i8", "?", "<U3", "i1"]
        )))
    elif kind == "shape":
        arrays[name] = _reshape(arrays[name], draw(st.sampled_from(
            ["column", "row", "scalar", "empty", "shorter", "longer"]
        )))
    elif kind == "value":
        array = arrays[name]
        if array.dtype.kind == "U":
            arrays[name] = np.array(draw(st.text(max_size=12)))
        elif len(array):
            array = array.copy()
            info = np.iinfo(array.dtype)
            array[draw(st.integers(0, len(array) - 1))] = draw(
                st.integers(int(info.min), int(info.max))
            )
            arrays[name] = array
    elif kind == "drop":
        del arrays[name]
    elif kind == "json":
        key = draw(st.sampled_from([None, *sorted(meta)]))
        if key is None:
            meta = draw(JSON)
        else:
            meta[key] = draw(JSON)
    elif kind == "report":
        report = meta["parse_report"]
        report[draw(st.sampled_from(sorted(report)))] = draw(JSON)
    return arrays, meta, draw(st.integers(0, 4096)) if kind == "truncate" else None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_capture_raises_only_capture_error(capture, data):
    arrays, meta, npz_bytes = capture
    arrays, meta, cut = data.draw(capture_mutations(arrays, meta))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "x.leapscap"
        path.mkdir()
        (path / "capture.json").write_text(json.dumps(meta))
        if cut is None:
            np.savez(path / "arrays.npz", **arrays)
        else:
            (path / "arrays.npz").write_bytes(npz_bytes[:cut])
        try:
            loaded = load_capture(path)
        except CaptureError:
            return
        assert_usable(loaded.report)


def mutate_bytes(draw, blob):
    """``blob`` with 1–3 random byte flips, truncations and insertions."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "truncate", "insert"]))
        at = draw(st.integers(0, max(0, len(blob) - 1)))
        if op == "flip" and blob:
            blob[at] ^= draw(st.integers(1, 255))
        elif op == "truncate":
            del blob[at:]
        else:
            blob[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(blob)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_v2_capture_raises_only_capture_error(capture_v2, data):
    """Random damage to ``events.lc``: only ``CaptureError`` escapes,
    and whatever loads carries a usable report."""
    blob = mutate_bytes(data.draw, (capture_v2 / EVENTS_NAME).read_bytes())
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "x.leapscap"
        shutil.copytree(capture_v2, path)
        (path / EVENTS_NAME).write_bytes(blob)
        try:
            loaded = load_capture(path)
        except CaptureError:
            return
        assert_usable(loaded.report)


# -- wire chunks -------------------------------------------------------


def _chunk_stream():
    report = ParseReport()
    events = parse_fast(LINES, policy="drop", report=report)
    return encode_event_stream(events, report, chunk_events=3)


def _report_chunk(doc):
    body = json.dumps(doc).encode("utf-8")
    return (
        CHUNK_MAGIC + bytes([CHUNK_VERSION, CHUNK_REPORT])
        + len(body).to_bytes(4, "big") + body
    )


@st.composite
def chunk_mutations(draw):
    """A valid chunk stream with byte flips, truncations and insertions,
    or with its report chunk replaced by a well-framed chunk whose JSON
    is a mutated report document."""
    chunks = _chunk_stream()
    if draw(st.booleans()):
        doc = json.loads(chunks[-1][CHUNK_HEADER_SIZE:])
        key = draw(st.sampled_from([None, *sorted(doc)]))
        if key is None:
            doc = draw(JSON)
        else:
            doc[key] = draw(JSON)
        return b"".join(chunks[:-1]) + _report_chunk(doc)
    return mutate_bytes(draw, b"".join(chunks))


@settings(max_examples=200, deadline=None)
@given(blob=chunk_mutations())
def test_chunk_decoder_raises_only_chunk_error(blob):
    try:
        _, reports = CaptureChunkDecoder().feed(blob)
    except ChunkError:
        return
    for report in reports:
        assert_usable(report)
