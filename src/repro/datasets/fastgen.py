"""Vectorized columnar scenario synthesis — the one scenario emitter.

Tracing event by event (the per-event oracle in
``tests/oracles/generation.py``) costs ~30µs/event: one
``EventRecord``, one stack walk, one RNG draw per event, then a text
serialization pass.  This module synthesizes columns instead: every
distinct *emission* a session can produce — a
(benign operation, call path) pair or a payload operation — is
materialized **once** per session as a row of an
:class:`EmissionTable` (walk tuple, pre-escaped bytes template, opcode,
tid), and a session then becomes a handful of numpy gathers over an
``int64`` emission-type column.

Determinism: counter-based word streams
---------------------------------------
Per-event draws come from **counter-based Philox streams** (shared
with the per-event tracer oracle in ``tests/oracles/generation.py``,
which reads them one word at a time, and pinned by
``tests/generation_digests.json``):

* a stream is named by a role-qualified tag string; its 128-bit Philox
  key is the first 16 bytes of ``SHA-512(tag)`` — the same
  PYTHONHASHSEED-independent string-seed contract the ``random.Random``
  tags used;
* :func:`stream_words` returns words ``[start, stop)`` of the tag's
  infinite uint64 stream by seeking the Philox counter to the
  containing 4-word block;
* each per-event draw is **indexed**, not sequential: clock jitter by
  global event index, steady-state operation picks by steady ordinal,
  call-path picks by benign ordinal, beacon picks by beacon ordinal.

Indexed draws let the synthesizer fetch each role's words in one
vector call while the oracle walks the same words with scalar cursors.

One-shot draws (burst sizes/positions, payload encoding, image layout)
stay on ``random.Random(<tag>)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import AppSpec, Operation
from repro.attacks.infection import AttackInstance
from repro.etw.events import EventColumns, StackFrame, intern_codes
from repro.winsys.process import SimulatedProcess
from repro.winsys.syscalls import SYSCALLS

#: numpy's Philox advances its counter once per 4 generated uint64 words.
WORDS_PER_BLOCK = 4

#: Clock jitter bounds (µs): identical to the tracer's historical
#: ``randrange(120, 2400)``.
CLOCK_JITTER_MIN = 120
CLOCK_JITTER_SPAN = 2280


# -- counter-based word streams ----------------------------------------


def philox_key(tag: str) -> int:
    """128-bit Philox key for a tag string: first 16 bytes of its
    SHA-512 digest (the string-seed contract, PYTHONHASHSEED-free)."""
    return int.from_bytes(
        hashlib.sha512(tag.encode("utf-8")).digest()[:16], "big"
    )


def stream_words(tag: str, start: int, stop: int) -> np.ndarray:
    """Words ``[start, stop)`` of ``tag``'s infinite uint64 stream.

    Seekable: the Philox counter is advanced to the containing 4-word
    block, so the cost is O(stop - start) regardless of ``start``.
    """
    if stop <= start:
        return np.zeros(0, dtype=np.uint64)
    first_block, offset = divmod(start, WORDS_PER_BLOCK)
    n_blocks = -(-(stop - first_block * WORDS_PER_BLOCK) // WORDS_PER_BLOCK)
    bits = np.random.Philox(key=philox_key(tag), counter=first_block)
    raw = bits.random_raw(n_blocks * WORDS_PER_BLOCK)
    return raw[offset:offset + (stop - start)]


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Words → floats in [0, 1) with 53-bit precision (the standard
    ``>> 11`` construction, elementwise so scalar == vector)."""
    return (words >> np.uint64(11)) * (2.0 ** -53)


def jitter_from_words(words: np.ndarray) -> np.ndarray:
    """Per-event clock jitter from stream words (µs)."""
    return (
        CLOCK_JITTER_MIN + (words % np.uint64(CLOCK_JITTER_SPAN))
    ).astype(np.int64)


def pick_table(weights: Sequence[float]) -> Tuple[np.ndarray, float]:
    """Cumulative-weight table for :func:`pick_indices`."""
    cum = np.cumsum(np.asarray(list(weights), dtype=np.float64))
    return cum, float(cum[-1])


def pick_indices(
    cum: np.ndarray, total: float, words: np.ndarray
) -> np.ndarray:
    """Weighted picks from stream words (vector; clamped like
    ``random.choices`` so a unit float rounding up to 1.0 cannot index
    past the table)."""
    idx = np.searchsorted(cum, unit_floats(words) * total, side="right")
    return np.minimum(idx, len(cum) - 1)


# -- burst layout ------------------------------------------------------


@dataclass(frozen=True)
class BurstLayout:
    """Attack-burst placement of one session in global event indices.

    Computed once per session from one-shot ``random.Random`` draws;
    everything downstream — the attack mask, ordinals, labels — derives
    from it by arithmetic.
    """

    n_events: int
    n_startup: int
    n_steady: int
    n_shutdown: int
    #: global start index of each burst, ascending
    starts: np.ndarray
    #: events per burst
    sizes: np.ndarray

    def attack_eids(self) -> np.ndarray:
        """Every attack event's global index, ascending."""
        if not len(self.starts):
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [
                np.arange(start, start + size, dtype=np.int64)
                for start, size in zip(
                    self.starts.tolist(), self.sizes.tolist()
                )
            ]
        )

    def attack_mask(self) -> np.ndarray:
        """Boolean mask over the session: True on attack events."""
        mask = np.zeros(self.n_events, dtype=bool)
        mask[self.attack_eids()] = True
        return mask


def build_burst_layout(
    n_events: int,
    n_startup: int,
    n_steady: int,
    n_shutdown: int,
    burst_sizes: Sequence[int],
    positions: Sequence[int],
) -> BurstLayout:
    """Global burst placement from steady-slot positions.

    Burst *j* sits immediately before steady slot ``positions[j]``
    (position ``n_steady`` means after the last steady event, before
    shutdown), so its global start is ``n_startup + positions[j] +
    sum(sizes[:j])``.
    """
    sizes = np.asarray(list(burst_sizes), dtype=np.int64)
    pos = np.asarray(list(positions), dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(sizes)[:-1]]) if len(sizes) else sizes
    starts = n_startup + pos + cum
    return BurstLayout(
        n_events=n_events,
        n_startup=n_startup,
        n_steady=n_steady,
        n_shutdown=n_shutdown,
        starts=starts,
        sizes=sizes,
    )


# -- emission tables ---------------------------------------------------


def _escape_template(text: str) -> str:
    return text.replace("%", "%%")


@dataclass
class EmissionTable:
    """Every distinct event a session can emit, pre-materialized.

    Row identity: benign rows first — one per (operation, call path),
    operations in ``startup + steady + shutdown`` declaration order —
    then one row per payload op (spec declaration order).  ``templates``
    render one event's full text block (EVENT line + STACK lines, each
    ``\\n``-terminated) via ``template % ((eid, ts) + (eid,) * arity)``
    — as UTF-8 **bytes** templates, so ``%`` substitutes ASCII digits
    directly into encoded bytes and the rendered log never exists as a
    Python ``str``.
    """

    process: str
    pid: int
    names: List[str]
    categories: List[str]
    opcodes: np.ndarray
    tids: np.ndarray
    walks: List[Tuple[StackFrame, ...]]
    templates: List[bytes]
    arities: np.ndarray
    # benign plan metadata (indices into the unified benign op list)
    startup_ops: np.ndarray
    shutdown_ops: np.ndarray
    steady_ops: np.ndarray
    steady_cum: np.ndarray
    steady_total: float
    op_base: np.ndarray
    op_npaths: np.ndarray
    # attack metadata (empty arrays when the session carries no payload)
    setup_types: np.ndarray
    beacon_types: np.ndarray
    beacon_cum: np.ndarray
    beacon_total: float


def _row_template(
    pid: int,
    process: str,
    tid: int,
    category: str,
    opcode: int,
    name: str,
    walk: Tuple[StackFrame, ...],
) -> bytes:
    parts = [
        "EVENT|%d|%d|"
        + _escape_template(
            f"{pid}|{process}|{tid}|{category}|{opcode}|{name}"
        )
        + "\n"
    ]
    for frame in walk:
        parts.append(
            "STACK|%d|"
            + _escape_template(
                f"{frame.index}|{frame.module}|{frame.function}|"
                f"0x{frame.address:x}"
            )
            + "\n"
        )
    return "".join(parts).encode("utf-8")


def build_emission_table(
    process: SimulatedProcess,
    app: AppSpec,
    instance: Optional[AttackInstance] = None,
) -> EmissionTable:
    """Materialize every emission row of one session.

    Walks are resolved through the live (possibly trojaned/injected)
    process exactly as the per-event oracle resolves them, but once per
    row instead of once per event.
    """
    names: List[str] = []
    categories: List[str] = []
    opcodes: List[int] = []
    tids: List[int] = []
    walks: List[Tuple[StackFrame, ...]] = []
    templates: List[bytes] = []

    def add_row(
        name: str, syscall_key: str, app_path, tid: Optional[int]
    ) -> int:
        spec = SYSCALLS[syscall_key]
        walk = process.walk(app_path, spec)
        row_tid = process.main_tid if tid is None else tid
        names.append(name)
        categories.append(spec.category)
        opcodes.append(spec.opcode)
        tids.append(row_tid)
        walks.append(walk)
        templates.append(
            _row_template(
                process.pid,
                process.name,
                row_tid,
                spec.category,
                spec.opcode,
                name,
                walk,
            )
        )
        return len(names) - 1

    startup = app.ops_in_phase("startup")
    steady = app.ops_in_phase("steady")
    shutdown = app.ops_in_phase("shutdown")
    benign_ops: List[Operation] = [*startup, *steady, *shutdown]
    op_base: List[int] = []
    op_npaths: List[int] = []
    for op in benign_ops:
        op_base.append(len(names))
        op_npaths.append(len(op.paths))
        for path in op.paths:
            add_row(
                op.name,
                op.syscall,
                [(app.exe, function) for function in path],
                None,
            )

    setup_types: List[int] = []
    beacon_types: List[int] = []
    beacon_weights: List[float] = []
    if instance is not None:
        for op in instance.build.spec.setup_ops():
            setup_types.append(
                add_row(op.name, op.syscall, instance.app_path(op), instance.tid)
            )
        for op in instance.build.spec.beacon_ops():
            beacon_types.append(
                add_row(op.name, op.syscall, instance.app_path(op), instance.tid)
            )
            beacon_weights.append(op.weight)

    n_startup = len(startup)
    n_steady_ops = len(steady)
    steady_cum, steady_total = pick_table(
        [op.weight for op in steady]
    ) if steady else (np.zeros(0), 0.0)
    beacon_cum, beacon_total = pick_table(beacon_weights) if (
        beacon_weights
    ) else (np.zeros(0), 0.0)
    return EmissionTable(
        process=process.name,
        pid=process.pid,
        names=names,
        categories=categories,
        opcodes=np.asarray(opcodes, dtype=np.int64),
        tids=np.asarray(tids, dtype=np.int64),
        walks=walks,
        templates=templates,
        arities=np.asarray([len(walk) for walk in walks], dtype=np.int64),
        startup_ops=np.arange(n_startup, dtype=np.int64),
        shutdown_ops=np.arange(
            n_startup + n_steady_ops, len(benign_ops), dtype=np.int64
        ),
        steady_ops=np.arange(
            n_startup, n_startup + n_steady_ops, dtype=np.int64
        ),
        steady_cum=steady_cum,
        steady_total=steady_total,
        op_base=np.asarray(op_base, dtype=np.int64),
        op_npaths=np.asarray(op_npaths, dtype=np.int64),
        setup_types=np.asarray(setup_types, dtype=np.int64),
        beacon_types=np.asarray(beacon_types, dtype=np.int64),
        beacon_cum=beacon_cum,
        beacon_total=beacon_total,
    )


# -- session synthesis -------------------------------------------------


@dataclass
class SessionSynth:
    """One session's deterministic column synthesizer."""

    table: EmissionTable
    layout: BurstLayout
    clock_tag: str
    op_tag: str
    path_tag: str
    beacon_tag: str

    @property
    def n_events(self) -> int:
        return self.layout.n_events

    def type_ids(self) -> np.ndarray:
        """Emission-type id of every event."""
        table, layout = self.table, self.layout
        out = np.empty(layout.n_events, dtype=np.int64)
        attack = layout.attack_mask()
        benign_pos = np.flatnonzero(~attack)
        attack_pos = np.flatnonzero(attack)

        # Benign events in ordinal order: the scripted startup ops, one
        # weighted pick per steady slot, the scripted shutdown ops.
        steady_words = stream_words(self.op_tag, 0, layout.n_steady)
        op_idx = np.concatenate([
            table.startup_ops,
            table.steady_ops[
                pick_indices(table.steady_cum, table.steady_total, steady_words)
            ],
            table.shutdown_ops,
        ])
        # One path word per benign event, multi-path or not, so the
        # path stream stays indexable by benign ordinal.
        path_words = stream_words(self.path_tag, 0, len(benign_pos))
        path_idx = (
            path_words % table.op_npaths[op_idx].astype(np.uint64)
        ).astype(np.int64)
        out[benign_pos] = table.op_base[op_idx] + path_idx

        # Attack events in ordinal order: the setup ops, then one
        # weighted beacon pick per remaining attack event.
        n_setup = min(len(table.setup_types), len(attack_pos))
        beacon_words = stream_words(
            self.beacon_tag, 0, len(attack_pos) - n_setup
        )
        out[attack_pos] = np.concatenate([
            table.setup_types[:n_setup],
            table.beacon_types[
                pick_indices(table.beacon_cum, table.beacon_total, beacon_words)
            ],
        ])
        return out

    def timestamps(self) -> np.ndarray:
        """Event timestamps (µs): the running sum of per-event jitter."""
        return np.cumsum(
            jitter_from_words(stream_words(self.clock_tag, 0, self.n_events))
        )

    def synthesize(self) -> "SessionColumns":
        return SessionColumns(
            type_ids=self.type_ids(), timestamps=self.timestamps()
        )


@dataclass
class SessionColumns:
    """Synthesized per-event columns of one session."""

    type_ids: np.ndarray
    timestamps: np.ndarray


# -- sinks: text rendering and event columns ---------------------------


def render_text(
    templates: Sequence[bytes],
    arities: Sequence[int],
    type_ids: np.ndarray,
    timestamps: np.ndarray,
    start_eid: int,
) -> bytes:
    """Render a run of events to raw-log bytes — byte-identical to
    ``serialize_events`` over the equivalent ``EventRecord`` list.
    Templates are UTF-8 bytes: ``bytes.__mod__`` substitutes the ints
    as ASCII digits, so nothing is re-encoded afterwards."""
    parts: List[bytes] = []
    append = parts.append
    arity_list = [int(a) for a in arities]
    for offset, (type_id, timestamp) in enumerate(
        zip(type_ids.tolist(), timestamps.tolist())
    ):
        eid = start_eid + offset
        append(
            templates[type_id]
            % ((eid, timestamp) + (eid,) * arity_list[type_id])
        )
    return b"".join(parts)


def to_event_columns(
    table: EmissionTable,
    type_ids: np.ndarray,
    timestamps: np.ndarray,
) -> EventColumns:
    """Assemble an :class:`EventColumns` for the capture writer.

    Vocabularies and the distinct-walk list follow first-appearance
    order over the events (the writer's invariant); since every event
    of one emission type is identical up to eid/timestamp, first
    appearance over events equals first appearance over emission types
    ordered by their first event.  Walks dedupe by value.
    """
    n = len(type_ids)
    uniq, first = np.unique(type_ids, return_index=True)
    order = uniq[np.argsort(first)]
    cols = EventColumns.__new__(EventColumns)  # every slot is set below
    cols.n_events = n
    cols.eid = np.arange(n, dtype=np.int64)
    cols.timestamp = np.asarray(timestamps, dtype=np.int64)
    cols.pid = np.full(n, table.pid, dtype=np.int64)
    cols.tid = table.tids[type_ids]
    cols.opcode = table.opcodes[type_ids]
    cols.process_id = np.zeros(n, dtype=np.int64)
    cols.process_vocab = [table.process]
    for id_column, table_slot, values in (
        ("category_id", "category_vocab", table.categories),
        ("name_id", "name_vocab", table.names),
        ("walk_id", "walks", table.walks),
    ):
        entries: list = []
        codes = np.zeros(len(values), dtype=np.int64)
        codes[order] = intern_codes(
            {}, entries, [values[type_id] for type_id in order.tolist()]
        )
        setattr(cols, id_column, codes[type_ids])
        setattr(cols, table_slot, entries)
    return cols
