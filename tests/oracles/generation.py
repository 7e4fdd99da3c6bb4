"""The per-event scenario tracer — the oracle for the column
synthesizer behind :func:`repro.datasets.generate_dataset`.

Every event walks through :class:`EventTracer`, one operation pick,
one stack walk and one clock draw at a time, reading the same indexed
Philox word streams that :mod:`repro.datasets.fastgen` reads in bulk.
Session layout, machine, payload delivery, capture metadata and
``labels.json`` come from the production
:class:`~repro.datasets.generation.ScenarioGenerator` and its helpers,
so :func:`generate_dataset_naive` checks event synthesis, text rendering
and capture assembly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.catalog import DatasetSpec
from repro.datasets.fastgen import pick_indices, pick_table, stream_words
from repro.datasets.generation import (
    DEFAULT_SCAN_EVENTS,
    DEFAULT_TRAIN_EVENTS,
    MALICIOUS_ATTACK_RATE,
    MIXED_ATTACK_RATE,
    GeneratedDataset,
    GeneratedLog,
    ScenarioGenerator,
    _capture_source,
    _resolve_spec,
    _write_labels,
)
from repro.etw.capture import CAPTURE_SUFFIX
from repro.etw.events import EventRecord, FrameNode
from repro.etw.parser import serialize_events
from repro.winsys.process import SimulatedProcess
from repro.winsys.syscalls import SYSCALLS

from tests.oracles.capture import write_capture_naive


class EventTracer:
    """ETW-style tracer for one process: sequential eids, a monotonic
    microsecond clock with seeded jitter, and full stack walks."""

    def __init__(self, process: SimulatedProcess, rng):
        self.process = process
        self.rng = rng
        self.next_eid = 0
        self.clock = 0

    def emit(
        self,
        name: str,
        syscall_key: str,
        app_path: Sequence[FrameNode],
        *,
        tid: Optional[int] = None,
    ) -> EventRecord:
        spec = SYSCALLS[syscall_key]
        self.clock += self.rng.randrange(120, 2400)
        event = EventRecord(
            eid=self.next_eid,
            timestamp=self.clock,
            pid=self.process.pid,
            process=self.process.name,
            tid=self.process.main_tid if tid is None else tid,
            category=spec.category,
            opcode=spec.opcode,
            name=name,
            frames=self.process.walk(app_path, spec),
        )
        self.next_eid += 1
        return event


class WordStream:
    """Sequential scalar cursor over one tag's word stream — the
    tracer's side of the shared-draw contract (block-buffered so the
    per-draw cost is one list pop)."""

    __slots__ = ("tag", "_fetched", "_buf", "_chunk")

    def __init__(self, tag: str, chunk: int = 1024):
        self.tag = tag
        self._fetched = 0
        self._chunk = chunk
        self._buf: List[int] = []

    def next_word(self) -> int:
        if not self._buf:
            self._buf = stream_words(
                self.tag, self._fetched, self._fetched + self._chunk
            )[::-1].tolist()
            self._fetched += self._chunk
        return self._buf.pop()


class WordClock:
    """``randrange``-shaped adapter over a word stream, accepted by
    :class:`EventTracer` as its jitter source: the tracer and the column
    synthesizer read the same words."""

    __slots__ = ("_stream",)

    def __init__(self, tag: str):
        self._stream = WordStream(tag)

    def randrange(self, lo: int, hi: int) -> int:
        return lo + self._stream.next_word() % (hi - lo)


def pick_index(cum: np.ndarray, total: float, word: int) -> int:
    """Scalar twin of :func:`pick_indices` (same code path, so equality
    is structural, not coincidental)."""
    return int(pick_indices(cum, total, np.array([word], dtype=np.uint64))[0])


class _BenignPlan:
    """Scalar benign-op emitter reading the same indexed word streams
    the column synthesizer reads in bulk (op picks by steady ordinal,
    call-path picks by benign ordinal — one path word per event,
    multi-path op or not, so the stream stays indexable)."""

    def __init__(self, generator: ScenarioGenerator, log: str, layout):
        app = generator.app
        self.app = app
        self.startup = app.ops_in_phase("startup")
        self.steady = app.ops_in_phase("steady")
        self.shutdown = app.ops_in_phase("shutdown")
        if self.steady:
            self.cum, self.total = pick_table(
                [op.weight for op in self.steady]
            )
        self.n_steady = layout.n_steady
        self.op_stream = WordStream(generator._tag(log, "workload", "op"))
        self.path_stream = WordStream(generator._tag(log, "workload", "path"))

    def emit(self, tracer: EventTracer, ordinal: int) -> EventRecord:
        if ordinal < len(self.startup):
            op = self.startup[ordinal]
        elif ordinal < len(self.startup) + self.n_steady:
            op = self.steady[
                pick_index(self.cum, self.total, self.op_stream.next_word())
            ]
        else:
            op = self.shutdown[ordinal - len(self.startup) - self.n_steady]
        path = op.paths[self.path_stream.next_word() % len(op.paths)]
        app_path = [(self.app.exe, function) for function in path]
        return tracer.emit(op.name, op.syscall, app_path)


class _AttackPlan:
    """Scalar attack-op emitter: setup ops once (by attack ordinal),
    then weighted beacon traffic indexed by beacon ordinal."""

    def __init__(self, generator: ScenarioGenerator, log: str, instance):
        self.instance = instance
        self.setup = instance.build.spec.setup_ops()
        self.beacon = instance.build.spec.beacon_ops()
        if self.beacon:
            self.cum, self.total = pick_table(
                [op.weight for op in self.beacon]
            )
        self.beacon_stream = WordStream(
            generator._tag(log, "attack", "beacon")
        )

    def emit(self, tracer: EventTracer, ordinal: int) -> EventRecord:
        if ordinal < len(self.setup):
            op = self.setup[ordinal]
        else:
            op = self.beacon[
                pick_index(
                    self.cum, self.total, self.beacon_stream.next_word()
                )
            ]
        return tracer.emit(
            op.name, op.syscall, self.instance.app_path(op),
            tid=self.instance.tid,
        )


def trace_benign(
    generator: ScenarioGenerator, n_events: int
) -> List[EventRecord]:
    """The clean trace, event by event."""
    process = generator._spawn()
    layout = generator.benign_layout(n_events)
    tracer = EventTracer(process, WordClock(generator._tag("benign", "clock")))
    plan = _BenignPlan(generator, "benign", layout)
    return [plan.emit(tracer, ordinal) for ordinal in range(layout.n_events)]


def trace_session(
    generator: ScenarioGenerator,
    log: str,
    n_events: int,
    attack_rate: float,
    build_id: str,
) -> Tuple[List[EventRecord], List[int]]:
    """A trojaned/injected session: benign workload with attack bursts
    at ``attack_rate``, payload ``build_id``.  Returns the events and
    the eids of the attack events."""
    process, instance = generator._deliver(build_id)
    layout = generator.session_layout(log, n_events, attack_rate)
    tracer = EventTracer(process, WordClock(generator._tag(log, "clock")))
    benign_plan = _BenignPlan(generator, log, layout)
    attack_plan = _AttackPlan(generator, log, instance)
    events: List[EventRecord] = []
    attack_eids: List[int] = []
    benign_ordinal = 0
    attack_ordinal = 0
    for is_attack in layout.attack_mask().tolist():
        if is_attack:
            event = attack_plan.emit(tracer, attack_ordinal)
            attack_ordinal += 1
            attack_eids.append(event.eid)
        else:
            event = benign_plan.emit(tracer, benign_ordinal)
            benign_ordinal += 1
        events.append(event)
    return events, attack_eids


def write_log(
    path: Path, events: Sequence[EventRecord], chunk_events: int = 2048
) -> None:
    """Serialize to raw-log bytes in bounded chunks — paper-scale logs
    never exist twice in memory (once as events, once as one string)."""
    with open(path, "wb") as handle:
        for start in range(0, len(events), chunk_events):
            chunk = serialize_events(events[start:start + chunk_events])
            handle.write(("\n".join(chunk) + "\n").encode("utf-8"))


def generate_dataset_naive(
    name: Union[str, DatasetSpec],
    dst: Path,
    seed: int = 0,
    *,
    train_events: int = DEFAULT_TRAIN_EVENTS,
    scan_events: int = DEFAULT_SCAN_EVENTS,
    format: str = "text",
) -> GeneratedDataset:
    """:func:`~repro.datasets.generate_dataset` through the per-event
    tracer: same files, same bytes."""
    spec = _resolve_spec(name)
    dst = Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    generator = ScenarioGenerator(spec, seed)
    write_text = format in ("text", "both")
    write_capture = format in ("capture", "both")
    plans = [
        ("benign.log", train_events, 0.0, ""),
        ("mixed.log", train_events, MIXED_ATTACK_RATE, "A"),
        ("malicious.log", scan_events, MALICIOUS_ATTACK_RATE, "B"),
    ]
    logs: Dict[str, GeneratedLog] = {}
    for log_name, n_events, attack_rate, build_id in plans:
        stem = log_name[: -len(".log")]
        log_path = dst / log_name
        capture_path = dst / f"{stem}{CAPTURE_SUFFIX}"
        if build_id:
            events, attack_eids = trace_session(
                generator, stem, n_events, attack_rate, build_id
            )
        else:
            events, attack_eids = trace_benign(generator, n_events), []
        if write_text:
            write_log(log_path, events)
        if write_capture:
            write_capture_naive(
                capture_path,
                events,
                source=_capture_source(spec, seed, log_name),
            )
        logs[log_name] = GeneratedLog(
            path=log_path,
            n_events=len(events),
            attack_eids=tuple(attack_eids),
            build_id=build_id,
            capture_path=capture_path if write_capture else None,
        )
    _write_labels(dst, spec, seed, train_events, scan_events, logs)
    return GeneratedDataset(spec=spec, seed=seed, root=dst, logs=logs)
