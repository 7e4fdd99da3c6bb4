"""The four workloads: set-up, timed phase and output checks.

Every workload follows the same shape (see :func:`run_workload`):
set up ``SETUP_REPEATS`` times afresh (corpus generation into the
checkout, detector training or loading, server start, one warm-up op)
keeping the last set-up, then run timed ops for the requested seconds.
Between ops, outside the timed region, each op's output is checked
against its reference, dropped, and garbage is collected.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import selectors
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import LeapsConfig
from repro.etw.capture import load_capture
from repro.etw.fastparse import parse_fast
from repro.etw.parser import frame_intern_stats, read_log_lines
from repro.serve.columnar import ChunkEncoder
from repro.serve.protocol import (
    FRAME_DATA,
    FRAME_DATA_COLUMNAR,
    FRAME_DETECTIONS,
    FRAME_END,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_RESULT,
    HEADER_SIZE,
    decode_json,
    pack_frame,
    pack_json,
    parse_header,
    request_status,
)

import layers
from harness import (
    HostSpeed,
    HostWatch,
    Tracer,
    detection_rows,
    drop_garbage,
    event_auc,
    median,
    peak_rss_mb,
    host_slowness,
    quantile,
    settle_after_setup,
    tail_latency,
    window_matches,
)

WORKLOADS = ("train", "scan_text", "scan_capture", "serve")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: offered event rate of the serve workload (events/s over both
#: connections), chosen so the one-shard server is about half busy;
#: BENCHMARK.json's ``serve`` workload states the same number
SERVE_RATE = 28000
#: connections open at once (= lanes), each carrying streams back to back
SERVE_LANES = 2
#: idle gap between two streams of one lane, long enough for the
#: previous stream's RESULT to arrive before the next stream is due
SERVE_STREAM_GAP_S = 0.12
#: a serve run whose generator ran later than this at p99 is invalid
SERVE_MAX_GEN_LAG_S = 0.02


@dataclass(frozen=True)
class Scale:
    """Input sizes (events per log)."""

    #: benign and mixed training logs of the ``train`` workload
    train_events: int
    #: held-out clean and infected logs of the ``train`` workload
    heldout_events: int
    #: benign and mixed training logs of the scan/serve detectors
    detector_events: int
    #: long and short fleet logs of the scan workloads
    long_events: int
    short_events: int
    #: one serve stream
    stream_events: int
    #: events per serve slice (one paced send)
    slice_events: int
    serve_rate: float


FULL = Scale(
    train_events=2500,
    heldout_events=2000,
    detector_events=1000,
    long_events=8000,
    short_events=600,
    stream_events=6000,
    slice_events=250,
    serve_rate=SERVE_RATE,
)

#: tiny inputs for the harness's own tests
QUICK = Scale(
    train_events=300,
    heldout_events=200,
    detector_events=300,
    long_events=400,
    short_events=120,
    stream_events=300,
    slice_events=50,
    serve_rate=4000,
)


# -- bookkeeping -------------------------------------------------------
@dataclass
class Phase:
    """What one timed phase measured.  Serial phases hold times
    normalized to the reference host speed (see ``HostSpeed``)."""

    latencies: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    events: int = 0
    attempted: int = 0
    failed: int = 0
    #: seconds the phase lasted (sum of op latencies for serial ops)
    wall_s: float = 0.0
    #: the same before normalization, and the mean host slowness
    raw_wall_s: float = 0.0
    slowness: float = 1.0

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s


@dataclass
class Quality:
    """Detection quality against labels.json, one entry per log."""

    correct: int = 0
    total: int = 0
    aucs: List[float] = field(default_factory=list)
    seen: set = field(default_factory=set)

    def add(self, key, rows, log: layers.LogFile) -> None:
        if key in self.seen:
            return
        self.seen.add(key)
        correct, total = window_matches(rows, log.attack_eids)
        self.correct += correct
        self.total += total
        if log.infected:
            auc = event_auc(rows, log.attack_eids, log.n_events)
            if auc is not None:
                self.aucs.append(auc)

    def values(self) -> dict:
        if not self.total or not self.aucs:
            raise RuntimeError("no scored windows to judge detection quality")
        return {
            "window_acc": self.correct / self.total,
            "event_auc": sum(self.aucs) / len(self.aucs),
        }


class TrainedSizes:
    """CFG and weight statistics of the detectors trained in a run."""

    def __init__(self):
        self.nodes: List[int] = []
        self.edges: List[int] = []
        self.distinct_paths: Dict[Path, float] = {}

    def add(self, detector, mixed: Path) -> None:
        cfg = detector.pipeline.benign_cfg
        self.nodes.append(cfg.node_count)
        self.edges.append(cfg.edge_count)
        if mixed not in self.distinct_paths:
            self.distinct_paths[mixed] = layers.distinct_paths_per_event(
                detector, mixed
            )


class Workload:
    """Set-up state plus the op sequence of one workload."""

    #: serial ops (train, scan) or the open-loop load generator (serve)
    serial = True

    def __init__(self, scale: Scale, seed: int, work: Path, tracer: Tracer,
                 decomposed: bool):
        self.scale = scale
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.decomposed = decomposed
        self.config = LeapsConfig()
        self.quality = Quality()
        self.sizes = TrainedSizes()

    def train(self, benign: Path, mixed: Path, *, trace: bool):
        if trace:
            return layers.fit_decomposed(self.tracer, self.config, benign,
                                         mixed)
        return layers.fit(self.config, benign, mixed)

    def scan(self, detector, path: Path, capture: bool, *, trace: bool):
        if trace:
            return layers.scan_decomposed(self.tracer, detector, path,
                                          capture)
        return layers.scan(detector, path)

    def train_setup(self, benign: Path, mixed: Path):
        """A set-up training (decomposed and sized in a traced run)."""
        detector = self.train(benign, mixed, trace=self.decomposed)
        if self.decomposed:
            self.sizes.add(detector, mixed)
        return detector

    def close(self) -> None:
        pass


# -- train -------------------------------------------------------------
@dataclass
class _TrainApp:
    name: str
    benign: layers.LogFile
    mixed: layers.LogFile
    clean: layers.LogFile
    infected: layers.LogFile


class TrainWorkload(Workload):
    """Each op trains one detector with ``fit_logs`` at the default
    config, cycling over two datasets of one catalog row per app."""

    def setup(self) -> None:
        scale, tracer = self.scale, self.tracer
        self.apps: List[_TrainApp] = []
        for app, row in layers.APP_ROWS:
            heldout = layers.generate(
                tracer, row, self.work / app / "heldout", self.seed * 10,
                train_events=scale.heldout_events,
                scan_events=scale.short_events, fmt="text",
            )
            # SMO's work differs from dataset to dataset; two per app
            # keep one seed's draw from setting the run's median
            for k in (1, 2):
                train = layers.generate(
                    tracer, row, self.work / app / f"train{k}",
                    self.seed * 10 + k,
                    train_events=scale.train_events,
                    scan_events=scale.heldout_events,
                )
                self.apps.append(_TrainApp(
                    f"{app}/{k}", train["benign.log"], train["mixed.log"],
                    heldout["benign.log"], train["malicious.log"],
                ))
        self.references: Dict[str, str] = {}
        # warm-up: parse every training log once (as a long-lived
        # trainer's frame-intern table would be), then the first app's
        # fit, shipped through a bundle and scored on the held-out logs
        for app in self.apps:
            for log in (app.benign, app.mixed):
                parse_fast(read_log_lines(log.text))
        first = self.apps[0]
        detector = self.train_setup(first.benign.text, first.mixed.text)
        loaded, _ = layers.save_load(tracer, detector,
                                     self.work / first.name / "bundle")
        if not self._score_heldout(first, loaded, trace=self.decomposed):
            raise RuntimeError("warm-up fit: held-out text and capture "
                               "scans disagree")
        self.references[first.name] = layers.fingerprint(detector)

    def ops(self):
        return itertools.cycle(self.apps)

    def events(self, app: _TrainApp) -> int:
        return app.benign.n_events + app.mixed.n_events

    def run_op(self, app: _TrainApp, traced: bool):
        return self.train(app.benign.text, app.mixed.text, trace=traced)

    def check(self, app: _TrainApp, detector, traced: bool) -> bool:
        fingerprint = layers.fingerprint(detector)
        if traced:
            self.sizes.add(detector, app.mixed.text)
        if app.name not in self.references:
            # a traced fit is checked against an untraced one
            reference = detector
            if traced:
                reference = layers.fit(self.config, app.benign.text,
                                       app.mixed.text)
            self.references[app.name] = layers.fingerprint(reference)
            if not self._score_heldout(app, reference, trace=False):
                return False
        return fingerprint == self.references[app.name]

    def _score_heldout(self, app: _TrainApp, detector, *,
                       trace: bool) -> bool:
        """Score the held-out clean log and the infected log (the latter
        in both forms, which must agree) into the quality tally."""
        def scan(path, capture):
            return detection_rows(self.scan(detector, path, capture,
                                            trace=trace))
        clean = scan(app.clean.text, False)
        infected = scan(app.infected.capture, True)
        infected_text = scan(app.infected.text, False)
        self.quality.add((app.name, "clean"), clean, app.clean)
        self.quality.add((app.name, "infected"), infected, app.infected)
        return infected == infected_text


# -- scan_text / scan_capture -----------------------------------------
class ScanWorkload(Workload):
    """Each op is one serial ``scan_logs([log])`` over a fleet that
    mixes apps, clean and infected machines, and short and long logs;
    every log is scanned by its own app's bundle-loaded detector."""

    def __init__(self, *args, capture: bool, **kwargs):
        super().__init__(*args, **kwargs)
        self.capture = capture

    def setup(self) -> None:
        scale, tracer = self.scale, self.tracer
        self.detectors = {}
        fleet: List[layers.LogFile] = []
        for app, row in layers.APP_ROWS:
            root = self.work / app
            train = layers.generate(
                tracer, row, root / "train", self.seed * 10,
                train_events=scale.detector_events,
                scan_events=scale.short_events,
            )
            long = layers.generate(
                tracer, row, root / "long", self.seed * 10 + 1,
                train_events=scale.long_events, scan_events=scale.long_events,
            )
            short = layers.generate(
                tracer, row, root / "short", self.seed * 10 + 2,
                train_events=scale.short_events,
                scan_events=scale.short_events,
            )
            detector = self.train_setup(train["benign.log"].text,
                                        train["mixed.log"].text)
            self.detectors[app], _ = layers.save_load(
                tracer, detector, root / "bundle"
            )
            fleet += [long["benign.log"], long["malicious.log"],
                      short["benign.log"], short["malicious.log"],
                      train["malicious.log"]]
        random.Random(f"perfbench-fleet:{self.seed}").shuffle(fleet)
        self.fleet = fleet
        # the reference for each log is the scan of its other form
        self.references = {}
        for log in fleet:
            other = not self.capture
            self.references[log.text] = detection_rows(self.scan(
                self.detectors[log.app], self._path(log, other), other,
                trace=self.decomposed,
            ))
        warm = self.run_op(fleet[0], self.decomposed)
        if not self.check(fleet[0], warm, self.decomposed):
            raise RuntimeError("warm-up scan disagrees with its reference")

    @staticmethod
    def _path(log: layers.LogFile, capture: bool) -> Path:
        return log.capture if capture else log.text

    def ops(self):
        return itertools.cycle(self.fleet)

    def events(self, log: layers.LogFile) -> int:
        return log.n_events

    def run_op(self, log: layers.LogFile, traced: bool):
        return self.scan(self.detectors[log.app],
                         self._path(log, self.capture), self.capture,
                         trace=traced)

    def check(self, log: layers.LogFile, detections, traced: bool) -> bool:
        rows = detection_rows(detections)
        self.quality.add(log.text, rows, log)
        return rows == self.references[log.text]


# -- serve -------------------------------------------------------------
@dataclass
class _StreamLog:
    log: layers.LogFile
    reference: List[tuple]
    #: per mode: one bytes payload per slice (frames ready to send)
    slices: Dict[str, List[bytes]]
    #: eid of the last event in each slice (same in both modes)
    slice_last_eid: List[int]


@dataclass
class _Stream:
    source: _StreamLog
    mode: str
    stream_id: str
    start_due: float
    #: seconds between two slices' due times (0 = send at once)
    period: float = 0.0
    received: List[tuple] = field(default_factory=list)  # (t, payload)
    result: Optional[dict] = None
    error: Optional[dict] = None
    connect_s: float = 0.0
    sent_bytes: int = 0
    #: when END went out and when the terminal frame came back
    end_sent: float = 0.0
    done: float = 0.0


class _Lane:
    """One connection slot: carries streams back to back."""

    def __init__(self):
        self.sock: Optional[socket.socket] = None
        self.stream: Optional[_Stream] = None
        self.next_slice = 0
        self.ended = False
        self.out = bytearray()
        self.inbuf = bytearray()


class ServeWorkload(Workload):
    """An open loop at :data:`SERVE_RATE` events/s against a one-shard
    ``repro.serve`` server in its own process.  Each op is one window's
    detection delivered; its latency runs from when the slice carrying
    the window's last event was due until the detection arrived."""

    serial = False

    def setup(self) -> None:
        scale, tracer = self.scale, self.tracer
        bundles = {}
        self.pool: List[_StreamLog] = []
        logs = []
        detectors = {}
        for app, row in layers.APP_ROWS:
            root = self.work / app
            train = layers.generate(
                tracer, row, root / "train", self.seed * 10,
                train_events=scale.detector_events,
                scan_events=scale.short_events,
            )
            streams = layers.generate(
                tracer, row, root / "streams", self.seed * 10 + 1,
                train_events=scale.stream_events,
                scan_events=scale.stream_events,
            )
            detector = self.train_setup(train["benign.log"].text,
                                        train["mixed.log"].text)
            detectors[app], _ = layers.save_load(tracer, detector,
                                                 root / "bundle")
            bundles[app] = str(root / "bundle")
            logs += [streams["benign.log"], streams["malicious.log"]]
        random.Random(f"perfbench-streams:{self.seed}").shuffle(logs)
        for log in logs:
            detector = detectors[log.app]
            reference = detection_rows(
                detector.scan_stream(read_log_lines(log.text))
            )
            if self.decomposed:
                for capture in (False, True):
                    path = log.capture if capture else log.text
                    rows = detection_rows(layers.scan_decomposed(
                        tracer, detector, path, capture
                    ))
                    if rows != reference:
                        raise RuntimeError(
                            f"{path}: batch scan disagrees with scan_stream"
                        )
            self.pool.append(self._slice(log, reference))
        self._start_server(bundles)
        warm = _Stream(self.pool[0], "text", "warmup", 0.0)
        self._drive([[warm]], paced=False)
        if self._stream_failures(warm):
            raise RuntimeError(f"warm-up stream failed: {warm.error}")

    def _slice(self, log: layers.LogFile, reference) -> _StreamLog:
        step = self.scale.slice_events
        data = log.text.read_bytes()
        offsets, eids = [], []
        position = 0
        for line in data.split(b"\n"):
            if line.startswith(b"EVENT|"):
                offsets.append(position)
                eids.append(int(line.split(b"|", 2)[1]))
            position += len(line) + 1
        offsets.append(len(data))
        starts = list(range(0, len(eids), step))
        text = [
            pack_frame(FRAME_DATA, data[offsets[a]:offsets[min(a + step,
                                                                len(eids))]])
            for a in starts
        ]
        capture = load_capture(log.capture)
        events = list(capture.events)
        if [event.eid for event in events] != eids:
            raise RuntimeError(f"{log.capture}: events differ from {log.text}")
        encoder = ChunkEncoder()
        columnar = [
            pack_frame(FRAME_DATA_COLUMNAR,
                       encoder.encode_events(events[a:a + step]))
            for a in starts
        ]
        if capture.report is not None:
            columnar[-1] += pack_frame(FRAME_DATA_COLUMNAR,
                                       encoder.encode_report(capture.report))
        return _StreamLog(
            log=log,
            reference=reference,
            slices={"text": text, "columnar": columnar},
            slice_last_eid=[eids[min(a + step, len(eids)) - 1]
                            for a in starts],
        )

    # -- the server process --------------------------------------------
    def _start_server(self, bundles: Dict[str, str]) -> None:
        script = Path(__file__).resolve().parent / "server.py"
        src = Path(__file__).resolve().parent.parent / "src"
        self.server = subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.server.stdin.write(json.dumps(
            {"src": str(src), "bundles": bundles}
        ) + "\n")
        self.server.stdin.flush()
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("serve process exited during start-up")
        self.address = tuple(json.loads(line)["address"])

    def usage(self) -> dict:
        self.server.stdin.write("usage\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            server.stdin.write("stop\n")
            server.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        self.server = None

    # -- the open-loop load generator ----------------------------------
    def schedule(self, seconds: float, start: float) -> List[List[_Stream]]:
        """Per lane, the streams that start before ``start + seconds``,
        back to back.  A stream of n events occupies n / (rate / lanes)
        seconds of its lane: its slices are spread evenly over that time
        less :data:`SERVE_STREAM_GAP_S`, so the offered rate including
        the gaps is exactly the stated rate.  Wire modes alternate along
        each lane."""
        lane_rate = self.scale.serve_rate / SERVE_LANES
        # lanes are offset by half a stream so their gaps do not line up
        offset = self.scale.stream_events / lane_rate / SERVE_LANES
        lanes = []
        for lane in range(SERVE_LANES):
            due = start + lane * offset
            streams = []
            for count in itertools.count():
                if due >= start + seconds:
                    break
                index = count * SERVE_LANES + lane
                source = self.pool[index % len(self.pool)]
                mode = ("text", "columnar")[(count + lane) % 2]
                span = source.log.n_events / lane_rate
                period = (span - SERVE_STREAM_GAP_S) / len(source.slices[mode])
                if period <= 0:
                    raise ValueError("serve streams too short for the gap")
                streams.append(_Stream(source, mode, f"s{index}", due, period))
                due += span
            lanes.append(streams)
        return lanes

    def _drive(self, lanes_streams: List[List[_Stream]], paced: bool = True):
        """Send every stream on its lane, slices at their due times
        (immediately when not ``paced``); returns the generator
        lateness of each slice."""
        selector = selectors.DefaultSelector()
        queues = [list(reversed(streams)) for streams in lanes_streams]
        lanes = [_Lane() for _ in lanes_streams]
        lags: List[float] = []
        deadline = time.perf_counter() + 120.0
        active = sum(len(q) for q in queues)

        def close(lane: _Lane) -> None:
            selector.unregister(lane.sock)
            lane.sock.close()
            lane.sock, lane.stream = None, None

        while active:
            now = time.perf_counter()
            if now > deadline:
                raise TimeoutError("serve streams did not finish")
            wake = now + 0.05
            for lane, queue in zip(lanes, queues):
                if lane.stream is None and queue:
                    stream = queue[-1]
                    if paced and stream.start_due > now:
                        wake = min(wake, stream.start_due)
                        continue
                    queue.pop()
                    started = time.perf_counter()
                    lane.sock = socket.create_connection(self.address)
                    stream.connect_s = time.perf_counter() - started
                    lane.sock.setblocking(False)
                    selector.register(lane.sock, selectors.EVENT_READ, lane)
                    lane.stream, lane.next_slice, lane.ended = stream, 0, False
                    lane.out += pack_json(FRAME_HELLO, {
                        "stream_id": stream.stream_id,
                        "app": stream.source.log.app,
                    })
                stream = lane.stream
                if stream is None or lane.ended:
                    continue
                slices = stream.source.slices[stream.mode]
                while lane.next_slice < len(slices):
                    due = stream.start_due + lane.next_slice * stream.period
                    if paced and due > now:
                        wake = min(wake, due)
                        break
                    if paced:
                        lags.append(now - due)
                    lane.out += slices[lane.next_slice]
                    stream.sent_bytes += len(slices[lane.next_slice])
                    lane.next_slice += 1
                if lane.next_slice == len(slices):
                    lane.out += pack_frame(FRAME_END)
                    lane.ended = True
                    stream.end_sent = now
            for lane in lanes:
                if lane.sock is not None and lane.out:
                    try:
                        sent = lane.sock.send(lane.out)
                    except BlockingIOError:
                        sent = 0
                    del lane.out[:sent]
                    if lane.out:
                        wake = now  # poll again soon: the socket is full
            timeout = max(0.0, min(wake - time.perf_counter(), 0.05))
            for key, _ in selector.select(timeout if timeout > 0 else 0.0005):
                lane = key.data
                try:
                    data = lane.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                arrived = time.perf_counter()
                stream = lane.stream
                if not data:
                    stream.error = stream.error or {"error": "server closed"}
                else:
                    lane.inbuf += data
                while stream.error is None and len(lane.inbuf) >= HEADER_SIZE:
                    length, frame_type = parse_header(
                        bytes(lane.inbuf[:HEADER_SIZE])
                    )
                    if len(lane.inbuf) < HEADER_SIZE + length:
                        break
                    payload = bytes(lane.inbuf[HEADER_SIZE:HEADER_SIZE
                                               + length])
                    del lane.inbuf[:HEADER_SIZE + length]
                    if frame_type == FRAME_DETECTIONS:
                        stream.received.append((arrived, payload))
                    elif frame_type == FRAME_RESULT:
                        stream.result = decode_json(payload)
                    elif frame_type == FRAME_ERROR:
                        stream.error = decode_json(payload)
                if stream.result is not None or stream.error is not None:
                    stream.done = arrived
                    lane.inbuf.clear()
                    lane.out.clear()
                    close(lane)
                    active -= 1
        selector.close()
        return lags

    @staticmethod
    def _rows(stream: _Stream) -> List[tuple]:
        return [
            tuple(row)
            for _, payload in stream.received
            for row in decode_json(payload)["detections"]
        ]

    def _stream_failures(self, stream: _Stream) -> int:
        """Reference windows this stream did not deliver bit for bit."""
        reference = stream.source.reference
        if stream.error is not None:
            return len(reference)
        rows = self._rows(stream)
        matched = sum(1 for a, b in zip(rows, reference) if a == b)
        return len(reference) - matched + max(0, len(rows) - len(reference))

    def run_phase(self, seconds: float, start_delay: float = 0.1) -> dict:
        """One timed open-loop phase; returns the phase, generator lags
        and the per-stream record."""
        status_before = request_status(self.address)
        usage_before = self.usage()
        start = time.perf_counter() + start_delay
        lanes = self.schedule(seconds, start)
        lags = self._drive(lanes)
        finished = time.perf_counter()
        usage_after = self.usage()
        status_after = request_status(self.address)
        # serve figures stay raw: latency holds fixed wall time (slice
        # schedule, flush deadline), and a client-side calibration
        # tracked the server's CPU time worse than none
        phase = Phase()
        streams = [s for lane in lanes for s in lane]
        by_mode: Dict[str, List[float]] = {"text": [], "columnar": []}
        for stream in streams:
            source = stream.source
            phase.events += source.log.n_events
            phase.attempted += len(source.reference)
            phase.failed += self._stream_failures(stream)
            self.quality.add(source.log.text, self._rows(stream), source.log)
            for arrived, payload in stream.received:
                for row in decode_json(payload)["detections"]:
                    slot = bisect.bisect_left(source.slice_last_eid, row[2])
                    due = stream.start_due + slot * stream.period
                    phase.latencies.append(arrived - due)
                    by_mode[stream.mode].append(arrived - due)
        phase.wall_s = phase.raw_wall_s = finished - start
        phase.cpu_s = usage_after["cpu_s"] - usage_before["cpu_s"]
        return {
            "phase": phase,
            "lags": lags,
            "streams": streams,
            "by_mode": by_mode,
            "status": (status_before, status_after),
            "maxrss_mb": usage_after["maxrss_mb"],
        }


def make_workload(name: str, scale: Scale, seed: int, work: Path,
                  tracer: Tracer, decomposed: bool) -> Workload:
    args = (scale, seed, work, tracer, decomposed)
    if name == "train":
        return TrainWorkload(*args)
    if name in ("scan_text", "scan_capture"):
        return ScanWorkload(*args, capture=name == "scan_capture")
    if name == "serve":
        return ServeWorkload(*args)
    raise ValueError(f"unknown workload {name!r}")


# -- phases ------------------------------------------------------------
def serial_phase(workload: Workload, seconds: float, traced: bool) -> Phase:
    """Run ops until their summed latency reaches ``seconds``."""
    phase = Phase()
    ops = workload.ops()
    tracer = workload.tracer
    speed = HostSpeed()
    latencies, cpus = [], []
    give_up = time.perf_counter() + 4 * seconds + 60
    while phase.raw_wall_s < seconds and time.perf_counter() < give_up:
        item = next(ops)
        cpu_start = time.process_time()
        started = time.perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    output = workload.run_op(item, traced=True)
            else:
                output = workload.run_op(item, traced=False)
            error = None
        except Exception as exc:  # an op that raises counts as failed
            output, error = None, exc
        elapsed = time.perf_counter() - started
        cpus.append(time.process_time() - cpu_start)
        latencies.append(elapsed)
        phase.raw_wall_s += elapsed
        phase.events += workload.events(item)
        phase.attempted += 1
        if error is not None:
            print(f"op failed: {error!r}", file=sys.stderr)
            phase.failed += 1
        elif not workload.check(item, output, traced):
            phase.failed += 1
        del output
        drop_garbage()
        speed.tick(elapsed)
    factors = speed.factors()
    phase.latencies = [lat / f for lat, f in zip(latencies, factors)]
    phase.cpu_s = sum(cpu / f for cpu, f in zip(cpus, factors))
    phase.wall_s = sum(phase.latencies)
    phase.slowness = sum(factors) / len(factors)
    return phase


def end_to_end_values(setup_times, phase: Phase, quality: Quality,
                      rss_mb: float) -> dict:
    values = {
        "setup_s": median(setup_times),
        "events_per_s": phase.events_per_s,
        "cpu_us_per_event": phase.cpu_s / phase.events * 1e6,
        "latency_p50_s": median(phase.latencies),
        "peak_rss_mb": rss_mb,
    }
    tail = tail_latency(phase.latencies)
    if tail is not None:
        values["latency_tail_s"] = tail[0]
    values.update(quality.values())
    return values


def tail_record(latencies) -> Optional[dict]:
    tail = tail_latency(latencies)
    if tail is None:
        return None
    return {"percentile": round(tail[1], 3), "samples": tail[2]}


def layer_values(tracer: Tracer, sizes: TrainedSizes) -> dict:
    """Per-layer metrics from the spans of a traced run: mean self time
    per call of each layer's public function, plus its counts."""
    self_s = tracer.self_seconds()

    def mean_self(name: str) -> float:
        spans = tracer.by_name(name)
        if not spans:
            raise RuntimeError(f"the traced run never called {name}")
        return sum(self_s[s["id"]] for s in spans) / len(spans)

    def total(name: str, key: Optional[str] = None) -> float:
        spans = tracer.by_name(name)
        if key is None:
            return sum(s["end"] - s["start"] for s in spans)
        return sum(s["counts"][key] for s in spans)

    def mean_count(name: str, key: str) -> float:
        return total(name, key) / len(tracer.by_name(name))

    values = {
        f"{name}_s": mean_self(name)
        for name in (
            "datasets.generate", "etw.read", "etw.parse", "etw.capture_load",
            "etw.partition", "cfg.infer", "weights.assess",
            "persistence.save", "persistence.load", "features.transform",
            "windows.coalesce", "scaling.transform", "learning.grid_search",
            "learning.final_fit", "learning.score",
        )
    }
    values.update({
        "datasets.events_per_s": total("datasets.generate", "events")
        / total("datasets.generate"),
        "etw.parse_lines_per_s": total("etw.parse", "lines")
        / total("etw.parse"),
        "etw.frame_intern_entries": frame_intern_stats().entries,
        "cfg.nodes": sum(sizes.nodes) / len(sizes.nodes),
        "cfg.edges": sum(sizes.edges) / len(sizes.edges),
        "weights.distinct_paths_per_event": sum(
            sizes.distinct_paths.values()
        ) / len(sizes.distinct_paths),
        "persistence.bundle_bytes": mean_count("persistence.load", "bytes"),
        "windows.count": mean_count("windows.coalesce", "windows"),
        "learning.grid_cells": mean_count("learning.grid_search", "cells"),
        "learning.smo_sweeps": mean_count("learning.final_fit", "sweeps"),
        "learning.converged_frac": mean_count("learning.final_fit",
                                              "converged"),
        "learning.score_us_per_window": total("learning.score") * 1e6
        / total("learning.score", "windows"),
        "learning.n_sv": mean_count("learning.score", "n_sv"),
    })
    return values


def serve_layer_record(run: dict) -> dict:
    """Serve-only layer numbers from the STATUS_REPLY stages and the
    client's own record of the phase."""
    before, after = run["status"]
    phase: Phase = run["phase"]

    def stage_delta(key: str) -> float:
        return sum(s["stages"][key] for s in after["shards"]) - sum(
            s["stages"][key] for s in before["shards"]
        )

    record = {
        "serve.decode_s": stage_delta("decode_s"),
        "serve.featurize_s": stage_delta("featurize_s"),
        "serve.score_s": stage_delta("score_s"),
        "serve.mean_batch_windows": median(
            [s["mean_batch_windows"] for s in after["shards"]]
        ),
        "serve.mean_flush_wait_s": median(
            [s["mean_flush_wait_s"] for s in after["shards"]]
        ),
        "serve.pauses": after["counters"]["pauses"]
        - before["counters"]["pauses"],
        "serve.hello_s": sum(s.connect_s for s in run["streams"])
        / len(run["streams"]),
        "serve.drain_p99_s": quantile(
            [s.done - s.end_sent for s in run["streams"]], 0.99
        ),
    }
    for mode in ("text", "columnar"):
        streams = [s for s in run["streams"] if s.mode == mode]
        record[f"serve.latency_p50_s.{mode}"] = median(run["by_mode"][mode])
        record[f"serve.wire_bytes_per_event.{mode}"] = sum(
            s.sent_bytes for s in streams
        ) / sum(s.source.log.n_events for s in streams)
    busy = record["serve.decode_s"] + record["serve.featurize_s"] + record[
        "serve.score_s"]
    record["serve.stage_share_of_cpu"] = busy / phase.cpu_s
    return record


# -- the run -----------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: Scale, work: Path, out_dir: Path) -> dict:
    """Set up, run and check one workload; returns the result document
    (``correct``/``attempted``/``failed``/``values``) plus an ``info``
    block for the log line printed before it."""
    setup_times, raw_setup = [], []
    workload: Optional[Workload] = None
    tracer = Tracer(enabled=False)
    try:
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
                workload = None
                drop_garbage()
            shutil.rmtree(work, ignore_errors=True)
            last = repeat == SETUP_REPEATS - 1
            tracer = Tracer(enabled=trace and last)
            before = host_slowness()
            started = time.perf_counter()
            workload = make_workload(name, scale, seed, work, tracer,
                                     decomposed=trace and last)
            workload.setup()
            elapsed = time.perf_counter() - started
            slowness = (before + host_slowness()) / 2
            raw_setup.append(elapsed)
            setup_times.append(elapsed / slowness)
        settle_after_setup()
        watch = HostWatch()
        info: dict = {"workload": name, "seed": seed, "trace": trace,
                      "setup_s_samples": setup_times,
                      "raw_setup_s_samples": raw_setup}
        if workload.serial:
            result = _run_serial(workload, seconds, trace, setup_times, info)
        else:
            result = _run_serve(workload, seconds, trace, setup_times, info)
        info["host"] = watch.finish()
        if trace:
            out_dir.mkdir(parents=True, exist_ok=True)
            spans_path = out_dir / f"trace-{name}-s{seed}.json"
            tracer.dump(spans_path)
            info["spans_file"] = str(spans_path)
        result["info"] = info
        return result
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)


def _run_serial(workload: Workload, seconds: float, trace: bool,
                setup_times, info: dict) -> dict:
    if not trace:
        phase = serial_phase(workload, seconds, traced=False)
        values = end_to_end_values(setup_times, phase, workload.quality,
                                   peak_rss_mb())
        info["latency_tail"] = tail_record(phase.latencies)
        info["ops"] = phase.attempted
        info["host_slowness"] = phase.slowness
        info["raw_events_per_s"] = phase.events / phase.raw_wall_s
        return _result(phase, values, info)
    # traced run: an untraced half, then the same ops decomposed
    plain = serial_phase(workload, seconds / 2, traced=False)
    traced = serial_phase(workload, seconds / 2, traced=True)
    values = layer_values(workload.tracer, workload.sizes)
    values["bench.span_coverage"] = workload.tracer.coverage("op")
    values["bench.trace_overhead"] = traced.events_per_s / plain.events_per_s
    merged = Phase(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
    )
    info["traced_ops"] = traced.attempted
    return _result(merged, values, info)


def _run_serve(workload: ServeWorkload, seconds: float, trace: bool,
               setup_times, info: dict) -> dict:
    for _ in range(2):
        run = workload.run_phase(seconds)
        lag_p99 = quantile(run["lags"], 0.99)
        info["bench.gen_lag_p99_s"] = lag_p99
        info["offered_events_per_s"] = workload.scale.serve_rate
        if lag_p99 <= SERVE_MAX_GEN_LAG_S:
            break
        print(f"serve run invalid: generator p99 lag {lag_p99:.4f} s "
              f"exceeds {SERVE_MAX_GEN_LAG_S} s", file=sys.stderr)
    else:
        raise InvalidRun("the serve load generator fell behind its schedule")
    phase: Phase = run["phase"]
    info["latency_tail"] = tail_record(phase.latencies)
    info["streams"] = len(run["streams"])
    serve_layers = serve_layer_record(run)
    info["serve_layers"] = serve_layers
    if not trace:
        values = end_to_end_values(setup_times, phase, workload.quality,
                                   run["maxrss_mb"])
        return _result(phase, values, info)
    values = layer_values(workload.tracer, workload.sizes)
    values["bench.span_coverage"] = serve_layers["serve.stage_share_of_cpu"]
    # the server cannot be decomposed from outside: the overhead is the
    # delivered rate against the offered one, which an untraced run
    # matches when the server keeps up
    values["bench.trace_overhead"] = (phase.events_per_s
                                      / workload.scale.serve_rate)
    return _result(phase, values, info)


def _result(phase: Phase, values: dict, info: dict) -> dict:
    info["failed_frac"] = phase.failed / phase.attempted
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "values": values,
    }


class InvalidRun(RuntimeError):
    """The run cannot be counted (its load generator fell behind)."""
