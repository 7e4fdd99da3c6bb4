"""The public LEAPS API: train on raw logs, scan raw logs.

>>> detector = LeapsDetector(LeapsConfig(stride=2))
>>> detector.train_from_logs(benign_lines, mixed_lines)
>>> detections = detector.scan_log(production_lines)
>>> flagged, total = detector.alert_summary(detections)

Train once, scan everywhere: a trained detector persists to a versioned
bundle directory and fans out across a fleet of logs —

>>> detector.save("model.leaps")
>>> scanner = LeapsDetector.load("model.leaps")
>>> results = scanner.scan_logs(paths, n_jobs=4)
>>> [r.source for r in results if r.flagged]

For whole-machine logs that do not fit in RAM, scan a line iterator
incrementally — with a recovering parse policy and a ParseReport to
account for every corrupt line:

>>> report = ParseReport()
>>> for detection in detector.scan_stream(open(path), report=report,
...                                       policy="drop"):
...     handle(detection)
>>> report.events_dropped, report.truncated_tail
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.cfg_inference import CFG
from repro.core.config import LeapsConfig
from repro.core.persistence import (
    bundle_fingerprint,
    load_bundle,
    pipeline_fingerprint,
    save_bundle,
)
from repro.core.pipeline import LeapsPipeline, TrainingReport
from repro.core.streaming import detection_rows
from repro.etw.capture import is_capture_path, load_capture
from repro.etw.events import EventColumns
from repro.etw.fastparse import parse_columns
from repro.etw.recovery import ParseReport


@dataclass(frozen=True)
class WindowDetection:
    """Verdict for one coalesced event window of a scanned log."""

    index: int
    start_eid: int
    end_eid: int
    #: SVM decision value; negative means the malicious side
    score: float
    malicious: bool


@dataclass(frozen=True)
class ScanResult:
    """One log's verdicts from a fleet scan (:meth:`LeapsDetector.scan_logs`)."""

    #: the log's path, or None when the input was an in-memory iterable
    source: Optional[str]
    detections: List[WindowDetection] = field(default_factory=list)
    #: recovery accounting, when the scan requested ``with_reports``
    report: Optional[ParseReport] = None

    @property
    def flagged(self) -> int:
        return sum(1 for detection in self.detections if detection.malicious)


#: One fleet item as ``(index, path, text)``: a path with no text, or an
#: in-memory log (whole ``bytes`` or a list of lines) with no path.
_ScanJob = Tuple[int, Optional[str], Optional[Union[bytes, List[str]]]]

#: One bundle-loaded detector per worker process, installed by the pool
#: initializer so the model deserializes once per worker, not per log.
_SCAN_WORKER: dict = {}


def _init_scan_worker(bundle_path: str, policy: Optional[str], with_reports: bool):
    _SCAN_WORKER["detector"] = LeapsDetector.load(bundle_path)
    _SCAN_WORKER["policy"] = policy
    _SCAN_WORKER["with_reports"] = with_reports


def _scan_worker_job(job: _ScanJob):
    index, source, lines = job
    detector = _SCAN_WORKER["detector"]
    result = detector._scan_job(
        source, lines, _SCAN_WORKER["policy"], _SCAN_WORKER["with_reports"]
    )
    return index, result


class LeapsDetector:
    def __init__(self, config: Optional[LeapsConfig] = None):
        self.config = config or LeapsConfig()
        self.pipeline = LeapsPipeline(self.config)

    # -- training ------------------------------------------------------
    def train_from_logs(
        self, benign_lines: Iterable[str], mixed_lines: Iterable[str]
    ) -> TrainingReport:
        """Train from the benign log of the clean application and the
        mixed log of the compromised application."""
        return self.pipeline.train(benign_lines, mixed_lines)

    def fit_logs(
        self,
        benign_logs: Iterable[Union[str, os.PathLike, Iterable[str]]],
        mixed_logs: Iterable[Union[str, os.PathLike, Iterable[str]]],
    ) -> TrainingReport:
        """Train from a *fleet* of benign and mixed logs.

        Each item is addressed as in :meth:`scan_logs` — a log path
        (text or ``.leapscap``), a whole log's raw ``bytes`` or an
        iterable of raw lines — or is a log's
        :class:`~repro.etw.events.EventColumns`.  Logs are parsed and
        coalesced independently (windows and Algorithm-1 implicit edges
        never span a capture boundary); the per-log CFGs are inferred
        and merged in input order.  With one log per class this is
        exactly :meth:`train_from_logs`.
        """
        return self.pipeline.train_many(
            [self._log_lines(item) for item in benign_logs],
            [self._log_lines(item) for item in mixed_logs],
        )

    @staticmethod
    def _log_lines(
        item: Union[str, os.PathLike, Iterable[str]],
    ) -> Union[bytes, EventColumns, Iterable[str]]:
        """Resolve one fleet item to parse-ready input.

        Text paths resolve to the file's raw bytes, which
        :func:`~repro.etw.fastparse.parse_columns` parses whole: it splits
        on ``\\n``/``\\r\\n`` only (``str.splitlines`` also breaks on
        Unicode line boundaries such as ``\\x85``, silently diverging
        from streaming the same file) and passes undecodable lines
        through as ``bytes`` for policy-controlled ``BAD_ENCODING``
        classification instead of a bare ``UnicodeDecodeError``.
        ``.leapscap`` capture paths load as their columns.
        """
        if isinstance(item, (str, os.PathLike)):
            if is_capture_path(item):
                return load_capture(item).columns
            return Path(os.fspath(item)).read_bytes()
        return item

    @property
    def trained(self) -> bool:
        return self.pipeline.model is not None

    @property
    def benign_cfg(self) -> Optional[CFG]:
        return self.pipeline.benign_cfg

    @property
    def mixed_cfg(self) -> Optional[CFG]:
        return self.pipeline.mixed_cfg

    @property
    def report(self) -> Optional[TrainingReport]:
        return self.pipeline.report

    # -- persistence ---------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Serialize the trained model to a bundle directory; a detector
        loaded from it scans bit-identically to this one."""
        return save_bundle(self.pipeline, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "LeapsDetector":
        """Restore a scan-ready detector from a :meth:`save` bundle."""
        return cls.from_pipeline(load_bundle(path))

    @classmethod
    def from_pipeline(cls, pipeline: LeapsPipeline) -> "LeapsDetector":
        detector = cls(pipeline.config)
        detector.pipeline = pipeline
        return detector

    # -- scanning ------------------------------------------------------
    def scan_log(self, lines: Union[bytes, Iterable[str]]) -> List[WindowDetection]:
        """Scan a complete log — its raw text, bytes or lines — on the
        batch fast path.

        Bit-identical to draining :meth:`scan_stream`, which remains the
        bounded-memory alternative for logs too large to materialize.
        """
        return self._scan_job(None, lines, None, False).detections

    def _scan_job(
        self,
        source: Optional[str],
        lines: Optional[Union[bytes, Iterable[str]]],
        policy: Optional[str],
        with_reports: bool,
    ) -> ScanResult:
        """Scan one log (a path when ``lines`` is None, else the given
        text) through the batch fast path, from columns: a capture
        path's, or the text's, parsed by
        :func:`~repro.etw.fastparse.parse_columns`."""
        report = ParseReport() if with_reports else None
        if lines is None and is_capture_path(source):
            capture = load_capture(source)
            # nothing to parse: surface the conversion-time recovery
            # accounting instead
            if report is not None and capture.report is not None:
                report.merge(capture.report)
            events = capture.columns
        else:
            events = parse_columns(
                self._log_lines(source) if lines is None else lines,
                policy=policy or self.pipeline.parser.policy,
                report=report,
            )
        windows, scores = self.pipeline.score_events(events)
        detections = list(starmap(WindowDetection, detection_rows(windows, scores)))
        return ScanResult(source=source, detections=detections, report=report)

    def scan_logs(
        self,
        logs: Iterable[Union[str, os.PathLike, Iterable[str]]],
        n_jobs: int = 1,
        policy: Optional[str] = None,
        with_reports: bool = False,
        bundle_path: Optional[Union[str, Path]] = None,
    ) -> List[ScanResult]:
        """Scan a fleet of logs, optionally in parallel.

        Each item is a log path (``str``/``os.PathLike``, text or
        ``.leapscap``), a whole log's raw ``bytes``, or an iterable of
        raw lines.  Results come back in input order and are identical
        to serial :meth:`scan_log` for any worker count.

        ``n_jobs`` > 1 shards whole logs across a process pool: the
        model is saved to a bundle (``bundle_path``, or a temporary
        directory) and each worker loads it once.  ``policy``/
        ``with_reports`` expose the recovering-ingestion knobs per log.
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.pipeline.model is None:
            # Fail before touching any log, matching scan_log's contract.
            from repro.core.pipeline import NotTrainedError

            raise NotTrainedError("pipeline has not been trained")

        jobs: List[_ScanJob] = []
        for index, item in enumerate(logs):
            if isinstance(item, (str, os.PathLike)):
                jobs.append((index, os.fspath(item), None))
            elif isinstance(item, bytes):
                # parsed whole, as scan_log does (list() would split
                # it into ints)
                jobs.append((index, None, item))
            else:
                jobs.append((index, None, list(item)))

        if n_jobs == 1 or len(jobs) <= 1:
            return [
                self._scan_job(source, lines, policy, with_reports)
                for _, source, lines in jobs
            ]

        with tempfile.TemporaryDirectory() as scratch:
            if bundle_path is None:
                bundle = Path(scratch) / "bundle"
                self.save(bundle)
            else:
                bundle = Path(bundle_path)
                # Reuse an existing bundle only when it actually holds
                # *this* model: a detector retrained since the bundle
                # was written must not fan out the stale weights.  The
                # fingerprint covers the full scan-relevant state
                # (config, vocabularies, SVM scalars, every array).
                if (
                    not (bundle / "bundle.json").is_file()
                    or bundle_fingerprint(bundle)
                    != pipeline_fingerprint(self.pipeline)
                ):
                    self.save(bundle)
            with ProcessPoolExecutor(
                max_workers=min(n_jobs, len(jobs)),
                initializer=_init_scan_worker,
                initargs=(str(bundle), policy, with_reports),
            ) as pool:
                indexed = list(pool.map(_scan_worker_job, jobs))
        indexed.sort(key=lambda pair: pair[0])
        return [result for _, result in indexed]

    def scan_stream(
        self,
        lines: Iterable[str],
        report: Optional[ParseReport] = None,
        policy: Optional[str] = None,
    ) -> Iterator[WindowDetection]:
        """Stream :class:`WindowDetection` verdicts off a raw-log line
        iterator with bounded memory (see ``LeapsPipeline.score_stream``).

        ``policy`` overrides the config's ``parse_policy`` for this scan
        (``"drop"``/``"warn"`` recover from corrupt lines); pass a
        :class:`ParseReport` to account for what recovery kept, dropped,
        and classified.
        """
        chunks = self.pipeline.score_stream(lines, report=report, policy=policy)
        return (
            WindowDetection(*row)
            for windows, scores in chunks
            for row in detection_rows(windows, scores)
        )

    @staticmethod
    def alert_summary(
        detections: Iterable[WindowDetection],
    ) -> Tuple[int, int]:
        """(flagged windows, total windows) for a scan result.

        Accepts any iterable — including the :meth:`scan_stream`
        generator — counting both tallies in a single pass.
        """
        flagged = 0
        total = 0
        for detection in detections:
            total += 1
            if detection.malicious:
                flagged += 1
        return flagged, total
