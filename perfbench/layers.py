"""The public calls each benchmark op makes, in two forms.

* The **untraced** form is the call a user makes: ``fit_logs`` to
  train, ``scan_logs`` to scan.
* The **decomposed** form replays the same op as the sequence of
  public layer calls underneath it, each wrapped in a tracer span, so a
  traced run can say where the op's time goes without instrumenting
  ``src/``.  The decomposed form must reproduce the untraced output bit
  for bit; the benchmark checks that on every traced op.

Training decomposes as ``read_log_lines`` → ``prepare_training_many``
(whose public ``stage_seconds`` become the parse / partition / CFG /
weights / featurize spans) → ``grid_search_wsvm`` → ``WeightedSVM.fit``.
Scanning decomposes as ``read_log_lines`` + ``parse_fast`` (or
``load_capture``) → ``EventFeaturizer.transform`` →
``WindowCoalescer.coalesce_with_matrix`` → ``Standardizer.transform`` →
``decision_function`` in ``stream_chunk_windows`` chunks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro import LeapsConfig, LeapsDetector
from repro.core.detector import WindowDetection
from repro.core.persistence import pipeline_fingerprint
from repro.datasets.generation import generate_dataset
from repro.etw.capture import load_capture
from repro.etw.fastparse import parse_fast
from repro.etw.parser import read_log_lines
from repro.learning.cross_validation import grid_search_wsvm
from repro.learning.kernels import PrecomputedKernel, gaussian_kernel
from repro.learning.wsvm import WeightedSVM

from harness import Tracer

#: one catalog row per application, mixing payloads and delivery modes
APP_ROWS = (
    ("winscp", "winscp_reverse_tcp"),
    ("chrome", "chrome_reverse_https"),
    ("notepad++", "notepad++_codeinject"),
    ("putty", "putty_reverse_tcp_online"),
    ("vim", "vim_reverse_https_online"),
)

#: stage_seconds entry of prepare_training_many → layer span name
PREPARE_STAGE_SPANS = (
    ("parse", "etw.parse"),
    ("partition", "etw.partition"),
    ("cfg_inference", "cfg.infer"),
    ("weights", "weights.assess"),
    ("featurize", "features.transform"),
)


@dataclass(frozen=True)
class LogFile:
    """One generated log in both forms plus its ground truth."""

    app: str
    text: Path
    capture: Path
    n_events: int
    attack_eids: Tuple[int, ...]

    @property
    def infected(self) -> bool:
        return bool(self.attack_eids)


def generate(tracer: Tracer, row: str, dst: Path, seed: int, *,
             train_events: int, scan_events: int, fmt: str = "both"):
    """One ``generate_dataset`` call; returns ``{log name: LogFile}``
    with the ground truth read back from ``labels.json``."""
    n_events = 2 * train_events + scan_events
    with tracer.span("datasets.generate", events=n_events):
        generate_dataset(row, dst, seed=seed, train_events=train_events,
                         scan_events=scan_events, format=fmt)
    labels = json.loads((dst / "labels.json").read_text())
    app = labels["app"]
    logs = {}
    for name, entry in labels["logs"].items():
        text = dst / name
        logs[name] = LogFile(
            app=app,
            text=text,
            capture=text.with_suffix(".leapscap"),
            n_events=int(entry["events"]),
            attack_eids=tuple(entry["attack_eids"]),
        )
    return logs


# -- training ----------------------------------------------------------
def fit(config: LeapsConfig, benign: Path, mixed: Path) -> LeapsDetector:
    """The untraced train op."""
    detector = LeapsDetector(config)
    detector.fit_logs([benign], [mixed])
    return detector


def fit_decomposed(tracer: Tracer, config: LeapsConfig, benign: Path,
                   mixed: Path) -> LeapsDetector:
    """``fit_logs`` replayed layer by layer (same result bit for bit)."""
    detector = LeapsDetector(config)
    pipeline = detector.pipeline
    with tracer.span("etw.read"):
        benign_lines = read_log_lines(benign)
        mixed_lines = read_log_lines(mixed)
    rng = config.rng()
    started = time.perf_counter()
    prepared = pipeline.prepare_training_many(
        [benign_lines], [mixed_lines], rng=rng
    )
    stages = dict(prepared.stage_seconds)
    cursor = started
    n_lines = len(benign_lines) + len(mixed_lines)
    for stage, span_name in PREPARE_STAGE_SPANS:
        counts = {"lines": n_lines} if stage == "parse" else {}
        if stage == "featurize":
            counts = {"train_windows": len(prepared.X)}
        tracer.add(span_name, cursor, cursor + stages[stage], **counts)
        cursor += stages[stage]
    params = pipeline.svm_params()
    with tracer.span("learning.grid_search") as counts:
        cache = PrecomputedKernel(prepared.X)
        grid = grid_search_wsvm(
            prepared.X, prepared.y, prepared.importances,
            config.lam_grid, config.sigma2_grid, config.cv_folds, rng,
            svm_params=params, n_jobs=config.n_jobs,
            executor=config.cv_executor, cache=cache,
        )
        counts["cells"] = len(grid.table) * max(config.cv_folds, 1)
    with tracer.span("learning.final_fit") as counts:
        model = WeightedSVM(kernel=gaussian_kernel(grid.sigma2), lam=grid.lam,
                            **params)
        model.fit(prepared.X, prepared.y, prepared.importances,
                  gram=cache.gram(grid.sigma2))
        counts["sweeps"] = model.n_sweeps_
        counts["converged"] = int(model.converged_)
    pipeline.model = model
    return detector


def fingerprint(detector: LeapsDetector) -> str:
    """Content hash of everything that decides a detector's scores."""
    return pipeline_fingerprint(detector.pipeline)


def distinct_paths_per_event(detector: LeapsDetector, mixed: Path) -> float:
    """Distinct app-space call paths per mixed-log event: the work
    ``WeightAssessor.assess`` memoizes (computed untimed)."""
    partitioner = detector.pipeline.partitioner
    events = parse_fast(read_log_lines(mixed))
    paths = {tuple(partitioner.app_path(event)) for event in events}
    return len(paths) / max(1, len(events))


def save_load(tracer: Tracer, detector: LeapsDetector, bundle: Path):
    """Ship a trained detector the way a fleet does: bundle out, bundle
    in.  Returns the loaded detector and the bundle's size in bytes."""
    with tracer.span("persistence.save"):
        detector.save(bundle)
    size = sum(f.stat().st_size for f in bundle.rglob("*") if f.is_file())
    with tracer.span("persistence.load", bytes=size):
        loaded = LeapsDetector.load(bundle)
    if fingerprint(loaded) != fingerprint(detector):
        raise RuntimeError(f"bundle {bundle} does not round-trip")
    return loaded, size


# -- scanning ----------------------------------------------------------
def scan(detector: LeapsDetector, path: Path) -> List[WindowDetection]:
    """The untraced scan op: one serial ``scan_logs`` over one log."""
    (result,) = detector.scan_logs([path])
    return result.detections


def scan_decomposed(tracer: Tracer, detector: LeapsDetector, path: Path,
                    capture: bool) -> List[WindowDetection]:
    """``scan_logs([path])`` replayed layer by layer."""
    pipeline = detector.pipeline
    if capture:
        with tracer.span("etw.capture_load"):
            events = list(load_capture(path).events)
    else:
        with tracer.span("etw.read"):
            lines = read_log_lines(path)
        with tracer.span("etw.parse", lines=len(lines)):
            events = parse_fast(lines, policy=pipeline.parser.policy)
    with tracer.span("features.transform"):
        features = pipeline.featurizer.transform(events)
    with tracer.span("windows.coalesce") as counts:
        windows, matrix = pipeline.coalescer.coalesce_with_matrix(
            features, events
        )
        counts["windows"] = len(windows)
    if not windows:
        return []
    with tracer.span("scaling.transform"):
        X = pipeline.standardizer.transform(matrix)
    model = pipeline.model
    chunk = pipeline.config.stream_chunk_windows
    with tracer.span("learning.score", windows=len(windows),
                     n_sv=len(model.support_)):
        scores = np.empty(len(windows))
        for start in range(0, len(windows), chunk):
            scores[start:start + chunk] = model.decision_function(
                X[start:start + chunk]
            )
    with tracer.span("core.detections"):
        return [
            WindowDetection(
                index=window.start_index,
                start_eid=window.start_eid,
                end_eid=window.end_eid,
                score=float(score),
                malicious=bool(score < 0.0),
            )
            for window, score in zip(windows, scores)
        ]
