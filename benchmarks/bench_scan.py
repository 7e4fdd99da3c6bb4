"""Scan-path benchmark: pre-PR vs fast scoring, persistence, fleet scan.

Measures, over the complete cached golden datasets (benign + mixed +
malicious logs):

1. scan throughput (events/s, **parse excluded**) of the batch fast
   path — memoized featurization into a preallocated matrix, one-gather
   window coalescing, cached-norm Gaussian scoring — against a faithful
   reimplementation of the pre-PR path (per-event double stack
   partition with unmemoized module checks, per-event ``np.array``
   rows, per-window ``np.concatenate``, per-chunk kernel recomputing
   support-vector norms).  Both paths must produce **bit-identical**
   ``WindowDetection`` sequences — the benchmark fails loudly
   otherwise;
2. model persistence: ``save``/``load`` wall time, bundle size, and the
   save → load → scan round trip's bit-identity with the in-memory
   detector;
3. fleet scan: ``scan_logs`` serial vs process-pool wall time and
   result equality for the dataset's three logs.

Usage (from the repo root):

    PYTHONPATH=src python benchmarks/bench_scan.py
    PYTHONPATH=src python benchmarks/bench_scan.py \
        --datasets notepad++_reverse_tcp_online --n-jobs 2 \
        --output BENCH_scan.json

Emits ``BENCH_scan.json`` (schema: see benchmarks/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.core.config import LeapsConfig
from repro.core.detector import LeapsDetector, WindowDetection
from repro.etw.events import EventRecord
from repro.etw.parser import RawLogParser
from repro.etw.stack_partition import StackPartitionError, is_app_module, is_system_module

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "benchmarks" / ".data"

SCHEMA = "leaps-bench-scan/v1"
#: the complete (benign + mixed + malicious) datasets in the golden cache
DEFAULT_DATASETS = (
    "notepad++_reverse_tcp_online",
    "notepad++_reverse_https_online",
    "notepad++_reverse_https",
    "notepad++_codeinject",
)
LOG_NAMES = ("benign", "mixed", "malicious")


def resolve_dataset(name: str, seed: int) -> Path:
    """Locate ``.data/<name>-s<seed>-<hash>/`` with all three logs."""
    matches = sorted(DATA_DIR.glob(f"{name}-s{seed}-*"))
    complete = [
        m for m in matches
        if all((m / f"{log}.log").is_file() for log in LOG_NAMES)
    ]
    if not complete:
        raise FileNotFoundError(
            f"no complete cached dataset for {name!r} seed {seed} under {DATA_DIR}"
        )
    return complete[0]


def best_of(repeats: int, fn) -> float:
    return min(
        (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(repeats)
    )


# -- faithful pre-PR scan path ----------------------------------------
#
# Reproduces the historical scoring pipeline op for op so the speedup is
# measured against true pre-PR cost: every event partitioned twice
# (app_path, then system_path) through unmemoized per-frame module
# checks, a fresh np.array per event row, np.concatenate per window in
# iter_coalesce, and a per-chunk kernel call that recomputes the
# support-vector norms.  Its detections are bit-identical to the fast
# path's — asserted below on every log.

def _naive_partition(frames) -> Tuple[tuple, tuple]:
    split = len(frames)
    for position, frame in enumerate(frames):
        if is_system_module(frame.module):
            split = position
            break
    app, system = frames[:split], frames[split:]
    for frame in system:
        if is_app_module(frame.module):
            raise StackPartitionError(
                f"app frame {frame.module}!{frame.function} below a "
                f"system frame at index {frame.index}"
            )
    return app, system


def naive_scan(pipeline, events: List[EventRecord]) -> List[WindowDetection]:
    featurizer = pipeline.featurizer
    etype_vocab = featurizer.etype_vocab
    app_vocab = featurizer.app_vocab
    system_vocab = featurizer.system_vocab
    model = pipeline.model
    standardizer = pipeline.standardizer

    def naive_row(event: EventRecord) -> np.ndarray:
        app = tuple(frame.node for frame in _naive_partition(event.frames)[0])
        system = tuple(frame.node for frame in _naive_partition(event.frames)[1])
        return np.array(
            (
                etype_vocab.lookup(event.etype),
                app_vocab.lookup(app),
                system_vocab.lookup(system),
            ),
            dtype=float,
        )

    def score_chunk(pending) -> np.ndarray:
        X = standardizer.transform(
            np.stack([window.vector for window in pending])
        )
        return model.kernel(X, model._sv_X) @ model._sv_coef + model.b

    pairs = ((event, naive_row(event)) for event in events)
    chunk = pipeline.config.stream_chunk_windows
    detections: List[WindowDetection] = []

    def flush(pending):
        for window, score in zip(pending, score_chunk(pending)):
            detections.append(
                WindowDetection(
                    index=window.start_index,
                    start_eid=window.start_eid,
                    end_eid=window.end_eid,
                    score=float(score),
                    malicious=bool(score < 0.0),
                )
            )

    pending: list = []
    for window in pipeline.coalescer.iter_coalesce(pairs):
        pending.append(window)
        if len(pending) >= chunk:
            flush(pending)
            pending = []
    if pending:
        flush(pending)
    return detections


def fast_scan(pipeline, events: List[EventRecord]) -> List[WindowDetection]:
    windows, scores = pipeline.score_events(events)
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


def bench_dataset(name: str, config: LeapsConfig, n_jobs: int, repeats: int) -> dict:
    dataset = resolve_dataset(name, config.seed)
    lines = {
        log: (dataset / f"{log}.log").read_text().splitlines()
        for log in LOG_NAMES
    }

    detector = LeapsDetector(config)
    detector.train_from_logs(lines["benign"], lines["mixed"])
    pipeline = detector.pipeline

    # Parse once up front — scan throughput is measured parse-excluded.
    parser = RawLogParser()
    events = {log: parser.parse_lines(lines[log]) for log in LOG_NAMES}

    logs = {}
    total_events = total_naive_s = total_fast_s = 0.0
    for log in LOG_NAMES:
        naive = naive_scan(pipeline, events[log])
        fast = fast_scan(pipeline, events[log])
        if naive != fast:
            raise AssertionError(
                f"{name}/{log}: fast scan diverged from the pre-PR path"
            )
        # Memo caches persist across repeats — exactly the fleet-scan
        # regime, where one loaded model scans many logs.
        naive_s = best_of(repeats, lambda: naive_scan(pipeline, events[log]))
        fast_s = best_of(repeats, lambda: fast_scan(pipeline, events[log]))
        n_events = len(events[log])
        logs[log] = {
            "events": n_events,
            "windows": len(fast),
            "flagged": sum(1 for d in fast if d.malicious),
            "naive_s": naive_s,
            "fast_s": fast_s,
            "naive_events_per_s": n_events / naive_s,
            "fast_events_per_s": n_events / fast_s,
            "speedup": naive_s / fast_s,
            "detections_bit_identical": True,
        }
        total_events += n_events
        total_naive_s += naive_s
        total_fast_s += fast_s

    # -- persistence round trip ----------------------------------------
    with tempfile.TemporaryDirectory() as scratch:
        bundle = Path(scratch) / "bundle"
        save_s = best_of(repeats, lambda: detector.save(bundle))
        load_s = best_of(repeats, lambda: LeapsDetector.load(bundle))
        loaded = LeapsDetector.load(bundle)
        bundle_bytes = sum(f.stat().st_size for f in bundle.iterdir())
        roundtrip_identical = all(
            fast_scan(loaded.pipeline, events[log])
            == fast_scan(pipeline, events[log])
            for log in LOG_NAMES
        )
    if not roundtrip_identical:
        raise AssertionError(f"{name}: save→load→scan diverged from in-memory")

    # -- fleet scan: serial vs the process pool -------------------------
    paths = [str(dataset / f"{log}.log") for log in LOG_NAMES]
    serial = detector.scan_logs(paths, n_jobs=1)
    serial_s = best_of(repeats, lambda: detector.scan_logs(paths, n_jobs=1))
    process = detector.scan_logs(paths, n_jobs=n_jobs)
    process_s = best_of(
        repeats, lambda: detector.scan_logs(paths, n_jobs=n_jobs)
    )
    fleet_identical = (
        [r.detections for r in serial] == [r.detections for r in process]
    )
    if not fleet_identical:
        raise AssertionError(f"{name}: parallel scan_logs diverged from serial")

    return {
        "dataset": name,
        "dataset_dir": dataset.name,
        "seed": config.seed,
        "n_sv": int(len(pipeline.model.support_)),
        "logs": logs,
        "totals": {
            "events": int(total_events),
            "naive_s": total_naive_s,
            "fast_s": total_fast_s,
            "naive_events_per_s": total_events / total_naive_s,
            "fast_events_per_s": total_events / total_fast_s,
            "speedup": total_naive_s / total_fast_s,
        },
        "persistence": {
            "save_s": save_s,
            "load_s": load_s,
            "bundle_bytes": bundle_bytes,
            "roundtrip_bit_identical": roundtrip_identical,
        },
        "fleet": {
            "n_logs": len(paths),
            "n_jobs": n_jobs,
            "serial_s": serial_s,
            "process_s": process_s,
            "identical": fleet_identical,
        },
    }


def build_config(args: argparse.Namespace) -> LeapsConfig:
    # Single-point grid: training is not what this benchmark measures.
    windows = 200 if args.quick else 400
    return LeapsConfig(
        lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0,
        max_train_windows=windows, seed=args.seed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names from benchmarks/.data/",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset + pipeline seed")
    parser.add_argument(
        "--n-jobs", type=int, default=2,
        help="fleet-scan workers (results are identical for any value)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats; each timing keeps the best run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="first dataset only, smaller model, one repeat — for smoke tests",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_scan.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    config = build_config(args)

    names = [d.strip() for d in args.datasets.split(",") if d.strip()]
    repeats = args.repeats
    if args.quick:
        names = names[:1]
        repeats = 1

    results = []
    for name in names:
        print(f"benchmarking {name} (seed {args.seed}) ...", flush=True)
        result = bench_dataset(name, config, args.n_jobs, repeats)
        totals = result["totals"]
        print(
            f"  scan: naive {totals['naive_events_per_s']:,.0f} ev/s → "
            f"fast {totals['fast_events_per_s']:,.0f} ev/s  "
            f"({totals['speedup']:.1f}x)  "
            f"save {result['persistence']['save_s'] * 1e3:.1f}ms / "
            f"load {result['persistence']['load_s'] * 1e3:.1f}ms",
            flush=True,
        )
        results.append(result)

    speedups = [r["totals"]["speedup"] for r in results]
    payload = {
        "schema": SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "quick": args.quick,
            "lam": config.lam_grid[0],
            "sigma2": config.sigma2_grid[0],
            "max_train_windows": config.max_train_windows,
            "stream_chunk_windows": config.stream_chunk_windows,
            "n_jobs": args.n_jobs,
            "repeats": repeats,
            "seed": args.seed,
        },
        "datasets": results,
        "summary": {
            "datasets": len(results),
            "min_scan_speedup": min(speedups),
            "geomean_scan_speedup": float(np.exp(np.mean(np.log(speedups)))),
            "all_bit_identical": True,
        },
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
