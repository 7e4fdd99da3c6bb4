"""End-to-end ingest benchmark: raw text vs columnar capture.

Measures the full raw-bytes→detections pipeline for the same log
stored two ways:

* **text** — the pipe-delimited raw log, read as bytes and parsed on
  every scan by the block-level text parser (``repro.etw.fastparse``),
  exactly as ``scan_logs`` does for a text path;
* **capture** — the one-time ``.leapscap`` columnar conversion
  (``repro.etw.convert_log``), loaded by the capture reader on every
  scan.

Both paths must produce **bit-identical** detections — the benchmark
fails loudly otherwise.  Throughput is reported as *effective text
lines per second*: the original log's line count divided by wall time,
so the two storage formats are directly comparable.  The one-time
conversion cost is reported separately (``convert_s``) — it is paid
once per log, not per scan.

Runs against the cached golden datasets when ``benchmarks/.data/``
holds any; otherwise generates a deterministic synthetic corpus via
the fast generation path and caches it under
``benchmarks/.data/<dataset>-s<seed>-gen<train>x<scan>/`` so repeated
runs skip regeneration — the JSON records which source was used.
Generated cache directories carry the ``-gen`` marker and are never
mistaken for golden datasets (here or by the test-suite guards).

Usage (from the repo root):

    PYTHONPATH=src python benchmarks/bench_e2e.py
    PYTHONPATH=src python benchmarks/bench_e2e.py --quick \
        --output BENCH_e2e.json

Emits ``BENCH_e2e.json`` (schema: see benchmarks/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from repro.core.config import LeapsConfig
from repro.core.detector import LeapsDetector
from repro.etw.capture import (
    captures_byte_identical,
    convert_log,
    load_capture,
    write_capture,
)
from repro.etw.fastparse import parse_fast
from repro.etw.parser import read_log_lines

from repro.datasets.generation import DEFAULT_TRAIN_EVENTS, generate_dataset

from tests.oracles.capture import write_capture_naive

DATA_DIR = REPO_ROOT / "benchmarks" / ".data"

SCHEMA = "leaps-bench-e2e/v2"
#: golden datasets with all three logs, as in bench_scan.py
DEFAULT_DATASETS = (
    "notepad++_reverse_tcp_online",
    "notepad++_reverse_https_online",
    "notepad++_reverse_https",
    "notepad++_codeinject",
)


def is_generated_cache(name: str) -> bool:
    """Whether a ``benchmarks/.data`` entry is a generated-corpus cache
    (``<dataset>-s<seed>-gen...``) rather than a golden dataset."""
    return "-gen" in name


def has_golden_data() -> bool:
    """Whether ``benchmarks/.data`` holds at least one golden dataset
    (generated ``-gen`` caches do not count)."""
    if not DATA_DIR.is_dir():
        return False
    return any(
        entry.is_dir() and not is_generated_cache(entry.name)
        for entry in DATA_DIR.iterdir()
    )


def best_of(repeats: int, fn) -> float:
    return min(
        (lambda t0: (fn(), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(repeats)
    )


def resolve_golden(name: str, seed: int) -> dict:
    matches = sorted(
        match
        for match in DATA_DIR.glob(f"{name}-s{seed}-*")
        if not is_generated_cache(match.name)
    )
    for match in matches:
        paths = {
            "benign": match / "benign.log",
            "mixed": match / "mixed.log",
            "scan": match / "malicious.log",
        }
        if all(path.is_file() for path in paths.values()):
            return paths
    raise FileNotFoundError(
        f"no complete cached dataset for {name!r} seed {seed} under {DATA_DIR}"
    )


def cached_generated_dataset(
    name: str, seed: int, train_events: int, scan_events: int
) -> dict:
    """Generate (or reuse) a cached synthetic corpus under
    ``benchmarks/.data/<name>-s<seed>-gen<train>x<scan>/``.

    Generation is deterministic, so a complete cache is always valid;
    an incomplete one (interrupted run) is regenerated from scratch.
    """
    cache = DATA_DIR / f"{name}-s{seed}-gen{train_events}x{scan_events}"
    expected = ("benign.log", "mixed.log", "malicious.log", "labels.json")
    if not all((cache / entry).is_file() for entry in expected):
        import shutil

        shutil.rmtree(cache, ignore_errors=True)
        generate_dataset(
            name,
            cache,
            seed,
            train_events=train_events,
            scan_events=scan_events,
        )
    return {
        "benign": cache / "benign.log",
        "mixed": cache / "mixed.log",
        "scan": cache / "malicious.log",
    }


def bench_corpus(
    name: str, paths: dict, source: str, config: LeapsConfig, repeats: int
) -> dict:
    detector = LeapsDetector(config)
    detector.train_from_logs(
        read_log_lines(paths["benign"]), read_log_lines(paths["mixed"])
    )

    text_path = paths["scan"]
    text_bytes = text_path.stat().st_size
    n_lines = len(read_log_lines(text_path))

    with tempfile.TemporaryDirectory() as scratch:
        t0 = time.perf_counter()
        capture_path = convert_log(
            text_path, Path(scratch) / "scan.leapscap", policy="drop"
        )
        convert_s = time.perf_counter() - t0
        capture_bytes = sum(
            f.stat().st_size for f in capture_path.iterdir()
        )

        # -- ingest only: raw bytes → EventRecords ---------------------
        text_events = parse_fast(text_path.read_bytes(), policy="drop")
        capture_events = list(load_capture(capture_path).events)
        if capture_events != text_events:
            raise AssertionError(f"{name}: capture events diverged from text")
        ingest_text_s = best_of(
            repeats,
            lambda: parse_fast(text_path.read_bytes(), policy="drop"),
        )
        ingest_capture_s = best_of(
            repeats, lambda: load_capture(capture_path).events
        )

        # -- writer: naive loop vs vectorized assembly -----------------
        # (same parsed events, columns sidecar warm — the convert path)
        col_events = parse_fast(
            text_path.read_bytes(), policy="drop", columns=True
        )
        naive_dir = Path(scratch) / "naive.leapscap"
        vec_dir = Path(scratch) / "vec.leapscap"
        write_naive_s = best_of(
            repeats, lambda: write_capture_naive(naive_dir, col_events)
        )
        write_vec_s = best_of(
            repeats, lambda: write_capture(vec_dir, col_events)
        )
        writer_identical = captures_byte_identical(naive_dir, vec_dir)
        if not writer_identical:
            raise AssertionError(
                f"{name}: vectorized writer output diverged from naive"
            )

        # -- end to end: raw bytes → detections ------------------------
        text_scan = detector.scan_logs([str(text_path)], policy="drop")
        capture_scan = detector.scan_logs([str(capture_path)], policy="drop")
        identical = (
            text_scan[0].detections == capture_scan[0].detections
        )
        if not identical:
            raise AssertionError(
                f"{name}: capture-path detections diverged from text"
            )
        e2e_text_s = best_of(
            repeats,
            lambda: detector.scan_logs([str(text_path)], policy="drop"),
        )
        e2e_capture_s = best_of(
            repeats,
            lambda: detector.scan_logs([str(capture_path)], policy="drop"),
        )

    detections = text_scan[0].detections
    return {
        "dataset": name,
        "source": source,
        "lines": n_lines,
        "events": len(text_events),
        "text_bytes": text_bytes,
        "capture_bytes": capture_bytes,
        "convert_s": convert_s,
        "writer": {
            "naive_s": write_naive_s,
            "vectorized_s": write_vec_s,
            "naive_events_per_s": len(col_events) / write_naive_s,
            "vectorized_events_per_s": len(col_events) / write_vec_s,
            "speedup": write_naive_s / write_vec_s,
            "byte_identical": writer_identical,
        },
        "ingest": {
            "text_s": ingest_text_s,
            "capture_s": ingest_capture_s,
            "text_lines_per_s": n_lines / ingest_text_s,
            "capture_lines_per_s": n_lines / ingest_capture_s,
            "speedup": ingest_text_s / ingest_capture_s,
        },
        "e2e": {
            "text_s": e2e_text_s,
            "capture_s": e2e_capture_s,
            "text_lines_per_s": n_lines / e2e_text_s,
            "capture_lines_per_s": n_lines / e2e_capture_s,
            "speedup": e2e_text_s / e2e_capture_s,
            "windows": len(detections),
            "flagged": sum(1 for d in detections if d.malicious),
            "detections_bit_identical": identical,
        },
    }


def build_config(args: argparse.Namespace) -> LeapsConfig:
    # Single-point grid: training cost is not what this benchmark
    # measures; the scan-side config matches the fleet-triage regime.
    return LeapsConfig(
        lam_grid=(1.0,),
        sigma2_grid=(30.0,),
        cv_folds=0,
        max_train_windows=200 if args.quick else 400,
        seed=args.seed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated golden dataset names (used when "
             "benchmarks/.data/ exists)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scan-events", type=int, default=0,
        help="synthetic scan-log size in events (0 = 150000, or 20000 "
             "with --quick)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply synthetic corpus sizes (train and scan events)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats; each timing keeps the best run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one corpus, smaller logs, one repeat — for smoke tests",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_e2e.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    config = build_config(args)
    repeats = 1 if args.quick else args.repeats
    scan_events = args.scan_events or (20000 if args.quick else 150000)

    results = []
    if has_golden_data():
        names = [d.strip() for d in args.datasets.split(",") if d.strip()]
        if args.quick:
            names = names[:1]
        corpora = [
            (name, resolve_golden(name, args.seed), "golden")
            for name in names
        ]
    else:
        # Generate a real Table-I scenario (repro.datasets) instead
        # of the retired ad-hoc corpus — same pipeline shape as the
        # golden captures, deterministic on any fresh clone, cached
        # under benchmarks/.data/ so reruns skip regeneration.
        fallback = "vim_reverse_tcp"
        train_events = int(round(DEFAULT_TRAIN_EVENTS * args.scale))
        synth_scan_events = int(round(scan_events * args.scale))
        print(
            "golden cache missing; using cached deterministic "
            f"synthetic dataset {fallback!r} "
            f"({train_events}x{synth_scan_events})",
            flush=True,
        )
        paths = cached_generated_dataset(
            fallback, args.seed, train_events, synth_scan_events
        )
        corpora = [(f"{fallback}-s{args.seed}", paths, "synthetic")]
    for name, paths, source in corpora:
        print(f"benchmarking {name} ({source}) ...", flush=True)
        result = bench_corpus(name, paths, source, config, repeats)
        ingest, e2e = result["ingest"], result["e2e"]
        writer = result["writer"]
        print(
            f"  ingest: {ingest['text_lines_per_s']:,.0f} → "
            f"{ingest['capture_lines_per_s']:,.0f} l/s "
            f"({ingest['speedup']:.1f}x)   e2e: "
            f"{e2e['text_lines_per_s']:,.0f} → "
            f"{e2e['capture_lines_per_s']:,.0f} l/s "
            f"({e2e['speedup']:.1f}x)   writer: "
            f"{writer['speedup']:.1f}x",
            flush=True,
        )
        results.append(result)

    ingest_speedups = [r["ingest"]["speedup"] for r in results]
    e2e_speedups = [r["e2e"]["speedup"] for r in results]
    writer_speedups = [r["writer"]["speedup"] for r in results]
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
            "repeats": repeats,
            "seed": args.seed,
            "scan_events": scan_events,
        },
        "datasets": results,
        "summary": {
            "datasets": len(results),
            "source": results[0]["source"],
            "min_ingest_speedup": min(ingest_speedups),
            "min_e2e_speedup": min(e2e_speedups),
            "min_writer_speedup": min(writer_speedups),
            "writer_byte_identical": all(
                r["writer"]["byte_identical"] for r in results
            ),
            "geomean_e2e_speedup": float(
                np.exp(np.mean(np.log(e2e_speedups)))
            ),
            "all_bit_identical": all(
                r["e2e"]["detections_bit_identical"] for r in results
            ),
        },
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
