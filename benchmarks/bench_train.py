"""Training-path benchmark: per-stage timings + fast-vs-naive grid search.

Times every training stage (parse → CFG inference → weights →
featurize → grid search → final fit) on cached golden datasets and
compares the production training path (shared squared-distance
matrix, σ²-derived Grams, fold slicing, vectorized SMO partner
selection, optional parallel CV) against the naive reference path
from ``tests/oracles`` (per-cell kernel recomputation, scalar partner
walk, serial CV).  Both paths must select the same (λ, σ²) and the
final models must produce bit-identical decision values — the
benchmark fails loudly otherwise.

Usage (from the repo root):

    PYTHONPATH=src python benchmarks/bench_train.py
    PYTHONPATH=src python benchmarks/bench_train.py \
        --datasets notepad++_reverse_tcp_online,notepad++_codeinject \
        --n-jobs 2 --output BENCH_train.json

Emits ``BENCH_train.json`` (schema: see benchmarks/README.md).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import sys
import time
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # for tests.oracles

from repro.core.config import LeapsConfig  # noqa: E402
from repro.core.pipeline import LeapsPipeline  # noqa: E402
from repro.etw.parser import RawLogParser, serialize_events  # noqa: E402
from repro.learning.cross_validation import grid_search_wsvm  # noqa: E402
from repro.learning.kernels import PrecomputedKernel, gaussian_kernel  # noqa: E402
from repro.learning.metrics import accuracy  # noqa: E402
from repro.learning.wsvm import WeightedSVM  # noqa: E402

from tests.oracles.grid import grid_search_naive  # noqa: E402
from tests.oracles.smo import ReferenceWeightedSVM  # noqa: E402

DATA_DIR = REPO_ROOT / "benchmarks" / ".data"

SCHEMA = "leaps-bench-train/v1"
#: the complete (benign + mixed + malicious) datasets in the golden cache
DEFAULT_DATASETS = (
    "notepad++_reverse_tcp_online",
    "notepad++_reverse_https_online",
    "notepad++_reverse_https",
    "notepad++_codeinject",
)


def resolve_dataset(name: str, seed: int) -> Path:
    """Locate ``.data/<name>-s<seed>-<hash>/`` with all three logs."""
    matches = sorted(DATA_DIR.glob(f"{name}-s{seed}-*"))
    complete = [
        m for m in matches
        if all((m / log).is_file() for log in ("benign.log", "mixed.log", "malicious.log"))
    ]
    if not complete:
        raise FileNotFoundError(
            f"no complete cached dataset for {name!r} seed {seed} under {DATA_DIR}"
        )
    return complete[0]


def load_logs(dataset: Path) -> dict:
    """Benign 50/50 split (paper protocol) + mixed + malicious logs."""
    benign = (dataset / "benign.log").read_text().splitlines()
    events = RawLogParser().parse_lines(benign)
    half = len(events) // 2
    return {
        "benign_train": serialize_events(events[:half]),
        "benign_holdout": serialize_events(events[half:]),
        "mixed": (dataset / "mixed.log").read_text().splitlines(),
        "malicious": (dataset / "malicious.log").read_text().splitlines(),
    }


def bench_dataset(name: str, config: LeapsConfig, n_jobs: int) -> dict:
    dataset = resolve_dataset(name, config.seed)
    logs = load_logs(dataset)
    clock = time.perf_counter

    # -- full instrumented training run (fast path) --------------------
    pipeline = LeapsPipeline(config)
    started = clock()
    report = pipeline.train(logs["benign_train"], logs["mixed"])
    train_total_s = clock() - started

    # -- ACC sanity on the held-out logs -------------------------------
    benign_detections, benign_scores = pipeline.score_log(logs["benign_holdout"])
    malicious_detections, malicious_scores = pipeline.score_log(logs["malicious"])
    y_true = np.concatenate(
        [np.ones(len(benign_detections)), -np.ones(len(malicious_detections))]
    )
    y_pred = np.where(np.concatenate([benign_scores, malicious_scores]) >= 0, 1.0, -1.0)
    acc = {
        "overall": accuracy(y_true, y_pred),
        "benign_holdout": accuracy(np.ones(len(benign_scores)),
                                   np.where(benign_scores >= 0, 1.0, -1.0)),
        "malicious": accuracy(-np.ones(len(malicious_scores)),
                              np.where(malicious_scores >= 0, 1.0, -1.0)),
    }

    # -- grid search: naive/serial vs cached/parallel ------------------
    # Identical preparation and RNG state per path, so fold assignment,
    # selection, and the final models are directly comparable.
    probe = LeapsPipeline(config)
    rng = config.rng()
    prepared = probe.prepare_training(logs["benign_train"], logs["mixed"], rng=rng)
    rng_naive, rng_fast = copy.deepcopy(rng), copy.deepcopy(rng)
    grid_args = (
        prepared.X, prepared.y, prepared.importances,
        config.lam_grid, config.sigma2_grid, config.cv_folds,
    )
    svm_params = probe.svm_params()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = clock()
        grid_naive = grid_search_naive(
            *grid_args, rng_naive, svm_params=svm_params
        )
        naive_grid_s = clock() - started

        started = clock()
        cache = PrecomputedKernel(prepared.X)
        grid_fast = grid_search_wsvm(
            *grid_args, rng_fast,
            svm_params=svm_params, n_jobs=n_jobs, cache=cache,
        )
        fast_grid_s = clock() - started

        # final models, one per path
        started = clock()
        model_naive = ReferenceWeightedSVM(
            kernel=gaussian_kernel(grid_naive.sigma2), lam=grid_naive.lam,
            **svm_params,
        )
        model_naive.fit(prepared.X, prepared.y, prepared.importances)
        naive_fit_s = clock() - started

        started = clock()
        model_fast = WeightedSVM(
            kernel=gaussian_kernel(grid_fast.sigma2), lam=grid_fast.lam, **svm_params
        )
        model_fast.fit(
            prepared.X, prepared.y, prepared.importances,
            gram=cache.gram(grid_fast.sigma2),
        )
        fast_fit_s = clock() - started
    sweep_cap_warnings = sum(
        1 for w in caught if issubclass(w.category, UserWarning)
    )

    # -- equivalence: selection and bit-identical decisions ------------
    identical_selection = (grid_naive.lam, grid_naive.sigma2) == (
        grid_fast.lam, grid_fast.sigma2,
    ) and grid_naive.table == grid_fast.table
    eval_matrices = [
        probe.featurize_log(logs["benign_holdout"])[1],
        probe.featurize_log(logs["malicious"])[1],
        prepared.X,
    ]
    eval_X = np.vstack([m for m in eval_matrices if len(m)])
    decisions_naive = model_naive.decision_function(eval_X)
    decisions_fast = model_fast.decision_function(eval_X)
    decisions_bit_identical = bool(np.array_equal(decisions_naive, decisions_fast))
    if not identical_selection or not decisions_bit_identical:
        raise AssertionError(
            f"{name}: fast path diverged from naive reference "
            f"(selection identical: {identical_selection}, "
            f"decisions bit-identical: {decisions_bit_identical})"
        )

    return {
        "dataset": name,
        "dataset_dir": dataset.name,
        "seed": config.seed,
        "n_train_windows": int(len(prepared.X)),
        "grid_cells": len(config.lam_grid) * len(config.sigma2_grid) * config.cv_folds,
        "train_total_s": train_total_s,
        "stages_s": {stage: seconds for stage, seconds in report.stage_seconds},
        "grid": {
            "naive_s": naive_grid_s,
            "fast_s": fast_grid_s,
            "speedup": naive_grid_s / fast_grid_s,
            "final_fit_naive_s": naive_fit_s,
            "final_fit_fast_s": fast_fit_s,
            "selected": {"lam": grid_fast.lam, "sigma2": grid_fast.sigma2},
            "identical_selection": identical_selection,
            "decisions_bit_identical": decisions_bit_identical,
        },
        "solver": {
            "converged": bool(pipeline.model.converged_),
            "n_sweeps": int(pipeline.model.n_sweeps_),
            "sweep_cap_warnings": sweep_cap_warnings,
        },
        "acc": acc,
    }


def build_config(args: argparse.Namespace) -> LeapsConfig:
    if args.quick:
        return LeapsConfig(
            lam_grid=(1.0, 10.0),
            sigma2_grid=(30.0,),
            cv_folds=2,
            max_train_windows=200,
            n_jobs=args.n_jobs,
            seed=args.seed,
        )
    return LeapsConfig(n_jobs=args.n_jobs, seed=args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names from benchmarks/.data/",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset + pipeline seed")
    parser.add_argument(
        "--n-jobs", type=int, default=1,
        help="CV workers for the fast path (result is identical for any value)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid / fewer windows — for smoke tests",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_train.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    config = build_config(args)

    results = []
    for name in [d.strip() for d in args.datasets.split(",") if d.strip()]:
        print(f"benchmarking {name} (seed {args.seed}) ...", flush=True)
        result = bench_dataset(name, config, args.n_jobs)
        grid = result["grid"]
        print(
            f"  grid search: naive {grid['naive_s']:.2f}s → "
            f"fast {grid['fast_s']:.2f}s  ({grid['speedup']:.1f}x)  "
            f"ACC {result['acc']['overall']:.3f}",
            flush=True,
        )
        results.append(result)

    speedups = [r["grid"]["speedup"] for r in results]
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
            "lam_grid": list(config.lam_grid),
            "sigma2_grid": list(config.sigma2_grid),
            "cv_folds": config.cv_folds,
            "max_train_windows": config.max_train_windows,
            "n_jobs": args.n_jobs,
            "seed": args.seed,
        },
        "datasets": results,
        "summary": {
            "datasets": len(results),
            "min_grid_speedup": min(speedups),
            "geomean_grid_speedup": float(np.exp(np.mean(np.log(speedups)))),
        },
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
