"""Table-I reproduction bench: generation fast path + WSVM-vs-paper ACC.

For every row of the 21-dataset catalog this bench

1. times the column-synthesis generator against the per-event tracer
   oracle in ``tests/oracles/generation.py`` (``format="both"``: text
   logs + ``.leapscap`` captures) and asserts the two emit
   byte-identical datasets,
2. trains a WSVM and a plain SVM with the exact protocol of
   ``tests/test_e2e_generated.py`` and reports ACC/PPV/TPR/TNR/NPV
   next to the paper's Table-I numbers, and
3. scores every *event* (not just every window) of the malicious log
   against the exact ground truth in ``labels.json`` — per-event score
   is the minimum decision value over covering windows — and reports
   the ROC AUC of that per-event score.

A separate block times ``generate_catalog`` over the same rows at
``n_jobs`` 1 and 2 (median of ``--repeats`` runs each) and checks that
both write identical bytes.  Generation is timed against tmpfs
(``/dev/shm`` when available) so the numbers measure synthesis, not
the durability of the backing disk.

Output: ``BENCH_table1.json`` (committed at the repo root) plus the
measured-vs-paper table EXPERIMENTS.md embeds, also written to
``benchmarks/out/table1_vs_paper.txt``.

Usage::

    PYTHONPATH=src python benchmarks/bench_table1.py            # full, slow
    PYTHONPATH=src python benchmarks/bench_table1.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for tests.oracles

from repro import LeapsConfig, LeapsDetector  # noqa: E402
from repro.datasets.catalog import CATALOG  # noqa: E402
from repro.datasets.generation import (  # noqa: E402
    DEFAULT_SCAN_EVENTS,
    DEFAULT_TRAIN_EVENTS,
    generate_catalog,
    generate_dataset,
)
from repro.etw.capture import CAPTURE_SUFFIX, captures_byte_identical  # noqa: E402
from repro.etw.parser import RawLogParser, serialize_events  # noqa: E402
from repro.learning.metrics import ConfusionMatrix  # noqa: E402

from tests.oracles.generation import generate_dataset_naive  # noqa: E402

LOG_NAMES = ("benign.log", "mixed.log", "malicious.log")

#: Paper Table-I values (LEAPS, DSN 2015) — the parenthesized numbers
#: in EXPERIMENTS.md, keyed ACC/PPV/TPR/TNR/NPV.
PAPER_TABLE1 = {
    "winscp_reverse_tcp": (0.932, 0.999, 0.865, 0.999, 0.881),
    "winscp_reverse_https": (0.927, 0.991, 0.862, 0.992, 0.878),
    "chrome_reverse_tcp": (0.877, 0.998, 0.755, 0.999, 0.803),
    "chrome_reverse_https": (0.907, 0.998, 0.815, 0.999, 0.844),
    "notepad++_reverse_tcp": (0.846, 0.998, 0.693, 0.998, 0.765),
    "notepad++_reverse_https": (0.866, 0.998, 0.733, 0.998, 0.789),
    "putty_reverse_tcp": (0.886, 0.815, 0.998, 0.774, 0.998),
    "putty_reverse_https": (0.869, 0.999, 0.739, 0.999, 0.793),
    "vim_reverse_tcp": (0.914, 0.995, 0.832, 0.996, 0.856),
    "vim_reverse_https": (0.919, 0.998, 0.839, 0.999, 0.861),
    "vim_codeinject": (0.852, 0.985, 0.715, 0.989, 0.776),
    "notepad++_codeinject": (0.802, 0.948, 0.639, 0.965, 0.728),
    "putty_codeinject": (0.802, 0.919, 0.661, 0.942, 0.736),
    "putty_reverse_tcp_online": (0.894, 0.825, 0.999, 0.789, 0.999),
    "putty_reverse_https_online": (0.869, 0.999, 0.738, 0.999, 0.792),
    "notepad++_reverse_tcp_online": (0.927, 0.991, 0.861, 0.992, 0.877),
    "notepad++_reverse_https_online": (0.845, 0.998, 0.690, 0.999, 0.763),
    "vim_reverse_tcp_online": (0.963, 0.933, 0.998, 0.928, 0.998),
    "vim_reverse_https_online": (0.919, 0.995, 0.842, 0.996, 0.863),
    "winscp_reverse_tcp_online": (0.950, 0.996, 0.904, 0.996, 0.912),
    "winscp_reverse_https_online": (0.921, 0.998, 0.843, 0.998, 0.864),
}

METRIC_KEYS = ("acc", "ppv", "tpr", "tnr", "npv")

QUICK_DATASETS = ("vim_reverse_tcp", "putty_codeinject")


def scratch_root() -> Path:
    """tmpfs scratch when available — generation timing must not
    measure the backing disk."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return shm
    return Path(tempfile.gettempdir())


def fast_config(weighted: bool) -> LeapsConfig:
    """Exact training protocol of tests/test_e2e_generated.py."""
    return LeapsConfig(
        window_events=10,
        stride=5,
        weighted=weighted,
        lam_grid=(1.0, 10.0),
        sigma2_grid=(30.0,),
        cv_folds=2,
        max_train_windows=400,
        seed=0,
    )


def datasets_byte_identical(fast: Path, naive: Path) -> bool:
    for name in LOG_NAMES:
        if (fast / name).read_bytes() != (naive / name).read_bytes():
            return False
        fast_cap = (fast / name).with_suffix(CAPTURE_SUFFIX)
        naive_cap = (naive / name).with_suffix(CAPTURE_SUFFIX)
        if not captures_byte_identical(fast_cap, naive_cap):
            return False
    return (fast / "labels.json").read_bytes() == (
        naive / "labels.json"
    ).read_bytes()


def timed_generate(generate, name, dst, seed, train_events, scan_events,
                   repeats=1):
    """Best-of-``repeats`` wall time for one full dataset generation."""
    best = None
    for _ in range(repeats):
        if dst.exists():
            shutil.rmtree(dst)
        start = time.perf_counter()
        generate(
            name,
            dst,
            seed=seed,
            train_events=train_events,
            scan_events=scan_events,
            format="both",
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_generation(name, scratch, seed, train_events, scan_events, repeats):
    n_events = 2 * train_events + scan_events
    fast_dir = scratch / f"{name}-fast"
    naive_dir = scratch / f"{name}-naive"
    fast_s = timed_generate(
        generate_dataset, name, fast_dir, seed, train_events, scan_events,
        repeats=repeats,
    )
    naive_s = timed_generate(
        generate_dataset_naive, name, naive_dir, seed, train_events,
        scan_events,
    )
    identical = datasets_byte_identical(fast_dir, naive_dir)
    shutil.rmtree(naive_dir)
    return fast_dir, {
        "events": n_events,
        "fast_s": fast_s,
        "naive_s": naive_s,
        "fast_events_per_s": n_events / fast_s,
        "naive_events_per_s": n_events / naive_s,
        "speedup": naive_s / fast_s,
        "byte_identical": identical,
    }


def split_benign(root: Path):
    events = RawLogParser().parse_lines(
        (root / "benign.log").read_text().splitlines()
    )
    half = len(events) // 2
    return serialize_events(events[:half]), serialize_events(events[half:])


def evaluate_detector(weighted, benign_train, benign_test, mixed, malicious):
    detector = LeapsDetector(fast_config(weighted))
    detector.train_from_logs(benign_train, mixed)
    benign_hits = detector.scan_log(benign_test)
    malicious_hits = detector.scan_log(malicious)
    y_true = [+1] * len(benign_hits) + [-1] * len(malicious_hits)
    y_pred = [
        -1 if d.malicious else +1 for d in benign_hits + malicious_hits
    ]
    cm = ConfusionMatrix.from_labels(y_true, y_pred)
    return detector, malicious_hits, cm


def rankdata(values: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with tie averaging — Mann-Whitney convention."""
    _, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    cum = np.cumsum(counts)
    average = cum - (counts - 1) / 2.0
    return average[inverse]


def per_event_roc(detections, attack_eids, n_events):
    """ROC AUC of the per-event score: every event inherits the minimum
    decision value over the windows covering it (more negative = more
    malicious); uncovered events are excluded."""
    scores = np.full(n_events, np.inf)
    for d in detections:
        region = slice(d.start_eid, d.end_eid + 1)
        scores[region] = np.minimum(scores[region], d.score)
    labels = np.zeros(n_events, dtype=bool)
    labels[np.asarray(sorted(attack_eids), dtype=int)] = True
    covered = np.isfinite(scores)
    scores, labels = scores[covered], labels[covered]
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        return {"auc": None, "events_scored": int(len(labels)),
                "attack_events": n_pos}
    ranks = rankdata(-scores)  # higher rank = more malicious
    auc = (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )
    return {
        "auc": auc,
        "events_scored": int(len(labels)),
        "attack_events": n_pos,
    }


def metric_dict(cm: ConfusionMatrix) -> dict:
    return {
        "acc": cm.accuracy,
        "ppv": cm.ppv,
        "tpr": cm.tpr,
        "tnr": cm.tnr,
        "npv": cm.npv,
    }


def bench_row(name, scratch, seed, train_events, scan_events, repeats):
    fast_dir, generation = bench_generation(
        name, scratch, seed, train_events, scan_events, repeats
    )
    try:
        benign_train, benign_test = split_benign(fast_dir)
        mixed = (fast_dir / "mixed.log").read_text().splitlines()
        malicious = (fast_dir / "malicious.log").read_text().splitlines()
        _, wsvm_hits, wsvm_cm = evaluate_detector(
            True, benign_train, benign_test, mixed, malicious
        )
        _, _, svm_cm = evaluate_detector(
            False, benign_train, benign_test, mixed, malicious
        )
        labels = json.loads((fast_dir / "labels.json").read_text())
        mal_labels = labels["logs"]["malicious.log"]
        roc = per_event_roc(
            wsvm_hits, mal_labels["attack_eids"], mal_labels["events"]
        )
    finally:
        shutil.rmtree(fast_dir)
    spec = CATALOG[name]
    paper = dict(zip(METRIC_KEYS, PAPER_TABLE1[name]))
    wsvm = metric_dict(wsvm_cm)
    return {
        "dataset": name,
        "app": spec.app,
        "payload": spec.payload,
        "method": spec.method,
        "generation": generation,
        "wsvm": wsvm,
        "svm": metric_dict(svm_cm),
        "paper": paper,
        "acc_delta_vs_paper": wsvm["acc"] - paper["acc"],
        "per_event": roc,
    }


def bench_jobs_scaling(scratch, names, seed, train_events, scan_events,
                       repeats):
    """Catalog generation across a process pool: ``n_jobs`` 1 and 2
    over the bench's rows must write identical bytes; report the median
    wall time of ``repeats`` runs of each."""
    n_events = len(names) * (2 * train_events + scan_events)
    roots = {}
    runs = []
    for n_jobs in (1, 2):
        root = roots[n_jobs] = scratch / f"jobs-{n_jobs}"
        times = []
        for _ in range(repeats):
            shutil.rmtree(root, ignore_errors=True)
            start = time.perf_counter()
            generate_catalog(
                root,
                seed,
                names=names,
                train_events=train_events,
                scan_events=scan_events,
                format="both",
                n_jobs=n_jobs,
            )
            times.append(time.perf_counter() - start)
        seconds = float(np.median(times))
        runs.append({
            "n_jobs": n_jobs,
            "seconds": seconds,
            "events_per_s": n_events / seconds,
            "byte_identical_with_1": all(
                datasets_byte_identical(
                    root / f"{name}-s{seed}", roots[1] / f"{name}-s{seed}"
                )
                for name in names
            ),
        })
    for root in roots.values():
        shutil.rmtree(root)
    return {"datasets": list(names), "events": n_events, "runs": runs}


def format_table(rows) -> str:
    lines = [
        "| dataset | ACC | PPV | TPR | TNR | NPV |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        cells = [row["dataset"]]
        for key in METRIC_KEYS:
            cells.append(f"{row['wsvm'][key]:.3f} ({row['paper'][key]:.3f})")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="two rows at reduced scale (CI smoke)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-events", type=int, default=None)
    parser.add_argument("--scan-events", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats for the generator timings: best-of "
                             "per row, median for the catalog pool")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", help="restrict to these datasets")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_table1.json")
    parser.add_argument("--table", type=Path,
                        default=REPO_ROOT / "benchmarks" / "out"
                        / "table1_vs_paper.txt")
    args = parser.parse_args(argv)

    if args.quick:
        train_events = args.train_events or 1200
        scan_events = args.scan_events or 600
        names = list(args.only or QUICK_DATASETS)
        repeats = 1
    else:
        train_events = args.train_events or DEFAULT_TRAIN_EVENTS
        scan_events = args.scan_events or DEFAULT_SCAN_EVENTS
        names = list(args.only or CATALOG)
        repeats = args.repeats

    unknown = sorted(set(names) - set(CATALOG))
    if unknown:
        parser.error(f"unknown datasets: {', '.join(unknown)}")

    scratch = Path(
        tempfile.mkdtemp(prefix="leaps-table1-", dir=scratch_root())
    )
    rows = []
    try:
        for name in names:
            row = bench_row(
                name, scratch, args.seed, train_events, scan_events, repeats
            )
            rows.append(row)
            gen = row["generation"]
            print(
                f"{name}: {gen['speedup']:.1f}x "
                f"({gen['fast_events_per_s']:,.0f} vs "
                f"{gen['naive_events_per_s']:,.0f} ev/s, "
                f"identical={gen['byte_identical']}), "
                f"WSVM acc={row['wsvm']['acc']:.3f} "
                f"(paper {row['paper']['acc']:.3f}), "
                f"event AUC={row['per_event']['auc']:.3f}",
                flush=True,
            )
        jobs = bench_jobs_scaling(
            scratch, names, args.seed, train_events, scan_events, repeats
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wsvm_acc = [row["wsvm"]["acc"] for row in rows]
    svm_acc = [row["svm"]["acc"] for row in rows]
    paper_acc = [row["paper"]["acc"] for row in rows]
    aucs = [row["per_event"]["auc"] for row in rows
            if row["per_event"]["auc"] is not None]
    doc = {
        "schema": "leaps-bench-table1/v1",
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "config": {
            "quick": args.quick,
            "seed": args.seed,
            "train_events": train_events,
            "scan_events": scan_events,
            "gen_repeats": repeats,
            "scratch": str(scratch_root()),
        },
        "datasets": rows,
        "jobs_scaling": jobs,
        "summary": {
            "rows": len(rows),
            "min_speedup": min(r["generation"]["speedup"] for r in rows),
            "mean_speedup": float(
                np.mean([r["generation"]["speedup"] for r in rows])
            ),
            "all_byte_identical": all(
                r["generation"]["byte_identical"] for r in rows
            ),
            "wsvm_mean_acc": float(np.mean(wsvm_acc)),
            "svm_mean_acc": float(np.mean(svm_acc)),
            "paper_mean_acc": float(np.mean(paper_acc)),
            "mean_abs_acc_delta": float(
                np.mean([abs(r["acc_delta_vs_paper"]) for r in rows])
            ),
            "wsvm_beats_svm_rows": sum(
                1 for w, s in zip(wsvm_acc, svm_acc) if w >= s
            ),
            "mean_event_auc": float(np.mean(aucs)) if aucs else None,
        },
    }

    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    table = format_table(rows) + "\n"
    args.table.parent.mkdir(parents=True, exist_ok=True)
    args.table.write_text(table)
    print(table)
    summary = doc["summary"]
    print(
        f"rows={summary['rows']} min_speedup={summary['min_speedup']:.1f}x "
        f"byte_identical={summary['all_byte_identical']} "
        f"WSVM mean acc={summary['wsvm_mean_acc']:.3f} "
        f"(paper {summary['paper_mean_acc']:.3f}) "
        f"mean event AUC={summary['mean_event_auc']}"
    )
    print(f"wrote {args.output} and {args.table}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
