"""Train LEAPS on a Table-I dataset and scan its malicious log.

Run from the repo root:

    PYTHONPATH=src python examples/quickstart.py [dataset-dir]

Without an argument it generates the notepad++ reverse-TCP
online-injection row deterministically with the dataset generator
(``repro.datasets``, DESIGN.md §13) into a temporary directory; pass a
directory written by ``python -m repro.datasets --out`` to use that
row instead.
"""

import sys
import tempfile
from pathlib import Path

from repro import LeapsConfig, LeapsDetector
from repro.datasets import generate_dataset
from repro.etw.parser import RawLogParser, serialize_events

#: the row generated when no dataset directory is given
DATASET_NAME = "notepad++_reverse_tcp_online"


def main() -> int:
    if len(sys.argv) > 1:
        dataset = Path(sys.argv[1])
        if not dataset.is_dir():
            print(f"dataset not found: {dataset}", file=sys.stderr)
            return 1
        return quickstart(dataset)
    with tempfile.TemporaryDirectory(prefix="leaps-quickstart-") as scratch:
        dataset = Path(scratch) / DATASET_NAME
        generate_dataset(DATASET_NAME, dataset, seed=0,
                         train_events=2000, scan_events=1000)
        return quickstart(dataset)


def quickstart(dataset: Path) -> int:
    benign = (dataset / "benign.log").read_text().splitlines()
    mixed = (dataset / "mixed.log").read_text().splitlines()
    malicious = (dataset / "malicious.log").read_text().splitlines()

    # 1. Split the benign log 50/50: first half trains, second half
    #    stands in for clean production traffic.
    events = RawLogParser().parse_lines(benign)
    half = len(events) // 2
    benign_train = serialize_events(events[:half])
    benign_prod = serialize_events(events[half:])

    # 2. Train: benign log of the clean app + mixed log of the
    #    compromised app.  Algorithm 1 infers both CFGs, Algorithm 2
    #    weights the mixed events, the WSVM learns the boundary.
    detector = LeapsDetector(
        LeapsConfig(stride=2, cv_folds=3, lam_grid=(1.0, 10.0),
                    sigma2_grid=(10.0, 60.0), seed=7)
    )
    report = detector.train_from_logs(benign_train, mixed)
    print(f"dataset:            {dataset.name}")
    print(f"benign CFG:         {detector.benign_cfg}")
    print(f"mixed  CFG:         {detector.mixed_cfg}")
    print(f"mean mixed weight:  {report.mean_mixed_weight:.3f}")
    print(f"chosen (λ, σ²):     ({report.grid.lam}, {report.grid.sigma2})")

    # Per-stage wall time from the pipeline's instrumentation — the
    # quickstart doubles as a minimal perf demo (see benchmarks/).  The
    # first four stages are the program-analysis "prepare" phase
    # (Algorithms 1 and 2); the rest is model selection.
    prepare_stages = ("parse", "partition", "cfg_inference", "weights")
    total = sum(seconds for _, seconds in report.stage_seconds)
    prepare = sum(s for stage, s in report.stage_seconds if stage in prepare_stages)
    print("stage timings:")
    for stage, seconds in report.stage_seconds:
        print(f"  {stage:<14} {seconds * 1000:9.1f} ms  ({seconds / total:5.1%})")
    print(f"  {'prepare':<14} {prepare * 1000:9.1f} ms  (parse + partition"
          " + cfg_inference + weights)")
    print(f"  {'model select':<14} {(total - prepare) * 1000:9.1f} ms")
    print(f"  {'total':<14} {total * 1000:9.1f} ms")

    # 3. Scan production logs.
    for label, lines in (("clean traffic", benign_prod), ("malicious log", malicious)):
        detections = detector.scan_log(lines)
        flagged, total = detector.alert_summary(detections)
        print(f"{label}: {flagged}/{total} windows flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
