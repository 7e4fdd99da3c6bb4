"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_text --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The line
before it is a JSON record of the run (host, set-up samples, tail
percentile, serve generator lateness, ``failed_frac``).

Exit codes: 0 with a result; 1 when a check cannot run; 2 when the
checkout holds no ``src/repro``; 3 when a serve run is invalid because
its load generator fell behind.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import pin_blas_threads  # noqa: E402

# before anything imports numpy
pin_blas_threads()

#: the only end-to-end metric a workload may omit (too few samples)
OPTIONAL_METRICS = {"latency_tail_s"}


def metrics_block(spec: dict, values: dict, trace: bool) -> dict:
    """``values`` as the metrics object BENCHMARK.json names, with its
    units; raises when a metric is missing or unknown."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    names = [metric["name"] for metric in listed]
    missing = [n for n in names if n not in values and n not in OPTIONAL_METRICS]
    unknown = sorted(set(values) - set(names))
    if missing or unknown:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, unknown {unknown}")
    return {
        metric["name"]: {"value": float(values[metric["name"]]),
                         "unit": metric["unit"]}
        for metric in listed
        if metric["name"] in values
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs (the harness's own tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no LEAPS sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workloads.QUICK if args.quick else workloads.FULL,
            run_dir / "data", ROOT / ".perfbench_out",
        )
    except workloads.InvalidRun as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = metrics_block(spec, result["values"], bool(args.trace))
    print(json.dumps(result["info"], default=str))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
