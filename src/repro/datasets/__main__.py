"""CLI: generate Table-I datasets.

Examples::

    python -m repro.datasets --out /tmp/leaps-data            # all 21
    python -m repro.datasets --out /tmp/d --only vim_reverse_tcp
    python -m repro.datasets --selfcheck --only vim_codeinject

``--selfcheck`` generates each selected dataset twice into separate
directories and verifies byte-identical output — the in-process half
of the determinism contract (the cross-process half lives in
``tests/test_datasets.py``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.datasets.catalog import CATALOG
from repro.datasets.generation import (
    DEFAULT_SCAN_EVENTS,
    DEFAULT_TRAIN_EVENTS,
    OUTPUT_FORMATS,
    generate_catalog,
)


def _dataset_bytes(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.datasets",
        description="Generate LEAPS Table-I benign/mixed/malicious log triples.",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="output root (default: temp dir for --selfcheck)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-events", type=int,
                        default=DEFAULT_TRAIN_EVENTS)
    parser.add_argument("--scan-events", type=int,
                        default=DEFAULT_SCAN_EVENTS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply --train-events/--scan-events "
                             "(paper scale × N)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="text",
                        help="outputs per log: text .log, columnar "
                             ".leapscap capture, or both (default: text)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="generate datasets across N processes "
                             "(default: 1)")
    parser.add_argument("--only", nargs="*", default=[], metavar="NAME",
                        help=f"dataset names (choices: {', '.join(CATALOG)})")
    parser.add_argument("--selfcheck", action="store_true",
                        help="generate twice and verify byte-identical output")
    parser.add_argument("--list", action="store_true",
                        help="list catalog names and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, spec in CATALOG.items():
            print(f"{name}: app={spec.app} payload={spec.payload} "
                  f"method={spec.method}")
        return 0

    unknown = [name for name in args.only if name not in CATALOG]
    if unknown:
        parser.error(f"unknown dataset(s): {', '.join(unknown)}")

    if args.out is None and not args.selfcheck:
        parser.error("--out is required unless --selfcheck")

    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    params = dict(
        names=args.only,
        train_events=int(round(args.train_events * args.scale)),
        scan_events=int(round(args.scan_events * args.scale)),
        format=args.format,
        n_jobs=args.jobs,
    )

    if args.selfcheck:
        with tempfile.TemporaryDirectory(prefix="leaps-selfcheck-") as tmp:
            first = Path(tmp) / "a"
            second = Path(tmp) / "b"
            generate_catalog(first, args.seed, **params)
            generate_catalog(second, args.seed, **params)
            left, right = _dataset_bytes(first), _dataset_bytes(second)
            if left != right:
                diverging = sorted(
                    key for key in set(left) | set(right)
                    if left.get(key) != right.get(key)
                )
                print(f"DETERMINISM FAILURE: {len(diverging)} files differ:",
                      file=sys.stderr)
                for key in diverging[:20]:
                    print(f"  {key}", file=sys.stderr)
                return 1
            print(f"selfcheck OK: {len(left)} files byte-identical "
                  f"across two generations")
            if args.out is None:
                return 0

    generated = generate_catalog(args.out, args.seed, **params)
    for name, dataset in generated.items():
        sizes = {
            log_name: log.n_events for log_name, log in dataset.logs.items()
        }
        print(f"{name} -> {dataset.root} {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
