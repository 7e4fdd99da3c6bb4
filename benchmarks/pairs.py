"""Paired perfbench runs: a base revision against the working tree.

    python benchmarks/pairs.py --base HEAD~1 --workload scan_capture \\
        --pairs 10 --first-seed 201 --out /tmp/pairs.json

The base revision is exported with ``git archive`` into a temporary
directory, so the working tree is never touched.  Pair ``i`` runs
``perfbench/run.py --seed first_seed + i --trace 0`` on both sides, the
base first on even pairs and the working tree first on odd ones.  Run it
from inside the repository; the command and the metric bounds come from
the working tree's ``BENCHMARK.json``.

The JSON written to ``--out`` holds every run (seed, side, exit code,
the stderr tail of a failed run, perfbench's info line and metrics) and,
per metric, each side's median and quartiles, the median paired ratio
(change / base) with its range, the pairs each side won (ties count for
neither), whether the change's median is within the metric's bound, and
whether its median gain is larger than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

#: lines of a failed run's stderr kept in the JSON
STDERR_TAIL_LINES = 20


def repo_root() -> Path:
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True, check=True,
    )
    return Path(out.stdout.strip())


def export_revision(root: Path, rev: str, dest: Path) -> str:
    """Extract ``rev``'s tree into ``dest``; returns the commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", commit], cwd=root, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(command: List[str], cwd: Path, workload: str, seed: int,
             seconds: str) -> dict:
    """One perfbench run; its result and info lines when it printed them."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", seconds, "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=600 + 20 * float(seconds))
        code, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as expired:
        code, stdout, stderr = None, "", f"timed out after {expired.timeout} s"
    lines = stdout.strip().splitlines()
    record: dict = {"seed": seed, "exit_code": code, "info": None, "result": None}
    try:
        record["result"] = json.loads(lines[-1])
        record["info"] = json.loads(lines[-2])
    except (IndexError, ValueError):
        pass
    if code != 0 or record["result"] is None:
        record["stderr_tail"] = stderr.splitlines()[-STDERR_TAIL_LINES:]
    return record


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: List[float]) -> dict:
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "n": len(values)}


def metric_value(run: dict, name: str) -> Optional[float]:
    result = run["result"]
    if run["exit_code"] != 0 or not result or not result.get("correct"):
        return None
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def summarize(pairs: List[Dict[str, dict]], spec: dict) -> Dict[str, dict]:
    """Per metric of ``spec``: both sides' spreads, the paired ratios,
    the pairs won, and the bound and interquartile-range checks."""
    out: Dict[str, dict] = {}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        both = [
            (metric_value(pair["base"], name), metric_value(pair["change"], name))
            for pair in pairs
        ]
        both = [(base, change) for base, change in both
                if base is not None and change is not None]
        if not both:
            continue
        bases = [base for base, _ in both]
        changes = [change for _, change in both]
        sign = 1.0 if better == "higher" else -1.0
        base, change = spread(bases), spread(changes)
        ratios = [c / b for b, c in both if b]
        gain = sign * (change["median"] - base["median"])
        entry = {
            "unit": metric["unit"], "better": better, "bound": metric["bound"],
            "base": base, "change": change,
            "pairs": len(both),
            "change_won": sum(sign * (c - b) > 0 for b, c in both),
            "base_won": sum(sign * (c - b) < 0 for b, c in both),
            "gain_exceeds_base_iqr": gain > base["q3"] - base["q1"],
        }
        if ratios:
            entry["ratio"] = {"median": quantile(ratios, 0.5),
                              "min": min(ratios), "max": max(ratios)}
        if base["median"]:
            worse = -gain / abs(base["median"])
            entry["within_bound"] = worse <= metric["bound"]
        out[name] = entry
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    root = repo_root()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = f"{args.seconds:g}"
    pairs: List[Dict[str, dict]] = []
    runs: List[dict] = []
    with tempfile.TemporaryDirectory() as scratch:
        base_root = Path(scratch) / "base"
        base_root.mkdir()
        commit = export_revision(root, args.base, base_root)
        sides = {"base": base_root, "change": root}
        for index in range(args.pairs):
            seed = args.first_seed + index
            order = ("base", "change") if index % 2 == 0 else ("change", "base")
            pair: Dict[str, dict] = {}
            for side in order:
                run = run_once(spec["command"], sides[side], args.workload,
                               seed, seconds)
                run.update(pair=index, side=side)
                pair[side] = run
                runs.append(run)
                print(f"pair {index} seed {seed} {side}: exit {run['exit_code']}",
                      file=sys.stderr)
            pairs.append(pair)

    doc = {
        "workload": args.workload,
        "base": {"rev": args.base, "commit": commit},
        "seconds": args.seconds,
        "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
        "failed_runs": sum(run["exit_code"] != 0 for run in runs),
        "metrics": summarize(pairs, spec),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
