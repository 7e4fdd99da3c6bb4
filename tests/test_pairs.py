"""``benchmarks/pairs.py`` against a stub ``perfbench/run.py`` in a
two-commit git repository: alternation, pairing, medians, wins, and the
capture of a failed run."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from tests.conftest import REPO_ROOT

STUB = textwrap.dedent('''
    import argparse, json, os, sys
    from pathlib import Path

    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        parser.add_argument(flag)
    args = parser.parse_args()
    version, seed = int(Path("VERSION").read_text()), int(args.seed)
    with open(os.environ["STUB_LOG"], "a") as log:
        log.write(f"{version} {seed} {args.workload} {args.seconds}\\n")
    if (version, seed) == (3, 13):
        print("Traceback: boom", file=sys.stderr)
        sys.exit(1)
    latency = {(3, 10): 0.5, (3, 12): 2.0}.get((version, seed), 1.0)
    print(json.dumps({"workload": args.workload, "seed": seed}))
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "events_per_s": {"value": 100.0 * version + seed, "unit": "events/s"},
        "latency_p50_s": {"value": latency, "unit": "s"},
    }}))
''')


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=repo, check=True, capture_output=True,
    )


@pytest.fixture
def repo(tmp_path):
    """Base commit at VERSION 1, HEAD at 2, working tree at 3."""
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "end_to_end": [
            {"name": "events_per_s", "unit": "events/s", "better": "higher",
             "bound": 0.2},
            {"name": "latency_p50_s", "unit": "s", "better": "lower",
             "bound": 0.2},
        ],
    }))
    git(root, "init", "-q")
    for version in (1, 2):
        (root / "VERSION").write_text(str(version))
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", f"v{version}")
    (root / "VERSION").write_text("3")
    return root


def test_pairs_alternate_and_summarize(repo, tmp_path):
    log, out = tmp_path / "runs.log", tmp_path / "pairs.json"
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "pairs.py"),
         "--base", "HEAD~1", "--workload", "scan_capture", "--pairs", "4",
         "--first-seed", "10", "--seconds", "0.5", "--out", str(out)],
        cwd=repo, env={**os.environ, "STUB_LOG": str(log)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # base first on even pairs, both sides of a pair on one seed
    assert log.read_text().splitlines() == [
        f"{version} {seed} scan_capture 0.5"
        for version, seed in [(1, 10), (3, 10), (3, 11), (1, 11),
                              (1, 12), (3, 12), (3, 13), (1, 13)]
    ]
    assert (repo / "VERSION").read_text() == "3"  # working tree untouched
    doc = json.loads(out.read_text())
    assert doc["workload"] == "scan_capture" and doc["seeds"] == [10, 13]
    assert doc["failed_runs"] == 1
    runs = doc["runs"]
    assert [(run["pair"], run["side"], run["seed"]) for run in runs] == [
        (0, "base", 10), (0, "change", 10), (1, "change", 11), (1, "base", 11),
        (2, "base", 12), (2, "change", 12), (3, "change", 13), (3, "base", 13),
    ]
    failed = runs[6]
    assert failed["exit_code"] == 1 and failed["result"] is None
    assert failed["stderr_tail"] == ["Traceback: boom"]
    assert runs[0]["info"] == {"workload": "scan_capture", "seed": 10}
    assert "stderr_tail" not in runs[0]

    # the failed pair drops out: pairs 10, 11 and 12 remain
    rate = doc["metrics"]["events_per_s"]
    assert rate["pairs"] == 3
    assert rate["base"]["median"] == 111.0 and rate["change"]["median"] == 311.0
    assert (rate["base"]["q1"], rate["base"]["q3"]) == (110.5, 111.5)
    assert (rate["change_won"], rate["base_won"]) == (3, 0)
    assert rate["ratio"] == {
        "median": 311.0 / 111.0, "min": 312.0 / 112.0, "max": 310.0 / 110.0,
    }
    assert rate["within_bound"] and rate["gain_exceeds_base_iqr"]
    latency = doc["metrics"]["latency_p50_s"]
    # a win, a tie and a loss
    assert (latency["change_won"], latency["base_won"]) == (1, 1)
    assert latency["change"]["median"] == latency["base"]["median"] == 1.0
    assert latency["within_bound"] and not latency["gain_exceeds_base_iqr"]
