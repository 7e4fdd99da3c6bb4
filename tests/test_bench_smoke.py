"""Bench harness smoke tests (slow): run each committed bench in its
quick mode and validate the JSON it emits."""

import json
import os
import subprocess
import sys

import pytest

from tests.conftest import REPO_ROOT

pytestmark = pytest.mark.slow

REQUIRED_TABLE1_ROW_KEYS = {
    "dataset", "app", "payload", "method", "generation", "wsvm", "svm",
    "paper", "acc_delta_vs_paper", "per_event",
}


def test_bench_table1_quick_emits_valid_json(tmp_path):
    # bench_table1 generates its corpus from scratch
    output = tmp_path / "BENCH_table1.json"
    table = tmp_path / "table1_vs_paper.txt"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_table1.py"),
            "--quick",
            "--output", str(output),
            "--table", str(table),
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr

    payload = json.loads(output.read_text())
    assert payload["schema"] == "leaps-bench-table1/v1"
    assert {"created_utc", "host", "config", "datasets", "jobs_scaling",
            "summary"} <= set(payload)
    assert payload["summary"]["rows"] == len(payload["datasets"]) == 2
    assert payload["summary"]["all_byte_identical"] is True
    assert payload["summary"]["min_speedup"] > 0
    for row in payload["datasets"]:
        assert REQUIRED_TABLE1_ROW_KEYS <= set(row)
        assert row["generation"]["byte_identical"] is True
        assert row["generation"]["events"] > 0
        assert 0.0 <= row["wsvm"]["acc"] <= 1.0
        assert 0.0 <= row["per_event"]["auc"] <= 1.0
        assert row["per_event"]["attack_events"] > 0
    runs = payload["jobs_scaling"]["runs"]
    assert all(run["byte_identical_with_1"] for run in runs)
    # the measured-vs-paper table renders one line per row plus header
    lines = table.read_text().splitlines()
    assert len(lines) == 2 + len(payload["datasets"])
