"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, listed: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in listed}
    names = set(result["metrics"])
    assert names <= set(units)
    assert set(units) - names <= run.OPTIONAL_METRICS
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_end_to_end(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "1.5", "--trace", "0", "--quick")
    check_metrics(result_of(proc), SPEC["end_to_end"])
    info = json.loads(proc.stdout.strip().splitlines()[-2])
    assert info["failed_frac"] == 0.0
    assert len(info["setup_s_samples"]) == workloads.SETUP_REPEATS
    if workload == "serve":
        assert info["bench.gen_lag_p99_s"] >= 0.0


@pytest.mark.parametrize("workload", ["train", "scan_capture", "serve"])
def test_quick_traced_run(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "2", "--trace", "1", "--quick")
    result = result_of(proc)
    check_metrics(result, SPEC["per_layer"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0.0, name


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    serve = next(w for w in SPEC["workloads"] if w["name"] == "serve")
    assert f"{workloads.SERVE_RATE} events/s" in serve["why"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "train", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metrics_block_rejects_drift():
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    block = run.metrics_block(SPEC, values, trace=False)
    assert list(block) == [m["name"] for m in SPEC["end_to_end"]]
    del values["latency_tail_s"]
    assert "latency_tail_s" not in run.metrics_block(SPEC, values, False)
    with pytest.raises(RuntimeError):
        run.metrics_block(SPEC, {**values, "bogus": 1.0}, trace=False)
    del values["events_per_s"]
    with pytest.raises(RuntimeError):
        run.metrics_block(SPEC, values, trace=False)


def test_tail_latency_needs_ten_samples_beyond():
    assert harness.tail_latency([0.1] * 20) is None
    samples = [float(i) for i in range(100)]
    value, percentile, n = harness.tail_latency(samples)
    assert (percentile, n) == (90.0, 100)
    assert sum(1 for s in samples if s > value) == 10
    samples = [float(i) for i in range(30)]
    value, percentile, _ = harness.tail_latency(samples)
    assert percentile > 50.0
    assert sum(1 for s in samples if s > value) == 10
    value, percentile, _ = harness.tail_latency(
        [float(i) for i in range(5000)]
    )
    assert percentile == 95.0 and value == 4749.0


def test_window_acc_and_event_auc_on_hand_built_detections():
    # 20 events, attacks at eids 8..11; windows of 5 events, stride 5
    attacks = (8, 9, 10, 11)
    detections = [
        (0, 0, 4, 1.0, False),    # clean, called clean
        (5, 5, 9, -1.0, True),    # covers 8, 9: malicious, flagged
        (10, 10, 14, 0.5, False),  # covers 10, 11: missed
        (15, 15, 19, -0.2, True),  # clean, false alarm
    ]
    assert harness.window_matches(detections, attacks) == (2, 4)
    # per event: 0..4 → 1.0, 5..9 → -1.0, 10..14 → 0.5, 15..19 → -0.2;
    # 16 negatives.  Positives 8, 9 beat 13 negatives and tie 5, 6, 7;
    # positives 10, 11 beat the five at 1.0 and tie 12, 13, 14
    auc = harness.event_auc(detections, attacks, 20)
    expected = (2 * (13 + 1.5) + 2 * (5 + 1.5)) / (4 * 16)
    assert auc == pytest.approx(expected)
    assert harness.event_auc(detections, (), 20) is None


def test_decomposed_ops_match_untraced_bit_for_bit(tmp_path):
    tracer = harness.Tracer()
    logs = layers.generate(tracer, "vim_reverse_https_online",
                           tmp_path / "d", 5, train_events=400,
                           scan_events=300)
    config = workloads.LeapsConfig()
    benign, mixed = logs["benign.log"].text, logs["mixed.log"].text
    plain = layers.fit(config, benign, mixed)
    traced = layers.fit_decomposed(tracer, config, benign, mixed)
    assert layers.fingerprint(plain) == layers.fingerprint(traced)
    infected = logs["malicious.log"]
    for capture in (False, True):
        path = infected.capture if capture else infected.text
        assert layers.scan_decomposed(tracer, traced, path, capture) == \
            layers.scan(plain, path)
    names = {span["name"] for span in tracer.spans}
    assert {"etw.parse", "cfg.infer", "learning.grid_search",
            "etw.capture_load", "learning.score"} <= names


def test_span_self_time_and_coverage():
    tracer = harness.Tracer()
    tracer.spans = [
        {"id": 0, "parent": None, "name": "op", "start": 0.0, "end": 10.0,
         "counts": {}},
        {"id": 1, "parent": 0, "name": "a", "start": 0.0, "end": 6.0,
         "counts": {}},
        {"id": 2, "parent": 0, "name": "b", "start": 6.0, "end": 9.5,
         "counts": {}},
        {"id": 3, "parent": 1, "name": "c", "start": 1.0, "end": 3.0,
         "counts": {}},
    ]
    assert tracer.self_seconds() == {0: 0.5, 1: 4.0, 2: 3.5, 3: 2.0}
    assert tracer.coverage("op") == pytest.approx(0.95)
