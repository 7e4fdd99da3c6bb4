"""Dataset-generation invariants: the 21-entry catalog, exact labels,
round-trip through both ingest paths, and the determinism contract —
including its cross-process half (fresh interpreters, different
``PYTHONHASHSEED``, byte-identical output)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    CATALOG,
    MALICIOUS_ATTACK_RATE,
    MIXED_ATTACK_RATE,
    OFFLINE_DATASETS,
    ONLINE_DATASETS,
    generate_catalog,
    generate_dataset,
)
from repro.datasets.__main__ import main as datasets_main
from repro.etw.capture import convert_log, load_capture
from repro.etw.parser import parse_with_report, read_log_lines

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small but phase-safe log sizes for generation-heavy tests.
SMALL = dict(train_events=300, scan_events=200)


def is_attack_event(event):
    """Ground truth is observable: attack walks carry payload frames —
    obfuscated ``sub_*`` symbols (offline) or ``<unknown>`` module
    frames (online) — and benign walks never do."""
    return any(
        frame.function.startswith("sub_") or frame.module == "<unknown>"
        for frame in event.frames
    )


class TestCatalog:
    def test_twenty_one_table_i_rows(self):
        assert len(CATALOG) == 21
        assert len(OFFLINE_DATASETS) == 13
        assert len(ONLINE_DATASETS) == 8
        assert set(OFFLINE_DATASETS) | set(ONLINE_DATASETS) == set(CATALOG)

    def test_generate_catalog_rejects_unknown_names_before_writing(
        self, tmp_path
    ):
        with pytest.raises(ValueError, match="vim_codeinjct"):
            generate_catalog(
                tmp_path, names=["vim_codeinject", "vim_codeinjct"], **SMALL
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_generate_catalog_rejects_bad_n_jobs_before_writing(
        self, tmp_path, n_jobs
    ):
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            generate_catalog(
                tmp_path, names=["vim_codeinject"], n_jobs=n_jobs, **SMALL
            )
        assert list(tmp_path.iterdir()) == []

    def test_names_follow_the_table_convention(self):
        for name, spec in CATALOG.items():
            expected = f"{spec.app}_{spec.payload}"
            if spec.method == "online":
                expected += "_online"
            assert name == expected
        assert "chrome_codeinject" not in CATALOG
        assert "chrome_reverse_tcp_online" not in CATALOG
        assert CATALOG["vim_codeinject"].method == "offline"


class TestLabels:
    @pytest.mark.parametrize(
        "name", ["vim_reverse_tcp", "putty_reverse_https_online"]
    )
    def test_labels_match_observable_ground_truth(self, name, tmp_path):
        dataset = generate_dataset(name, tmp_path / name, seed=1, **SMALL)
        for log_name, log in dataset.logs.items():
            events, report = parse_with_report(read_log_lines(log.path))
            assert not report.issues
            assert len(events) == log.n_events
            observed = tuple(
                event.eid for event in events if is_attack_event(event)
            )
            assert observed == log.attack_eids

        benign = dataset.logs["benign.log"]
        mixed = dataset.logs["mixed.log"]
        malicious = dataset.logs["malicious.log"]
        assert benign.attack_eids == ()
        assert len(mixed.attack_eids) == round(
            MIXED_ATTACK_RATE * mixed.n_events
        )
        assert len(malicious.attack_eids) == round(
            MALICIOUS_ATTACK_RATE * malicious.n_events
        )

    def test_labels_json_mirrors_the_returned_ground_truth(self, tmp_path):
        dataset = generate_dataset(
            "notepad++_codeinject", tmp_path / "d", seed=2, **SMALL
        )
        labels = json.loads(dataset.labels_path.read_text())
        assert labels["schema"] == "leaps-dataset/v1"
        assert labels["dataset"] == "notepad++_codeinject"
        for log_name, log in dataset.logs.items():
            assert labels["logs"][log_name]["events"] == log.n_events
            assert labels["logs"][log_name]["build"] == log.build_id
            assert tuple(
                labels["logs"][log_name]["attack_eids"]
            ) == log.attack_eids

    def test_scan_build_is_a_fresh_polymorphic_rebuild(self, tmp_path):
        """mixed (build A) and malicious (build B) share no app-space
        payload symbols — the camouflage the detector must see through."""
        dataset = generate_dataset(
            "winscp_reverse_tcp", tmp_path / "d", seed=3, **SMALL
        )

        def payload_nodes(path):
            events, _ = parse_with_report(read_log_lines(path))
            return {
                (frame.module, frame.function)
                for event in events
                for frame in event.frames
                if frame.function.startswith("sub_")
            }

        mixed = payload_nodes(dataset.logs["mixed.log"].path)
        malicious = payload_nodes(dataset.logs["malicious.log"].path)
        assert mixed and malicious
        assert not mixed & malicious


class TestRoundTrip:
    @settings(max_examples=5, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG)),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_every_log_survives_both_ingest_paths(self, name, seed, tmp_path_factory):
        """Generated raw text parses with zero issues and converts to
        ``.leapscap`` losslessly, for any catalog entry and seed."""
        root = tmp_path_factory.mktemp("roundtrip")
        dataset = generate_dataset(name, root / name, seed=seed, **SMALL)
        for log in dataset.logs.values():
            events, report = parse_with_report(read_log_lines(log.path))
            assert not report.issues
            capture = convert_log(
                log.path, root / f"{log.path.stem}.leapscap", policy="strict"
            )
            assert list(load_capture(capture).events) == events


class TestDeterminism:
    def test_byte_identical_across_interpreter_processes(self, tmp_path):
        """The contract's cross-process half: two fresh interpreters
        with different ``PYTHONHASHSEED`` values write identical bytes.
        (This is the failure mode of the retired ``benchmarks/synth.py``
        generator, which leaked builtin ``hash()`` into addresses.)"""
        outputs = []
        for run, hash_seed in enumerate(("0", "424242")):
            out = tmp_path / f"run{run}"
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(REPO_ROOT / "src"),
            )
            subprocess.run(
                [
                    sys.executable, "-m", "repro.datasets",
                    "--out", str(out), "--seed", "7",
                    "--only", "putty_reverse_tcp_online",
                    "--train-events", "300", "--scan-events", "200",
                ],
                check=True, env=env, cwd=REPO_ROOT,
                capture_output=True,
            )
            outputs.append({
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()
            })
        assert sorted(outputs[0]) == [
            "putty_reverse_tcp_online-s7/benign.log",
            "putty_reverse_tcp_online-s7/labels.json",
            "putty_reverse_tcp_online-s7/malicious.log",
            "putty_reverse_tcp_online-s7/mixed.log",
        ]
        assert outputs[0] == outputs[1]

    def test_cli_selfcheck_and_list(self, capsys):
        assert datasets_main(["--list"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 21
        assert datasets_main([
            "--selfcheck", "--only", "vim_reverse_tcp",
            "--train-events", "300", "--scan-events", "200",
        ]) == 0
        assert "selfcheck OK" in capsys.readouterr().out

    def test_cli_rejects_jobs_below_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            datasets_main([
                "--out", str(tmp_path), "--only", "vim_codeinject",
                "--train-events", "300", "--scan-events", "200",
                "--jobs", "0",
            ])
        assert exit_info.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
