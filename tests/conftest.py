"""Shared fixtures: one generated catalog row and tiny synthetic logs."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.etw.parser import clear_frame_intern


@pytest.fixture(autouse=True)
def _fresh_frame_intern():
    """Bound the process-global frame intern table per test: no test
    observes frames interned by another, and the table cannot grow
    across the whole suite."""
    clear_frame_intern()
    yield


REPO_ROOT = Path(__file__).resolve().parent.parent

#: The catalog row the golden-log, end-to-end and generated-data
#: equivalence tests scan, and its scale (a few seconds' worth of
#: simulated activity per log).
GENERATED_ROW = "notepad++_reverse_tcp_online"
GENERATED_EVENTS = {"train_events": 1500, "scan_events": 1500}


@pytest.fixture(scope="session")
def generated_row(tmp_path_factory) -> Path:
    """One catalog row, generated once per session: a directory holding
    ``benign.log``, ``mixed.log`` and ``malicious.log`` and each log's
    ``.leapscap`` capture."""
    from repro.datasets import generate_dataset

    root = tmp_path_factory.mktemp("generated-row") / GENERATED_ROW
    return generate_dataset(
        GENERATED_ROW, root, seed=0, format="both", **GENERATED_EVENTS
    ).root


TINY_LOG = """\
EVENT|0|0|1000|app.exe|4|UI_MESSAGE|21|ui_get_message
STACK|0|0|app.exe|WinMain|0x400012
STACK|0|1|app.exe|message_pump|0x400092
STACK|0|2|user32.dll|GetMessageW|0x77f000d2
STACK|0|3|win32k.sys|NtUserGetMessage|0xf0600092
EVENT|1|1000|1000|app.exe|4|FILE_IO_READ|3|read_config
STACK|1|0|app.exe|WinMain|0x400012
STACK|1|1|app.exe|load_config|0x4000d2
STACK|1|2|kernel32.dll|ReadFile|0x77c00052
STACK|1|3|ntoskrnl.exe|NtReadFile|0xf0000012
EVENT|2|2000|1000|app.exe|4|TCP_SEND|7|send_data
STACK|2|0|app.exe|WinMain|0x400012
STACK|2|1|app.exe|net_loop|0x400112
STACK|2|2|ws2_32.dll|send|0x77d00012
STACK|2|3|tcpip.sys|TcpSend|0xf0100012
"""


@pytest.fixture
def tiny_log_lines() -> list[str]:
    return TINY_LOG.splitlines()
