"""Scripted application models for scenario generation (DESIGN.md §13).

``APPS`` maps the Table-I application names to their behaviour specs.
"""

from repro.apps.base import AppSpec, Operation
from repro.apps import chrome, notepadpp, putty, vim, winscp

APPS = {
    spec.name: spec
    for spec in (
        winscp.SPEC, chrome.SPEC, notepadpp.SPEC, putty.SPEC, vim.SPEC
    )
}

__all__ = [
    "APPS",
    "AppSpec",
    "Operation",
]
