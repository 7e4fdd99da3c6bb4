"""The docs name only what exists: every ``repro.*`` module or
attribute, every ``bench_*.py`` and every ``examples/*.py`` that the
project documents mention must be present in the tree."""

import importlib
import itertools
import re

from tests.conftest import REPO_ROOT

DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/README.md")

#: ``repro.a.b`` with optional ``{x,y}`` groups, e.g. ``repro.core.{a,b}``
DOTTED = re.compile(r"repro(?:\.(?:[A-Za-z_]\w*|\{[\w, ]+\}))+")
#: a ``bench_*.py`` or ``examples/*.py`` path, with any directory prefix
SCRIPT = re.compile(
    r"(?:[\w.-]+/)*(?:[\w-]*bench_[\w*]*|(?<![\w/])examples/[\w*]+)\.py"
)


def expand_groups(name):
    """``repro.core.{a,b}`` → ``["repro.core.a", "repro.core.b"]``."""
    parts = [
        [option.strip() for option in part[1:-1].split(",")]
        if part.startswith("{") else [part]
        for part in name.split(".")
    ]
    return [".".join(choice) for choice in itertools.product(*parts)]


def dotted_names():
    return sorted({
        (doc, expanded)
        for doc in DOCS
        for match in DOTTED.findall((REPO_ROOT / doc).read_text())
        for expanded in expand_groups(match)
    })


def script_paths():
    return sorted({
        (doc, match)
        for doc in DOCS
        for match in SCRIPT.findall((REPO_ROOT / doc).read_text())
    })


def resolves(dotted):
    """Import the longest module prefix, then walk the attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def script_exists(path):
    """Paths with a directory resolve from the repo root as written; a
    bare ``bench_*.py`` lives in ``benchmarks/``."""
    where = path if "/" in path else f"benchmarks/{path}"
    return any(REPO_ROOT.glob(where))


def inventory_modules():
    """The modules DESIGN §2's Modules column lists, relative to
    ``repro.``; ``python -m repro.x`` stands for ``x.__main__``."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 2. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    modules = set()
    for row in rows[2:]:  # past the header and its rule
        for name in re.findall(r"`([^`]+)`", row.split("|")[2]):
            if name.startswith("python -m repro."):
                name = name[len("python -m repro."):] + ".__main__"
            modules.update(expand_groups(name))
    return modules


def tree_modules():
    """Every module under ``src/repro/`` but the package ``__init__``s."""
    src = REPO_ROOT / "src" / "repro"
    return {
        ".".join(path.relative_to(src).with_suffix("").parts)
        for path in src.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_documented_repro_names_exist():
    missing = [f"{doc}: {name}" for doc, name in dotted_names()
               if not resolves(name)]
    assert missing == []


def test_documented_scripts_exist():
    missing = [f"{doc}: {path}" for doc, path in script_paths()
               if not script_exists(path)]
    assert missing == []


def test_patterns_see_the_documented_names():
    names = {name for _, name in dotted_names()}
    paths = {path for _, path in script_paths()}
    assert "repro.learning.kernels.PrecomputedKernel" in names
    assert {"bench_table1.py", "benchmarks/bench_serve.py",
            "examples/quickstart.py", "tests/test_bench_smoke.py"} <= paths
    assert expand_groups("repro.core.{a, b}.c") == [
        "repro.core.a.c", "repro.core.b.c"
    ]


def test_design_inventory_lists_every_module():
    assert inventory_modules() == tree_modules()
