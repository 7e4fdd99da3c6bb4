"""Dataset catalog + deterministic scenario generation (DESIGN.md §13).

``python -m repro.datasets`` generates Table-I log triples from the
command line; :func:`generate_dataset` / :func:`generate_catalog` are
the library entry points.
"""

from repro.datasets.catalog import (
    CATALOG,
    OFFLINE_DATASETS,
    ONLINE_DATASETS,
    DatasetSpec,
)
from repro.datasets.fastgen import SessionSynth, stream_words
from repro.datasets.generation import (
    DEFAULT_SCAN_EVENTS,
    DEFAULT_TRAIN_EVENTS,
    LABELS_SCHEMA,
    MALICIOUS_ATTACK_RATE,
    MIXED_ATTACK_RATE,
    OUTPUT_FORMATS,
    GeneratedDataset,
    GeneratedLog,
    ScenarioGenerator,
    generate_catalog,
    generate_dataset,
)

__all__ = [
    "CATALOG",
    "DEFAULT_SCAN_EVENTS",
    "DEFAULT_TRAIN_EVENTS",
    "DatasetSpec",
    "GeneratedDataset",
    "GeneratedLog",
    "LABELS_SCHEMA",
    "MALICIOUS_ATTACK_RATE",
    "MIXED_ATTACK_RATE",
    "OFFLINE_DATASETS",
    "ONLINE_DATASETS",
    "OUTPUT_FORMATS",
    "ScenarioGenerator",
    "SessionSynth",
    "generate_catalog",
    "generate_dataset",
    "stream_words",
]
