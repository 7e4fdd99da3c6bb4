"""The record-based training prepare — the reference for
``LeapsPipeline.prepare_training_many``.

Parses every log into records (columns convert with
``EventColumns.records``), partitions every event's walk for
Algorithms 1 and 2, fits the vocabularies one event at a time,
featurizes one event at a time and aggregates the window
weights one window at a time.  The columnar prepare must produce the
same ``X``/``y``/``c`` bytes, the same vocabulary key order and equal
CFGs, and raise the same errors.
"""

import numpy as np

from repro.core.pipeline import PreparedTraining
from repro.core.weights import WeightAssessor
from repro.etw.events import EventColumns
from repro.learning.scaling import Standardizer
from repro.preprocessing.features import EventFeaturizer

from tests.oracles.features import attributes, transform_naive


def fit_records(featurizer, *event_streams):
    """Fit ``featurizer``'s vocabularies event by event."""
    vocabs = (featurizer.etype_vocab, featurizer.app_vocab, featurizer.system_vocab)
    for events in event_streams:
        for event in events:
            for vocab, key in zip(vocabs, attributes(featurizer, event)):
                vocab.add(key)
    for vocab in vocabs:
        vocab.freeze()
    featurizer.fitted = True
    return featurizer


def log_records(pipeline, log):
    """One training log as records: columns convert, text parses."""
    if isinstance(log, EventColumns):
        return log.records()
    return pipeline.parser.parse_lines(log)


def window_weights(coalescer, event_weights, aggregate):
    """Per-window weights, one window slice at a time."""
    reduce = np.mean if aggregate == "mean" else np.max
    width = coalescer.window_events
    return np.asarray([
        float(reduce(event_weights[start : start + width]))
        for start in range(0, len(event_weights) - width + 1, coalescer.stride)
    ])


def prepare_training_naive(pipeline, benign_logs, mixed_logs, rng=None):
    """``pipeline.prepare_training_many(benign_logs, mixed_logs, rng)``
    on records; sets the pipeline's CFGs, featurizer and standardizer
    as the production prepare does.  ``stage_seconds`` stays empty."""
    config = pipeline.config
    rng = config.rng() if rng is None else rng
    benign_event_logs = [log_records(pipeline, log) for log in benign_logs]
    mixed_event_logs = [log_records(pipeline, log) for log in mixed_logs]
    if not benign_event_logs or not mixed_event_logs or any(
        not events for events in benign_event_logs + mixed_event_logs
    ):
        raise ValueError("training needs non-empty benign and mixed logs")

    partitioner = pipeline.partitioner
    benign_path_logs = [
        [partitioner.app_path(event) for event in events]
        for events in benign_event_logs
    ]
    mixed_path_logs = [
        [partitioner.app_path(event) for event in events]
        for events in mixed_event_logs
    ]
    pipeline.benign_cfg = pipeline.inferencer.infer_many(benign_path_logs)
    pipeline.mixed_cfg = pipeline.inferencer.infer_many(mixed_path_logs)
    if config.weighted:
        assessor = WeightAssessor(pipeline.benign_cfg)
        weight_logs = [assessor.assess(paths) for paths in mixed_path_logs]
    else:
        weight_logs = [np.ones(len(events)) for events in mixed_event_logs]

    featurizer = pipeline.featurizer = fit_records(
        EventFeaturizer(partitioner), *benign_event_logs, *mixed_event_logs
    )
    coalescer = pipeline.coalescer
    benign_blocks = [
        coalescer.coalesce_matrix(transform_naive(featurizer, events))
        for events in benign_event_logs
    ]
    mixed_blocks = [
        coalescer.coalesce_matrix(transform_naive(featurizer, events))
        for events in mixed_event_logs
    ]
    n_benign_windows = sum(len(block) for block in benign_blocks)
    n_mixed_windows = sum(len(block) for block in mixed_blocks)
    if not n_benign_windows or not n_mixed_windows:
        raise ValueError(
            "logs too short: need at least one full window per class "
            f"({config.window_events} events)"
        )
    mixed_c = np.concatenate([
        window_weights(coalescer, weights, config.window_weight_agg)
        for weights in weight_logs
    ])
    X = np.vstack(benign_blocks + mixed_blocks)
    y = np.concatenate([np.ones(n_benign_windows), -np.ones(n_mixed_windows)])
    c = np.concatenate([np.ones(n_benign_windows), mixed_c])
    if 0 < config.max_train_windows < len(X):
        keep = np.sort(
            rng.choice(len(X), size=config.max_train_windows, replace=False)
        )
        X, y, c = X[keep], y[keep], c[keep]
    pipeline.standardizer = Standardizer().fit(X)
    return PreparedTraining(
        X=pipeline.standardizer.transform(X),
        y=y,
        c=c,
        importances=c if config.weighted else None,
        n_benign_events=sum(len(events) for events in benign_event_logs),
        n_mixed_events=sum(len(events) for events in mixed_event_logs),
        n_benign_windows=n_benign_windows,
        n_mixed_windows=n_mixed_windows,
        mean_mixed_weight=float(np.mean(mixed_c)),
        stage_seconds=[],
    )
