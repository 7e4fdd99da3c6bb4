"""The per-event featurization — the reference for the scan featurizer
``StreamFeatures`` and training's ``EventFeaturizer.transform_columns``.

Partitions every event's walk (:func:`attributes`) and looks its
three attributes up one event at a time.  The columnar featurizers must
give the same rows bit for bit, and fail with the same
``StackPartitionError`` — the one of the first event, in event order,
whose walk fails to partition.
"""

import numpy as np


def attributes(featurizer, event):
    """One event's attribute triple: (etype, app signature, system
    signature), its walk partitioned on its own."""
    return (event.etype, *featurizer._signatures(event.frames))


def event_row(featurizer, event):
    """One event's ``(etype id, app id, system id)`` row."""
    vocabs = (featurizer.etype_vocab, featurizer.app_vocab, featurizer.system_vocab)
    return [
        vocab.lookup(key) for vocab, key in zip(vocabs, attributes(featurizer, event))
    ]


def transform_naive(featurizer, events):
    """The ``(n, 3)`` feature rows of ``events``, one event at a time."""
    rows = [event_row(featurizer, event) for event in events]
    return np.array(rows, dtype=float).reshape(-1, 3)
