"""The per-event featurization — the reference for
``EventFeaturizer.transform_columns``.

Partitions every event's walk (``featurizer.attributes``) and looks its
three attributes up one event at a time.  The columnar featurizer must
give the same rows bit for bit, and raise the same
``StackPartitionError`` — the one of the first event, in event order,
whose walk fails to partition.
"""

import numpy as np


def event_row(featurizer, event):
    """One event's ``(etype id, app id, system id)`` row."""
    vocabs = (featurizer.etype_vocab, featurizer.app_vocab, featurizer.system_vocab)
    return [
        vocab.lookup(key) for vocab, key in zip(vocabs, featurizer.attributes(event))
    ]


def transform_naive(featurizer, events):
    """The ``(n, 3)`` feature rows of ``events``, one event at a time."""
    rows = [event_row(featurizer, event) for event in events]
    return np.array(rows, dtype=float).reshape(-1, 3)
