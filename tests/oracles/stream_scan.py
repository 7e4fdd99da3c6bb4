"""The per-event streaming scan — the reference for ``score_stream``.

Parses with the scalar ``iter_parse``, featurizes one event at a time
by plain vocabulary lookups, coalesces through a deque of the last
``window_events`` rows, and scores every ``stream_chunk_windows``
windows with one ``decision_function`` call.  The block scanner behind
``LeapsPipeline.score_stream`` must yield the same ``(window, score)``
pairs bit for bit, raise the same error after the same pairs, and fill
the same ``ParseReport``.
"""

from collections import deque

import numpy as np

from repro.etw.parser import iter_parse
from repro.preprocessing.windows import Window

from tests.oracles.features import event_row


def score_stream_naive(pipeline, lines, report=None, policy=None):
    """Yield ``(window, decision_value)`` pairs off raw lines."""
    featurizer = pipeline.featurizer
    width = pipeline.coalescer.window_events
    stride = pipeline.coalescer.stride
    chunk = pipeline.config.stream_chunk_windows
    events = iter_parse(lines, policy=policy or pipeline.parser.policy, report=report)
    held = deque(maxlen=width)
    pending = []
    for count, event in enumerate(events, start=1):
        row = np.array(event_row(featurizer, event), dtype=float)
        held.append((event, row))
        start = count - width
        if start >= 0 and start % stride == 0:
            vector = np.concatenate([row for _, row in held])
            pending.append(Window(start, held[0][0].eid, event.eid, vector))
            if len(pending) == chunk:
                yield from _scored(pipeline, pending)
                pending = []
    if pending:
        yield from _scored(pipeline, pending)


def _scored(pipeline, windows):
    matrix = pipeline.standardizer.transform(np.stack([w.vector for w in windows]))
    return zip(windows, pipeline.model.decision_function(matrix))
