"""Always-on fleet detection service (DESIGN.md §12).

Composes the repo's offline pieces — versioned model bundles, the
incremental scanner of :mod:`repro.core.streaming`, columnar captures —
into a long-lived server where each monitored host is one of thousands
of concurrent raw-log streams:

* :mod:`repro.serve.protocol` — the length-prefixed frame protocol and
  a blocking :class:`ServeClient`;
* :mod:`repro.serve.registry` — the multi-model
  :class:`ModelRegistry` over persistence bundles, keyed on
  ``(app, model_version)`` with fingerprint-based cache invalidation;
* :mod:`repro.serve.streams` — :class:`StreamScanner`, the core
  per-stream scanner plus the columnar wire mode;
* :mod:`repro.serve.workers` — sharded scoring workers (streams
  consistently hashed to shards, so per-stream state never migrates)
  that score many streams' ready chunks per kernel call with
  :func:`score_chunks`;
* :mod:`repro.serve.server` — the asyncio front with explicit
  backpressure and the ``status`` metrics endpoint.

Detections are **bit-identical** to :meth:`LeapsDetector.scan_stream`
run serially per stream — both drain the same scanner, and the tests
assert it across policies, shard counts, and input kinds.
"""

from repro.core.streaming import ScoreChunk, score_chunks
from repro.serve.protocol import (
    ProtocolError,
    ServeClient,
    StreamOutcome,
    request_status,
)
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.serve.server import DetectionServer, ServerHandle, start_in_thread
from repro.serve.streams import StreamScanner
from repro.serve.workers import ShardPool, shard_for

__all__ = [
    "DetectionServer",
    "ModelRegistry",
    "ProtocolError",
    "ScoreChunk",
    "ServeClient",
    "ServerHandle",
    "ShardPool",
    "StreamOutcome",
    "StreamScanner",
    "UnknownModelError",
    "request_status",
    "score_chunks",
    "shard_for",
    "start_in_thread",
]
