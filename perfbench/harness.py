"""Shared pieces of the benchmark: statistics, host record, process
usage, the span tracer and the detection-quality scores.

Nothing here imports numpy at module level, so ``run.py`` can pin the
BLAS thread count before the first numpy import.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: BLAS/OpenMP pools are pinned to one thread: a 2-thread OpenBLAS pool
#: made a 50k-event capture scan read 0.385 s CPU against 0.293 s wall
#: and tripled the spread of repeated scans.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: the tail never goes past p95: over ten seeds serve's p99 (of ~84k
#: windows) read 0.137–0.236 s, moved by single host stalls
TAIL_MAX_PERCENTILE = 95.0


#: seconds :func:`calibration_seconds` takes on the reference host (the
#: 2-vCPU VM the benchmark was tuned on, CPython 3.11, numpy 2.4)
CALIBRATION_REFERENCE_S = 0.004


def pin_blas_threads() -> None:
    for name in BLAS_ENV:
        os.environ[name] = "1"


def _calibration_work() -> int:
    counts: Dict[tuple, int] = {}
    for i in range(12000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    fields = "|".join(map(str, range(8000))).split("|")
    import numpy as np

    values = np.arange(40000.0)
    for _ in range(5):
        values = np.sqrt(values * values + 1.0)
    return len(counts) + len(fields)


def calibration_seconds() -> float:
    """Seconds one fixed mix of interpreter and numpy work takes now
    (the faster of two tries).  The shared host's speed drifts by ±25%
    over seconds to minutes, for this loop and the program alike, so
    timings divided by ``calibration_seconds() /
    CALIBRATION_REFERENCE_S`` measured next to them read as if taken on
    a host of constant speed."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - started)
    return best


def host_slowness(tries: int = 5) -> float:
    """Host slowness against the reference from the median of several
    calibration samples (> 1 is slower)."""
    return median([calibration_seconds() for _ in range(tries)]) \
        / CALIBRATION_REFERENCE_S


class HostSpeed:
    """Calibration samples taken through a phase.

    :meth:`tick` is called after every op with its latency and samples
    again once ``every_s`` of op time has passed; each op is then
    scaled by the mean of the samples that bracket it.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.samples = [calibration_seconds()]
        self._segment: List[int] = []
        self._since = 0.0

    def tick(self, latency: float) -> None:
        self._segment.append(len(self.samples) - 1)
        self._since += latency
        if self._since >= self.every_s:
            self.samples.append(calibration_seconds())
            self._since = 0.0

    def factors(self) -> List[float]:
        """Per op ticked: host slowness against the reference (> 1 is
        slower)."""
        if len(self.samples) - 1 == self._segment[-1]:
            self.samples.append(calibration_seconds())
        return [
            (self.samples[i] + self.samples[i + 1]) / 2.0
            / CALIBRATION_REFERENCE_S
            for i in self._segment
        ]


# -- statistics --------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_latency(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, n)`` at the highest percentile, capped at
    p95, that leaves at least :data:`TAIL_BEYOND` samples beyond it —
    or None when the samples cannot support one above the median.

    The value is an order statistic (no interpolation): with ``n``
    samples, percentile ``p`` reads the sample of rank ``ceil(p·n/100)``
    and leaves ``n − rank`` samples above it.
    """
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        return None
    percentile = min(TAIL_MAX_PERCENTILE, 100.0 * (n - TAIL_BEYOND) / n)
    rank = min(n - TAIL_BEYOND, math.ceil(percentile * n / 100.0 - 1e-9))
    ordered = sorted(samples)
    return float(ordered[rank - 1]), percentile, n


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# -- detection quality -------------------------------------------------
def window_matches(detections, attack_eids) -> Tuple[int, int]:
    """``(correct, total)`` windows: a window is truly malicious iff it
    covers at least one attack eid; detections are
    ``(index, start_eid, end_eid, score, malicious)`` tuples."""
    import numpy as np

    attacks = np.asarray(sorted(attack_eids), dtype=np.int64)
    correct = 0
    for _, start, end, _, malicious in detections:
        lo = int(np.searchsorted(attacks, start, side="left"))
        truly = lo < len(attacks) and attacks[lo] <= end
        correct += bool(malicious) == bool(truly)
    return correct, len(detections)


def event_auc(detections, attack_eids, n_events: int) -> Optional[float]:
    """Per-event ROC AUC: each event takes the minimum decision value of
    the windows covering it (more negative = more malicious); uncovered
    events are excluded.  Ties count half (Mann-Whitney)."""
    import numpy as np

    scores = np.full(n_events, np.inf)
    for _, start, end, score, _ in detections:
        region = slice(start, end + 1)
        scores[region] = np.minimum(scores[region], score)
    labels = np.zeros(n_events, dtype=bool)
    if len(attack_eids):
        labels[np.asarray(sorted(attack_eids), dtype=np.int64)] = True
    covered = np.isfinite(scores)
    scores, labels = scores[covered], labels[covered]
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if not n_pos or not n_neg:
        return None
    _, inverse, counts = np.unique(-scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return (float(ranks[labels].sum()) - n_pos * (n_pos + 1) / 2.0) / (
        n_pos * n_neg
    )


def detection_rows(detections) -> List[tuple]:
    """``WindowDetection`` objects as plain field tuples."""
    return [
        (d.index, d.start_eid, d.end_eid, d.score, d.malicious)
        for d in detections
    ]


# -- host and process usage -------------------------------------------
def cpu_steal_jiffies() -> Optional[int]:
    """Aggregate CPU-steal jiffies from ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def host_record() -> dict:
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": load,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drop_garbage() -> None:
    """Collect garbage outside any timed region."""
    gc.collect()


def settle_after_setup() -> None:
    """Collect set-up garbage and freeze the survivors, so collections
    between timed ops only walk what the ops allocated."""
    gc.collect()
    gc.freeze()


class HostWatch:
    """Host noise across a timed phase: load average and CPU steal."""

    def __init__(self):
        self.steal_start = cpu_steal_jiffies()
        self.record = host_record()

    def finish(self) -> dict:
        steal_end = cpu_steal_jiffies()
        record = dict(self.record)
        record["loadavg_end"] = host_record()["loadavg"]
        if self.steal_start is not None and steal_end is not None:
            record["cpu_steal_jiffies"] = steal_end - self.steal_start
        return record


# -- span tracer -------------------------------------------------------
class Tracer:
    """In-memory spans: ``(id, parent, name, start, end, counts)``.

    Spans are kept in a list and written out only at the end of the
    run.  A disabled tracer records nothing, so untraced ops pay one
    attribute check per span.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, **counts) -> "_Span":
        """A context manager recording one span; yields ``counts``, a
        dict the caller may add counts to."""
        return _Span(self, name, counts)

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Record a finished span under the current parent (used for
        stage timings a public call reports about itself)."""
        if self.enabled:
            self.spans.append({
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": start,
                "end": end,
                "counts": counts,
            })

    def by_name(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_seconds(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover."""
        child_time: Dict[int, float] = {}
        for record in self.spans:
            parent = record["parent"]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (
                    record["end"] - record["start"]
                )
        return {
            record["id"]: record["end"] - record["start"]
            - child_time.get(record["id"], 0.0)
            for record in self.spans
        }

    def coverage(self, op_name: str = "op") -> Optional[float]:
        """Share of the wall time of ``op_name`` spans that their child
        (layer) spans cover."""
        ops = {s["id"]: s for s in self.spans if s["name"] == op_name}
        if not ops:
            return None
        covered = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] in ops
        )
        total = sum(s["end"] - s["start"] for s in ops.values())
        return covered / total if total > 0 else None

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


class _Span:
    """One span in flight; a plain class, as a generator-based context
    manager costs several microseconds of uncovered time per span."""

    __slots__ = ("tracer", "name", "counts", "record")

    def __init__(self, tracer: Tracer, name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts
        self.record: Optional[dict] = None

    def __enter__(self) -> dict:
        tracer = self.tracer
        if tracer.enabled:
            stack = tracer._stack
            self.record = {
                "id": len(tracer.spans),
                "parent": stack[-1] if stack else None,
                "name": self.name,
                "start": 0.0,
                "end": None,
                "counts": self.counts,
            }
            tracer.spans.append(self.record)
            stack.append(self.record["id"])
            self.record["start"] = time.perf_counter()
        return self.counts

    def __exit__(self, *exc) -> None:
        if self.record is not None:
            self.record["end"] = time.perf_counter()
            self.tracer._stack.pop()
