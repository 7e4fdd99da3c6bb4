"""Deterministic scenario generation: catalog specs → log triples.

For each :class:`~repro.datasets.catalog.DatasetSpec` the generator
produces the paper's experimental unit (DESIGN.md §13):

* ``benign.log`` — a clean single-app trace (training first half,
  held-out test second half);
* ``mixed.log`` — the same app trojaned/injected with payload **build
  A**, attack bursts interleaved into benign traffic at a low rate
  (the "user keeps working while the implant beacons" picture);
* ``malicious.log`` — payload **build B** (a fresh polymorphic
  rebuild: new symbols, new addresses) at high density — the
  camouflaged attack the detector must flag despite never having seen
  this build's app-space signatures;
* ``labels.json`` — exact per-event ground truth: every attack eid of
  every log, plus the build identifiers and generation parameters.

Column synthesis
----------------
Sessions are synthesized as numpy columns via
:mod:`repro.datasets.fastgen`; text logs are rendered and captures
written straight from column blocks.  A per-event tracer is kept as
a test oracle (``tests/oracles/generation.py``): for any
``(spec, seed, sizes)`` it writes byte-identical logs, captures and
labels (``tests/test_fastgen.py``, ``benchmarks/bench_table1.py``).

Determinism contract
--------------------
Byte-identical output for a fixed ``(name, seed)`` across interpreter
processes, platforms, and worker counts:

* per-event draws (clock jitter, steady-op picks, call-path picks,
  beacon picks) come from counter-based Philox word streams keyed by
  SHA-512 of role-qualified tag strings and **indexed by ordinal**
  (event index / steady ordinal / benign ordinal / beacon ordinal), so
  any segment of a session reads exactly its own words — see
  :mod:`repro.datasets.fastgen`;
* one-shot draws (burst sizes and positions, payload encoding, image
  layout) still flow from ``random.Random(<string>)`` instances seeded
  with role-qualified strings (string seeding hashes via SHA-512
  inside CPython, independent of ``PYTHONHASHSEED``) and are computed
  identically by every worker;
* builtin ``hash()`` is never used (it varies with ``PYTHONHASHSEED``);
* files are written via binary handles with ``\\n`` separators, so no
  platform newline translation applies.

``tests/test_datasets.py`` enforces the contract by generating the
same dataset in two fresh subprocess interpreters with different
``PYTHONHASHSEED`` values and comparing bytes.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.apps import APPS
from repro.apps.base import AppSpec
from repro.attacks.metasploit import deliver, msfvenom
from repro.datasets.catalog import CATALOG, DatasetSpec
from repro.datasets.fastgen import (
    BurstLayout,
    SessionSynth,
    build_burst_layout,
    build_emission_table,
    render_segment_job,
    segment_bounds,
    to_event_columns,
)
from repro.etw.capture import CAPTURE_SUFFIX, write_capture_columns
from repro.winsys.process import WindowsMachine

#: labels.json schema identifier.
LABELS_SCHEMA = "leaps-dataset/v1"

#: Attack-event fraction of the mixed (training) log.
MIXED_ATTACK_RATE = 0.3
#: Attack-event fraction of the malicious (scan) log.
MALICIOUS_ATTACK_RATE = 0.8
#: Attack events arrive in sustained bursts of this size range (an
#: interactive beacon session, not single stray events).  Long bursts
#: matter twice over: scan windows inside one are payload-dense, and
#: the benign gaps *between* them are long enough that the mixed log
#: is full of pure-benign windows carrying the malicious label — the
#: mislabeled noise whose weight Algorithm 2 removes and whose drag on
#: the plain SVM the paper's Figure 5 illustrates.
BURST_EVENTS = (16, 32)

#: Default log sizes (events), matching the golden captures' scale.
DEFAULT_TRAIN_EVENTS = 4000
DEFAULT_SCAN_EVENTS = 2000

LOG_NAMES = ("benign.log", "mixed.log", "malicious.log")

OUTPUT_FORMATS = ("text", "capture", "both")
EXECUTORS = ("process", "thread")

#: Events per render segment — small enough that text
#: output streams in bounded chunks, large enough that per-segment
#: overhead (stream seeks, pool dispatch) stays negligible.
SEGMENT_EVENTS = 8192


@dataclass(frozen=True)
class GeneratedLog:
    """One written log plus its exact ground truth."""

    path: Path
    n_events: int
    attack_eids: Tuple[int, ...]
    build_id: str = ""
    #: the ``.leapscap`` twin (``format="capture"|"both"``), else None
    capture_path: Optional[Path] = None


@dataclass(frozen=True)
class GeneratedDataset:
    spec: DatasetSpec
    seed: int
    root: Path
    logs: Mapping[str, GeneratedLog]

    @property
    def labels_path(self) -> Path:
        return self.root / "labels.json"

    def log_paths(self) -> Dict[str, Path]:
        return {name: log.path for name, log in self.logs.items()}


class ScenarioGenerator:
    """Deterministic generator for one dataset's scenario.

    One instance owns one simulated machine (so app and system layout
    are shared by all three logs — the benign half of a trojaned trace
    must match the clean trace symbol-for-symbol) and derives every
    RNG stream from role-qualified tags under ``(dataset, seed)``.
    """

    def __init__(self, spec: DatasetSpec, seed: Union[int, str]):
        self.spec = spec
        self.seed = seed
        self.app: AppSpec = APPS[spec.app]
        self.machine = WindowsMachine(self._tag("machine"))

    def _tag(self, *parts: str) -> str:
        return ":".join(
            ("leaps-scenario", self.spec.name, f"s{self.seed}") + parts
        )

    def _rng(self, *parts: str) -> random.Random:
        return random.Random(self._tag(*parts))

    # -- shared planning ----------------------------------------------
    def _spawn(self):
        return self.machine.spawn(
            self.app.exe, self.app.functions, image_size=self.app.image_size
        )

    def _phase_sizes(self) -> Tuple[int, int]:
        return (
            len(self.app.ops_in_phase("startup")),
            len(self.app.ops_in_phase("shutdown")),
        )

    def benign_layout(self, n_events: int) -> BurstLayout:
        """Burst-free layout of a clean trace (the count is clamped up
        to fit the scripted startup/shutdown phases)."""
        n_startup, n_shutdown = self._phase_sizes()
        n_steady = max(0, n_events - n_startup - n_shutdown)
        return build_burst_layout(
            n_startup + n_steady + n_shutdown,
            n_startup, n_steady, n_shutdown, (), (),
        )

    def session_layout(
        self, log: str, n_events: int, attack_rate: float
    ) -> BurstLayout:
        """Attack-burst placement of a trojaned/injected session.

        Bursts land between steady-state benign events only: the
        payload activates after app startup and stops before exit.
        """
        n_attack = int(round(n_events * attack_rate))
        n_startup, n_shutdown = self._phase_sizes()
        n_steady = n_events - n_attack - n_startup - n_shutdown
        if n_steady < 0:
            raise ValueError(
                f"{self.spec.name}: {n_events} events cannot hold "
                f"{n_attack} attack events plus the app's scripted phases"
            )
        layout_rng = self._rng(log, "attack")
        bursts = _burst_sizes(n_attack, layout_rng)
        positions = sorted(
            layout_rng.sample(range(n_steady + 1), len(bursts))
        )
        return build_burst_layout(
            n_events, n_startup, n_steady, n_shutdown, bursts, positions
        )

    def _synth(self, log: str, layout: BurstLayout, instance) -> SessionSynth:
        process = instance.process if isinstance(
            instance, _DeliveredInstance
        ) else instance
        table = build_emission_table(
            process,
            self.app,
            instance.instance if isinstance(instance, _DeliveredInstance)
            else None,
        )
        return SessionSynth(
            table=table,
            layout=layout,
            clock_tag=self._tag(log, "clock"),
            op_tag=self._tag(log, "workload", "op"),
            path_tag=self._tag(log, "workload", "path"),
            beacon_tag=self._tag(log, "attack", "beacon"),
        )

    def _deliver(self, build_id: str):
        process = self._spawn()
        build = msfvenom(self.spec.payload, self._tag("payload"), build_id)
        instance = deliver(process, self.app, build, self.spec.method)
        return _DeliveredInstance(process=process, instance=instance)

    # -- column synthesizers -------------------------------------------
    def benign_synth(self, n_events: int) -> SessionSynth:
        """Column synthesizer for the clean trace."""
        return self._synth("benign", self.benign_layout(n_events), self._spawn())

    def session_synth(
        self, log: str, n_events: int, attack_rate: float, build_id: str
    ) -> SessionSynth:
        """Column synthesizer for a trojaned/injected session."""
        layout = self.session_layout(log, n_events, attack_rate)
        return self._synth(log, layout, self._deliver(build_id))


@dataclass
class _DeliveredInstance:
    """A spawned process with its payload delivered."""

    process: object
    instance: object


def _burst_sizes(n_attack: int, rng: random.Random) -> List[int]:
    sizes: List[int] = []
    remaining = n_attack
    while remaining > 0:
        size = min(remaining, rng.randint(*BURST_EVENTS))
        sizes.append(size)
        remaining -= size
    return sizes


def _write_rendered(path: Path, chunks) -> None:
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)


def _capture_source(spec: DatasetSpec, seed, log_name: str) -> dict:
    # Identical across worker counts: captures must be byte-comparable
    # whole, metadata included.
    return {
        "generator": "repro.datasets",
        "dataset": spec.name,
        "log": log_name,
        "seed": seed,
    }


def _render_session_text(synth: SessionSynth, segment, pool=None):
    """Rendered text chunks of one synthesized session, in order.

    Segments are bounded by :func:`~repro.datasets.fastgen.segment_bounds`
    (bursts never span a boundary) and rendered independently — across
    ``pool`` when given — then concatenated in order, so output bytes
    are invariant to ``n_jobs``.
    """
    bounds = segment_bounds(synth.layout, SEGMENT_EVENTS)
    templates = synth.table.templates
    arities = synth.table.arities.tolist()
    jobs = [
        (
            templates,
            arities,
            segment.type_ids[start:stop],
            segment.timestamps[start:stop],
            start,
        )
        for start, stop in bounds
    ]
    if pool is None:
        return map(render_segment_job, jobs)
    return pool.map(render_segment_job, jobs)


def _make_pool(n_jobs: int, executor: str):
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected {EXECUTORS}"
        )
    if n_jobs <= 1:
        return None
    if executor == "thread":
        return ThreadPoolExecutor(max_workers=n_jobs)
    return ProcessPoolExecutor(max_workers=n_jobs)


def _resolve_spec(name: Union[str, DatasetSpec]) -> DatasetSpec:
    if isinstance(name, DatasetSpec):
        return name
    return CATALOG[name]


def _write_labels(
    dst: Path,
    spec: DatasetSpec,
    seed,
    train_events: int,
    scan_events: int,
    logs: Mapping[str, GeneratedLog],
) -> None:
    """Write ``dst/labels.json``: the scenario, its generation
    parameters, and every log's exact attack eids."""
    labels = {
        "schema": LABELS_SCHEMA,
        "dataset": spec.name,
        "app": spec.app,
        "payload": spec.payload,
        "method": spec.method,
        "seed": seed,
        "params": {
            "train_events": train_events,
            "scan_events": scan_events,
            "mixed_attack_rate": MIXED_ATTACK_RATE,
            "malicious_attack_rate": MALICIOUS_ATTACK_RATE,
        },
        "logs": {
            log_name: {
                "events": log.n_events,
                "build": log.build_id,
                "attack_eids": list(log.attack_eids),
            }
            for log_name, log in logs.items()
        },
    }
    (dst / "labels.json").write_bytes(
        (json.dumps(labels, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )


def generate_dataset(
    name: Union[str, DatasetSpec],
    dst: Path,
    seed: int = 0,
    *,
    train_events: int = DEFAULT_TRAIN_EVENTS,
    scan_events: int = DEFAULT_SCAN_EVENTS,
    format: str = "text",
    n_jobs: int = 1,
    executor: str = "process",
) -> GeneratedDataset:
    """Generate one dataset into ``dst`` (created if needed).

    ``name`` is a catalog name or a :class:`DatasetSpec` (custom
    scenarios need not be registered).  ``format`` selects the outputs:
    ``"text"`` writes the three ``.log`` files, ``"capture"`` writes
    ``.leapscap`` columnar captures directly from synthesized columns
    (no text round-trip), ``"both"`` writes both.  ``labels.json`` is
    always written.  ``n_jobs``/``executor`` shard text rendering;
    output bytes are identical for every (n_jobs, executor) combination.
    """
    spec = _resolve_spec(name)
    if format not in OUTPUT_FORMATS:
        raise ValueError(
            f"unknown format {format!r}; expected {OUTPUT_FORMATS}"
        )
    dst = Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    generator = ScenarioGenerator(spec, seed)
    write_text = format in ("text", "both")
    write_capture = format in ("capture", "both")

    plans = [
        ("benign.log", train_events, 0.0, ""),
        ("mixed.log", train_events, MIXED_ATTACK_RATE, "A"),
        ("malicious.log", scan_events, MALICIOUS_ATTACK_RATE, "B"),
    ]
    logs: Dict[str, GeneratedLog] = {}
    pool = _make_pool(n_jobs, executor)
    try:
        for log_name, n_events, attack_rate, build_id in plans:
            stem = log_name[: -len(".log")]
            log_path = dst / log_name
            capture_path = dst / f"{stem}{CAPTURE_SUFFIX}"
            if build_id:
                synth = generator.session_synth(
                    stem, n_events, attack_rate, build_id
                )
            else:
                synth = generator.benign_synth(n_events)
            segment = synth.synthesize()
            if write_text:
                _write_rendered(
                    log_path, _render_session_text(synth, segment, pool)
                )
            if write_capture:
                cols = to_event_columns(
                    synth.table, segment.type_ids, segment.timestamps
                )
                write_capture_columns(
                    capture_path,
                    cols,
                    source=_capture_source(spec, seed, log_name),
                )
            logs[log_name] = GeneratedLog(
                path=log_path,
                n_events=synth.n_events,
                attack_eids=tuple(synth.layout.attack_eids().tolist()),
                build_id=build_id,
                capture_path=capture_path if write_capture else None,
            )
    finally:
        if pool is not None:
            pool.shutdown()

    _write_labels(dst, spec, seed, train_events, scan_events, logs)
    return GeneratedDataset(spec=spec, seed=seed, root=dst, logs=logs)


def _generate_catalog_entry(args) -> Tuple[str, GeneratedDataset]:
    name, root, seed, kwargs = args
    return name, generate_dataset(name, root, seed, **kwargs)


def generate_catalog(
    root: Path,
    seed: int = 0,
    *,
    names: Sequence[str] = (),
    train_events: int = DEFAULT_TRAIN_EVENTS,
    scan_events: int = DEFAULT_SCAN_EVENTS,
    format: str = "text",
    n_jobs: int = 1,
) -> Dict[str, GeneratedDataset]:
    """Generate named datasets (default: all 21) under
    ``root/<name>-s<seed>/``.

    ``n_jobs > 1`` generates datasets across a process pool — rows are
    independent, so this parallelizes across the catalog rather than
    within one session.
    """
    root = Path(root)
    selected = list(names) if names else list(CATALOG)
    kwargs = dict(
        train_events=train_events,
        scan_events=scan_events,
        format=format,
    )
    jobs = [
        (name, root / f"{name}-s{seed}", seed, kwargs) for name in selected
    ]
    results: Dict[str, GeneratedDataset] = {}
    if n_jobs <= 1 or len(jobs) <= 1:
        for job in jobs:
            name, dataset = _generate_catalog_entry(job)
            results[name] = dataset
        return results
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs))) as pool:
        for name, dataset in pool.map(_generate_catalog_entry, jobs):
            results[name] = dataset
    return results
