"""End-to-end LEAPS training and scanning phases (paper Fig. 1).

Training:  parse benign + mixed raw logs → partition stacks → infer the
benign and mixed CFGs (Algorithm 1) → weight every mixed event against
the benign CFG (Algorithm 2) → featurize (3-tuples), coalesce into
30-dim windows, standardize → CV grid search → train the Weighted SVM
with ``0 ≤ αᵢ ≤ λ·cᵢ``.

Training accepts a *fleet* of logs per class
(:meth:`LeapsPipeline.train_many` / ``LeapsDetector.fit_logs``): each
log is parsed, partitioned, and window-coalesced independently (windows
never span a log boundary, and Algorithm-1 implicit edges are never
drawn across captures), per-log CFGs are inferred and merged in input
order by ``CFGInferencer.infer_many`` (the merge preserves edge kinds),
and the per-log window blocks are stacked in input order.  The single-log
:meth:`LeapsPipeline.train` is the one-log special case of the same
code path.  Every log is prepared as columns, one stack partition per
distinct walk (:meth:`LeapsPipeline.prepare_training_many`).

The grid search runs on the fast path: one
:class:`~repro.learning.kernels.PrecomputedKernel` distance cache is
built per training matrix, every σ² Gram is derived from it, CV cells
slice the Gram by fold indices, and the final full-set fit reuses the
winning σ² Gram.  ``LeapsConfig.n_jobs`` fans the CV cells over a
worker pool without changing the selected model.  Every stage's wall
time is recorded in ``TrainingReport.stage_seconds``.

Scanning:  featurize a production log with the *training* vocabularies
and score each window; negative decision values are malicious windows.
Every scan drains the :mod:`repro.core.streaming` scanner that the serve
shards also run: block featurize, block coalesce, tiled scoring.  The
detector's ``scan_log``/``scan_logs`` feed it a whole log's columns as
one block; :meth:`LeapsPipeline.score_stream` feeds it a raw line
iterator, block-parsed, with bounded memory: one feed of lines and its
windows, the parser's held stack block (at most
``StreamingParser.BACKLOG_LIMIT`` lines), ``window_events`` coalescer
rows and one open scoring tile, so whole-machine logs never need to fit
in RAM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cfg_inference import CFG, CFGInferencer
from repro.core.config import LeapsConfig
from repro.core.streaming import StreamScanner, scan_lines
from repro.core.weights import WeightAssessor
from repro.etw.events import EventColumns
from repro.etw.fastparse import parse_columns
from repro.etw.parser import LogLine, RawLogParser
from repro.etw.recovery import ParseReport
from repro.etw.stack_partition import StackPartitioner
from repro.learning.cross_validation import GridResult, grid_search_wsvm
from repro.learning.kernels import PrecomputedKernel, gaussian_kernel
from repro.learning.scaling import Standardizer
from repro.learning.wsvm import WeightedSVM
from repro.preprocessing.features import EventFeaturizer
from repro.preprocessing.windows import WindowArrays, WindowCoalescer


@dataclass(frozen=True)
class TrainingReport:
    """What the training phase saw and chose."""

    n_benign_events: int
    n_mixed_events: int
    n_benign_windows: int
    n_mixed_windows: int
    n_train_windows: int
    mean_mixed_weight: float
    grid: GridResult
    #: (stage name, wall seconds) in execution order: parse, partition,
    #: cfg_inference, weights, featurize, grid_search, final_fit —
    #: the first four are the "prepare" stages (DESIGN.md §10)
    stage_seconds: Tuple[Tuple[str, float], ...] = ()


@dataclass
class PreparedTraining:
    """The scaled training matrix and its provenance counts — everything
    the model-selection stage needs, exposed so benchmarks can time the
    grid search in isolation."""

    X: np.ndarray
    y: np.ndarray
    c: np.ndarray
    #: ``c`` when the config is weighted, else None (plain-SVM baseline)
    importances: Optional[np.ndarray]
    n_benign_events: int
    n_mixed_events: int
    n_benign_windows: int
    n_mixed_windows: int
    mean_mixed_weight: float
    stage_seconds: List[Tuple[str, float]]


class NotTrainedError(RuntimeError):
    pass


#: One training log: raw text, bytes or lines, or columns.
TrainingLog = Union[str, bytes, Iterable[LogLine], EventColumns]


class LeapsPipeline:
    """Stateful trainer/scanner shared by the public detector API."""

    def __init__(self, config: Optional[LeapsConfig] = None):
        self.config = config or LeapsConfig()
        self.parser = RawLogParser(policy=self.config.parse_policy)
        self.partitioner = StackPartitioner()
        self.inferencer = CFGInferencer()
        self.coalescer = WindowCoalescer(
            window_events=self.config.window_events, stride=self.config.stride
        )
        self.benign_cfg: Optional[CFG] = None
        self.mixed_cfg: Optional[CFG] = None
        self.featurizer: Optional[EventFeaturizer] = None
        self.standardizer: Optional[Standardizer] = None
        self.model: Optional[WeightedSVM] = None
        self.report: Optional[TrainingReport] = None

    # -- training phase ------------------------------------------------
    def _columns(self, log: TrainingLog) -> EventColumns:
        """One training log as columns: columns pass, text parses with
        :func:`~repro.etw.fastparse.parse_columns`."""
        if isinstance(log, EventColumns):
            return log
        return parse_columns(log, policy=self.parser.policy)

    def prepare_training_many(
        self,
        benign_logs: Sequence[TrainingLog],
        mixed_logs: Sequence[TrainingLog],
        rng: Optional[np.random.Generator] = None,
    ) -> PreparedTraining:
        """Run every stage up to (but not including) model selection:
        parse → partition → CFGs → weights →
        featurize/coalesce/subsample/scale.  Each item is one log's raw
        text, bytes or lines, or its columns.  Logs are
        parsed, partitioned, CFG-inferred, and window-coalesced
        independently (no implicit edges or windows across captures),
        then stacked in input order.

        Every stage runs on columns: each log's used walks are
        partitioned once into an
        :class:`~repro.preprocessing.features.AttributeTable`, whose
        per-walk app paths feed Algorithm 1 (gathered per event) and
        Algorithm 2 (assessed per walk, gathered per event), and whose
        distinct keys fit the vocabularies."""
        config = self.config
        rng = config.rng() if rng is None else rng
        timings: List[Tuple[str, float]] = []
        clock = time.perf_counter

        started = clock()
        benign_cols = [self._columns(log) for log in benign_logs]
        mixed_cols = [self._columns(log) for log in mixed_logs]
        if not benign_cols or not mixed_cols or any(
            not cols.n_events for cols in benign_cols + mixed_cols
        ):
            raise ValueError("training needs non-empty benign and mixed logs")
        timings.append(("parse", clock() - started))

        started = clock()
        featurizer = EventFeaturizer(self.partitioner)
        benign_tables = [featurizer.attribute_table(cols) for cols in benign_cols]
        mixed_tables = [featurizer.attribute_table(cols) for cols in mixed_cols]
        timings.append(("partition", clock() - started))

        # Algorithm 1 per log, merged per class; Algorithm 2 against the
        # merged benign CFG.
        started = clock()
        self.benign_cfg = self.inferencer.infer_many(
            table.app_paths() for table in benign_tables
        )
        self.mixed_cfg = self.inferencer.infer_many(
            table.app_paths() for table in mixed_tables
        )
        timings.append(("cfg_inference", clock() - started))

        started = clock()
        if config.weighted:
            assessor = WeightAssessor(self.benign_cfg)
            weight_logs = [
                assessor.assess(table.apps).take(table.walk_of)
                for table in mixed_tables
            ]
        else:
            weight_logs = [np.ones(cols.n_events) for cols in mixed_cols]
        timings.append(("weights", clock() - started))

        # 3-tuple features and window coalescing (per log: windows never
        # span a log boundary).
        started = clock()
        self.featurizer = featurizer.fit(*benign_tables, *mixed_tables)
        benign_blocks = [
            self.coalescer.coalesce_matrix(featurizer.transform_columns(table))
            for table in benign_tables
        ]
        mixed_blocks = [
            self.coalescer.coalesce_matrix(featurizer.transform_columns(table))
            for table in mixed_tables
        ]
        n_benign_windows = sum(len(block) for block in benign_blocks)
        n_mixed_windows = sum(len(block) for block in mixed_blocks)
        if not n_benign_windows or not n_mixed_windows:
            raise ValueError(
                "logs too short: need at least one full window per class "
                f"({config.window_events} events)"
            )
        mixed_c = np.concatenate(
            [
                self.coalescer.window_weights(
                    event_weights, aggregate=config.window_weight_agg
                )
                for event_weights in weight_logs
            ]
        )

        X = np.vstack(benign_blocks + mixed_blocks)
        y = np.concatenate(
            [np.ones(n_benign_windows), -np.ones(n_mixed_windows)]
        )
        c = np.concatenate([np.ones(n_benign_windows), mixed_c])

        # Data selection: deterministic subsample of training windows.
        if 0 < config.max_train_windows < len(X):
            keep = np.sort(
                rng.choice(len(X), size=config.max_train_windows, replace=False)
            )
            X, y, c = X[keep], y[keep], c[keep]

        self.standardizer = Standardizer().fit(X)
        X_scaled = self.standardizer.transform(X)
        timings.append(("featurize", clock() - started))

        return PreparedTraining(
            X=X_scaled,
            y=y,
            c=c,
            importances=c if config.weighted else None,
            n_benign_events=sum(cols.n_events for cols in benign_cols),
            n_mixed_events=sum(cols.n_events for cols in mixed_cols),
            n_benign_windows=n_benign_windows,
            n_mixed_windows=n_mixed_windows,
            mean_mixed_weight=float(np.mean(mixed_c)),
            stage_seconds=timings,
        )

    def svm_params(self) -> dict:
        return {"tol": self.config.svm_tol}

    def train(
        self, benign_lines: TrainingLog, mixed_lines: TrainingLog
    ) -> TrainingReport:
        return self.train_many([benign_lines], [mixed_lines])

    def train_many(
        self,
        benign_logs: Sequence[TrainingLog],
        mixed_logs: Sequence[TrainingLog],
    ) -> TrainingReport:
        """Train from fleets of benign and mixed logs (each item as in
        :meth:`prepare_training_many`); identical to :meth:`train` when
        each class has exactly one log."""
        config = self.config
        rng = config.rng()
        prepared = self.prepare_training_many(benign_logs, mixed_logs, rng=rng)
        timings = prepared.stage_seconds
        clock = time.perf_counter

        started = clock()
        svm_params = self.svm_params()
        cache = PrecomputedKernel(prepared.X)
        grid = grid_search_wsvm(
            prepared.X,
            prepared.y,
            prepared.importances,
            config.lam_grid,
            config.sigma2_grid,
            config.cv_folds,
            rng,
            svm_params=svm_params,
            n_jobs=config.n_jobs,
            executor=config.cv_executor,
            cache=cache,
        )
        timings.append(("grid_search", clock() - started))

        # Final full-set fit reuses the winning σ²'s cached Gram — the
        # cache memo already holds it unless CV was skipped.
        started = clock()
        self.model = WeightedSVM(
            kernel=gaussian_kernel(grid.sigma2), lam=grid.lam, **svm_params
        )
        self.model.fit(
            prepared.X,
            prepared.y,
            prepared.importances,
            gram=cache.gram(grid.sigma2),
        )
        timings.append(("final_fit", clock() - started))

        self.report = TrainingReport(
            n_benign_events=prepared.n_benign_events,
            n_mixed_events=prepared.n_mixed_events,
            n_benign_windows=prepared.n_benign_windows,
            n_mixed_windows=prepared.n_mixed_windows,
            n_train_windows=len(prepared.X),
            mean_mixed_weight=prepared.mean_mixed_weight,
            grid=grid,
            stage_seconds=tuple(timings),
        )
        return self.report

    # -- testing phase -------------------------------------------------
    def check_trained(self) -> None:
        """Raise :class:`NotTrainedError` unless the pipeline can scan."""
        if self.model is None or self.featurizer is None or self.standardizer is None:
            raise NotTrainedError("pipeline has not been trained")

    def score_stream(
        self,
        lines: Iterable[str],
        report: Optional[ParseReport] = None,
        policy: Optional[str] = None,
    ) -> Iterator[Tuple[WindowArrays, np.ndarray]]:
        """Stream ``(windows, decision_values)`` per scoring chunk off a
        raw-log line iterator with bounded memory.

        Drains one :class:`~repro.core.streaming.StreamScanner` — the
        scanner a serve shard keeps per stream — with
        :func:`~repro.core.streaming.scan_lines`.  ``report``/``policy``
        expose the recovering-ingestion knobs; the default policy is the
        config's ``parse_policy``.  An untrained pipeline or an unknown
        policy raises here, before any line is read.
        """
        self.check_trained()
        scanner = StreamScanner("", self, policy=policy, report=report)
        return scan_lines(scanner, lines)
