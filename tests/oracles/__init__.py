"""Reference implementations that the production fast paths must match.

Each module keeps the straightforward version of one optimized layer:

* :mod:`tests.oracles.qp` — a brute-force active-set solve of the SVM
  dual, which certifies the SMO solver's optimum on small problems;
* :mod:`tests.oracles.grid` — the grid search that re-kernelizes every
  (λ, σ², fold) cell;
* :mod:`tests.oracles.capture` — the per-event capture writer;
* :mod:`tests.oracles.generation` — the per-event scenario tracer;
* :mod:`tests.oracles.stream_scan` — the per-event streaming scan
  (scalar parse, per-event featurize and coalesce, one
  ``decision_function`` call per chunk) that ``scan_stream`` ran before
  it drained the block scanner;
* :mod:`tests.oracles.prepare` — the record-based training prepare
  (per-event partition, fit and window weights) that
  ``prepare_training_many`` ran before it worked on columns.

The equivalence suites compare production output against these bit for
bit, except the QP oracle, which the solver must match within a stated
tolerance; ``benchmarks/bench_table1.py`` times the tracer as its naive
baseline.  Production code never imports them.
"""
