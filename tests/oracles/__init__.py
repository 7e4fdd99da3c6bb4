"""Reference implementations that the production fast paths must match.

Each module keeps the straightforward version of one optimized layer:

* :mod:`tests.oracles.smo` — Platt's scalar SMO partner walk;
* :mod:`tests.oracles.grid` — the grid search that re-kernelizes every
  (λ, σ², fold) cell;
* :mod:`tests.oracles.capture` — the per-event capture writer;
* :mod:`tests.oracles.generation` — the per-event scenario tracer.

The equivalence suites compare production output against these bit for
bit, and the benches time them as the "naive" baseline.  Production code
never imports them.
"""
