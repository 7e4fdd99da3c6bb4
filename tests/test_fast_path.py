"""The training fast path must be invisible in the results.

Precomputed-Gram training, Gram slicing, the vectorized SMO partner
selection, and the parallel CV executor are all pure optimizations:
every test here pins them to the reference computation in
``tests/oracles`` *bitwise*, not approximately.
"""

import numpy as np
import pytest

from repro.learning.cross_validation import grid_search_wsvm
from repro.learning.kernels import PrecomputedKernel, gaussian_kernel
from repro.learning.svm import ConvergenceWarning, KernelSVM
from repro.learning.wsvm import WeightedSVM

from tests.oracles.grid import grid_search_naive
from tests.oracles.smo import ReferenceWeightedSVM


def toy_problem(seed=2, n=48, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
    c = rng.uniform(size=n)
    c[rng.integers(0, n, size=max(2, n // 10))] = 0.0
    return X, y, c


class TestPrecomputedKernel:
    def test_gram_matches_direct_kernel_bitwise(self):
        X, _, _ = toy_problem()
        cache = PrecomputedKernel(X)
        for sigma2 in (0.5, 2.0, 10.0):
            direct = gaussian_kernel(sigma2)(X, X)
            assert np.array_equal(cache.gram(sigma2), direct)

    def test_gram_is_memoized(self):
        cache = PrecomputedKernel(np.eye(4))
        assert cache.gram(2.0) is cache.gram(2.0)
        assert len(cache) == 4

    def test_slice_matches_fold_recompute(self):
        """K[np.ix_(rows, cols)] must equal re-kernelizing the subset.

        Equality is to the last BLAS bit: dgemm may round the two
        computations differently in the final ulp depending on matrix
        shape, so this pins them to within a few ulps of 1.0-scaled
        kernel values; grid-level equivalence (identical CV tables and
        selection) is asserted end-to-end elsewhere.
        """
        X, _, _ = toy_problem(seed=5, n=60, d=7)
        cache = PrecomputedKernel(X)
        rng = np.random.default_rng(0)
        train = np.sort(rng.choice(60, size=40, replace=False))
        test = np.setdiff1d(np.arange(60), train)
        kernel = gaussian_kernel(3.0)
        assert np.allclose(
            cache.gram_slice(3.0, train, train), kernel(X[train], X[train]),
            rtol=0.0, atol=1e-13,
        )
        assert np.allclose(
            cache.gram_slice(3.0, test, train), kernel(X[test], X[train]),
            rtol=0.0, atol=1e-13,
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PrecomputedKernel(np.zeros(3))
        with pytest.raises(ValueError):
            PrecomputedKernel(np.eye(2)).gram(0.0)


class TestPrecomputedGramFit:
    @pytest.fixture
    def problem(self):
        return toy_problem()

    def test_gram_fit_bit_identical(self, problem):
        X, y, c = problem
        kernel = gaussian_kernel(2.0)
        direct = WeightedSVM(kernel=kernel, lam=5.0, seed=1).fit(X, y, c)
        cached = WeightedSVM(kernel=kernel, lam=5.0, seed=1).fit(
            X, y, c, gram=kernel(X, X)
        )
        assert np.array_equal(direct.alpha, cached.alpha)
        assert direct.b == cached.b
        assert direct.n_sweeps_ == cached.n_sweeps_
        probe = np.linspace(-2, 2, 10)[:, None] * np.ones((1, X.shape[1]))
        assert np.array_equal(
            direct.decision_function(probe), cached.decision_function(probe)
        )

    def test_gram_predictions_match(self, problem):
        """Cross-Gram prediction (the CV-fold eval path) must equal
        kernelized prediction: same labels, scores equal to the last
        BLAS ulp (the two paths contract the support columns in
        shape-dependent dgemm orders)."""
        X, y, c = problem
        kernel = gaussian_kernel(2.0)
        model = WeightedSVM(kernel=kernel, lam=5.0).fit(X, y, c, gram=kernel(X, X))
        rng = np.random.default_rng(9)
        X_new = rng.normal(size=(7, X.shape[1]))
        cross = kernel(X_new, X)
        assert np.allclose(
            model.decision_function(gram=cross), model.decision_function(X_new),
            rtol=0.0, atol=1e-12,
        )
        assert np.array_equal(model.predict(gram=cross), model.predict(X_new))

    def test_gram_only_fit_requires_gram_prediction(self, problem):
        X, y, _ = problem
        kernel = gaussian_kernel(2.0)
        model = KernelSVM(kernel=kernel).fit(None, y, gram=kernel(X, X))
        with pytest.raises(RuntimeError, match="gram"):
            model.decision_function(X)
        assert len(model.decision_function(gram=kernel(X, X))) == len(X)

    def test_gram_shape_validation(self, problem):
        X, y, _ = problem
        with pytest.raises(ValueError):
            KernelSVM().fit(X, y, gram=np.eye(len(y) - 1))
        with pytest.raises(ValueError):
            KernelSVM().fit(None, y)
        model = KernelSVM().fit(X, y)
        with pytest.raises(ValueError):
            model.decision_function(gram=np.zeros((3, len(y) + 1)))
        with pytest.raises(ValueError):
            model.decision_function()


class TestPartnerRuleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_models(self, seed):
        X, y, c = toy_problem(seed=seed, n=64, d=4)
        kwargs = dict(kernel=gaussian_kernel(1.5), lam=8.0, seed=seed)
        reference = ReferenceWeightedSVM(**kwargs).fit(X, y, c)
        vectorized = WeightedSVM(**kwargs).fit(X, y, c)
        assert np.array_equal(reference.alpha, vectorized.alpha)
        assert reference.b == vectorized.b
        assert reference.n_sweeps_ == vectorized.n_sweeps_
        assert np.array_equal(
            reference.decision_function(X), vectorized.decision_function(X)
        )

    def test_unknown_rule_rejected(self):
        # partner selection is not a setting: the one rule is built in
        with pytest.raises(TypeError, match="partner_rule"):
            KernelSVM(partner_rule="reference")


class TestSolverHealth:
    def test_converged_flag_and_sweeps(self):
        X, y, _ = toy_problem()
        model = KernelSVM(kernel=gaussian_kernel(2.0), C=1.0).fit(X, y)
        assert model.converged_
        assert model.n_sweeps_ >= 1

    def test_sweep_cap_warns(self):
        X, y, _ = toy_problem(seed=3)
        model = KernelSVM(kernel=gaussian_kernel(2.0), C=100.0, max_sweeps=1)
        with pytest.warns(ConvergenceWarning):
            model.fit(X, y)
        assert not model.converged_
        assert model.n_sweeps_ == 1

    def test_intercept_initialized_before_fit(self):
        model = KernelSVM()
        assert model._b == 0.0 and model.b == 0.0
        assert model.n_sweeps_ == 0 and not model.converged_


class TestGridSearchFastPath:
    @pytest.fixture
    def problem(self):
        return toy_problem(seed=7, n=40, d=2)

    GRID = dict(lam_grid=(1.0, 10.0), sigma2_grid=(0.5, 5.0), folds=2)

    def search(self, problem, **overrides):
        X, y, c = problem
        params = {**self.GRID, **overrides}
        return grid_search_wsvm(
            X, y, c,
            params["lam_grid"], params["sigma2_grid"], params["folds"],
            np.random.default_rng(0),
            n_jobs=params.get("n_jobs", 1),
            executor=params.get("executor", "process"),
        )

    def test_cached_equals_naive_reference(self, problem):
        """Distance-cache fold slicing + vectorized partner selection vs
        per-cell re-kernelization + scalar walk: identical GridResult."""
        X, y, c = problem
        naive = grid_search_naive(
            X, y, c, self.GRID["lam_grid"], self.GRID["sigma2_grid"],
            self.GRID["folds"], np.random.default_rng(0),
        )
        assert naive == self.search(problem)

    def test_parallel_threads_equal_serial(self, problem):
        serial = self.search(problem, n_jobs=1)
        threaded = self.search(problem, n_jobs=4, executor="thread")
        assert serial == threaded

    def test_parallel_processes_equal_serial(self, problem):
        serial = self.search(problem, n_jobs=1)
        multiprocess = self.search(problem, n_jobs=2, executor="process")
        assert serial == multiprocess

    def test_shared_cache_instance_reusable(self, problem):
        X, y, c = problem
        cache = PrecomputedKernel(X)
        result = grid_search_wsvm(
            X, y, c, (1.0, 10.0), (0.5, 5.0), 2, np.random.default_rng(0),
            cache=cache,
        )
        # the winning σ² Gram is memoized for the caller's final fit
        assert float(result.sigma2) in cache._grams
        assert self.search(problem) == result

    def test_executor_validation(self, problem):
        with pytest.raises(ValueError, match="executor"):
            self.search(problem, executor="fork-bomb")
        with pytest.raises(ValueError, match="n_jobs"):
            self.search(problem, n_jobs=0)
