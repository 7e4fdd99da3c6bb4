"""SMO solver verified against analytically solvable problems, and
every fit certified by optimality: feasibility, the maximal KKT
violation and the duality gap, all from a recomputed gradient, plus
agreement with the brute-force QP oracle on small problems."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LeapsConfig
from repro.core.pipeline import LeapsPipeline
from repro.learning.kernels import gaussian_kernel, linear_kernel
from repro.learning.svm import KernelSVM
from repro.learning.wsvm import WeightedSVM

from tests.oracles.qp import solve_dual


class TestTwoPointProblem:
    """x=±1 with y=±1, linear kernel: the dual maximizes 2α − 2α², so
    α₁ = α₂ = 0.5, w = 1, b = 0."""

    @pytest.fixture
    def model(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        return KernelSVM(kernel=linear_kernel, C=10.0).fit(X, y)

    def test_alphas(self, model):
        assert model.alpha == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_intercept(self, model):
        assert model.b == pytest.approx(0.0, abs=1e-6)

    def test_decision_values(self, model):
        scores = model.decision_function(np.array([[1.0], [-1.0], [0.0]]))
        assert scores == pytest.approx([1.0, -1.0, 0.0], abs=1e-6)

    def test_dual_feasibility(self, model):
        # Σ αᵢyᵢ = 0 and 0 ≤ αᵢ ≤ C
        y = np.array([1.0, -1.0])
        assert float(model.alpha @ y) == pytest.approx(0.0, abs=1e-9)
        assert np.all(model.alpha >= 0) and np.all(model.alpha <= 10.0)


class TestFourPointProblem:
    """Collinear points −2,−1 (y=−1) and 1,2 (y=+1): only the inner pair
    are support vectors.  Margins at x = ±1 force w = 1 and b = 0, so
    f(x) = x and (by Σαᵢyᵢxᵢ = w with symmetry) α = 0.5 each."""

    @pytest.fixture
    def model(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        return KernelSVM(kernel=linear_kernel, C=10.0).fit(X, y)

    def test_support_vectors(self, model):
        assert model.alpha == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-6)
        assert set(model.support_) == {1, 2}

    def test_decision_is_identity(self, model):
        grid = np.array([[-2.0], [-0.5], [0.0], [1.5]])
        assert model.decision_function(grid) == pytest.approx(
            [-2.0, -0.5, 0.0, 1.5], abs=1e-6
        )

    def test_perfect_classification(self, model):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        assert model.predict(X).tolist() == [-1.0, -1.0, 1.0, 1.0]


class TestPerSampleBoxConstraints:
    def test_zero_weight_sample_is_ignored(self):
        """A conflicting point with C_i = 0 must not move the boundary:
        the solution matches the clean two-point problem exactly."""
        X = np.array([[1.0], [-1.0], [1.0]])
        y = np.array([1.0, -1.0, -1.0])  # third point mislabeled
        model = WeightedSVM(kernel=linear_kernel, lam=10.0)
        model.fit(X, y, c=np.array([1.0, 1.0, 0.0]))
        assert model.alpha[2] == 0.0
        assert model.decision_function(np.array([[1.0], [-1.0]])) == pytest.approx(
            [1.0, -1.0], abs=1e-6
        )

    def test_alpha_respects_scaled_bound(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        model = WeightedSVM(kernel=linear_kernel, lam=0.2)
        model.fit(X, y, c=np.array([1.0, 0.5]))
        # bounds: α₀ ≤ 0.2, α₁ ≤ 0.1; equality constraint forces both to 0.1
        assert model.alpha == pytest.approx([0.1, 0.1], abs=1e-6)

    def test_uniform_weights_equal_plain_svm(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 2))
        y = np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0)
        plain = KernelSVM(kernel=linear_kernel, C=2.0).fit(X, y)
        weighted = WeightedSVM(kernel=linear_kernel, lam=2.0).fit(X, y)
        grid = rng.normal(size=(10, 2))
        assert weighted.decision_function(grid) == pytest.approx(
            plain.decision_function(grid), abs=1e-6
        )

    def test_importances_outside_unit_interval_rejected(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        with pytest.raises(ValueError):
            WeightedSVM().fit(X, y, c=np.array([1.0, 2.0]))


class TestGaussianKernelSVM:
    def test_xor_is_separable(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        model = KernelSVM(kernel=gaussian_kernel(0.5), C=100.0).fit(X, y)
        assert model.predict(X).tolist() == y.tolist()

    def test_determinism(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = np.where(rng.normal(size=30) > 0, 1.0, -1.0)
        first = KernelSVM(kernel=gaussian_kernel(2.0), C=1.0).fit(X, y)
        second = KernelSVM(kernel=gaussian_kernel(2.0), C=1.0).fit(X, y)
        assert np.array_equal(first.alpha, second.alpha)
        assert first.b == second.b


class TestZeroSupportVectors:
    """A model can legitimately end up with no support vectors (e.g.
    every per-sample bound is zero); both decision_function branches
    must then return the same constant-intercept vector."""

    @pytest.fixture
    def empty_model(self):
        X = np.array([[1.0], [-1.0], [2.0]])
        y = np.array([1.0, -1.0, 1.0])
        model = WeightedSVM(kernel=gaussian_kernel(1.0), lam=10.0)
        model.fit(X, y, c=np.zeros(3))
        assert len(model.support_) == 0
        return model, X

    def test_x_branch_shape_and_value(self, empty_model):
        model, X = empty_model
        scores = model.decision_function(X)
        assert scores.shape == (3,)
        assert np.array_equal(scores, np.full(3, model.b))

    def test_gram_branch_matches_x_branch(self, empty_model):
        """Regression: the gram branch used to return a differently
        shaped result than the no-gram branch with zero SVs."""
        model, X = empty_model
        gram = gaussian_kernel(1.0)(X, X)
        from_gram = model.decision_function(gram=gram)
        from_x = model.decision_function(X)
        assert from_gram.shape == from_x.shape == (3,)
        assert np.array_equal(from_gram, from_x)
        assert from_gram.dtype == from_x.dtype


class TestGaussianScoringFastPath:
    def test_cached_norm_path_is_bit_identical_to_kernel_call(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = np.where(X[:, 0] - X[:, 2] > 0, 1.0, -1.0)
        model = WeightedSVM(kernel=gaussian_kernel(2.0), lam=5.0).fit(X, y)
        assert len(model.support_)
        probe = rng.normal(size=(17, 4))
        fast = model.decision_function(probe)
        reference = model.kernel(probe, model._sv_X) @ model._sv_coef + model.b
        assert np.array_equal(fast, reference)

    def test_non_gaussian_kernel_still_scores(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = np.where(X.sum(axis=1) > 0, 1.0, -1.0)
        model = KernelSVM(kernel=linear_kernel, C=1.0).fit(X, y)
        probe = rng.normal(size=(5, 2))
        reference = linear_kernel(probe, model._sv_X) @ model._sv_coef + model.b
        assert np.array_equal(model.decision_function(probe), reference)


def _fitted_gaussian_models():
    """Gaussian models on 30-dim samples (the window width) whose SV
    counts run from the whole fit down to one: leading slices of each
    fit's support vectors, restored the way a loaded bundle is."""
    rng = np.random.default_rng(11)
    models = []
    for sigma2 in (0.5, 30.0):
        X = rng.normal(size=(160, 30))
        y = np.where(rng.random(160) < 0.5, 1.0, -1.0)
        fit = WeightedSVM(kernel=gaussian_kernel(sigma2), lam=10.0).fit(X, y)
        for n_sv in sorted({len(fit.support_), 37, 16, 2, 1}):
            model = KernelSVM(kernel=fit.kernel)
            model.alpha, model.b = fit.alpha, fit.b
            model.support_ = fit.support_[:n_sv]
            model._sv_X = fit._sv_X[:n_sv]
            model._sv_coef = fit._sv_coef[:n_sv]
            model._refresh_scoring_cache()
            models.append(model)
    return models


class TestTiledScoring:
    """``decision_tiles``: each tile scores bit for bit as the kernel
    call on that tile alone, whatever else the matrix holds."""

    @pytest.fixture(scope="class")
    def models(self):
        return _fitted_gaussian_models()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_tile_equals_the_kernel_on_it_alone(self, models, data):
        model = data.draw(st.sampled_from(models))
        tile = data.draw(st.sampled_from([1, 2, 3, 16, 256]))
        n_rows = tile * data.draw(st.integers(0, 1200 // tile)) + data.draw(
            st.integers(0, tile - 1)
        )
        seed = data.draw(st.integers(0, 2**16))
        X = np.random.default_rng(seed).normal(size=(n_rows, 30))
        scores = model.decision_tiles(X, tile)
        assert scores.shape == (n_rows,)
        for start in range(0, n_rows, tile):
            rows = X[start : start + tile]
            reference = model.kernel(rows, model._sv_X) @ model._sv_coef + model.b
            assert np.array_equal(scores[start : start + tile], reference)
            assert np.array_equal(
                model.decision_tiles(rows, tile), model.decision_function(rows)
            )
            assert np.array_equal(model.decision_function(rows), reference)

    def test_non_gaussian_kernel_scores_tile_by_tile(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 3))
        y = np.where(X.sum(axis=1) > 0, 1.0, -1.0)
        model = KernelSVM(kernel=linear_kernel, C=1.0).fit(X, y)
        probe = rng.normal(size=(11, 3))
        want = np.concatenate([
            model.decision_function(probe[start : start + 4])
            for start in range(0, 11, 4)
        ])
        assert np.array_equal(model.decision_tiles(probe, 4), want)


class TestValidation:
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([1.0, 1.0, -1.0, -1.0])

    def test_rejects_non_pm1_labels(self):
        with pytest.raises(ValueError, match="±1"):
            KernelSVM().fit(np.ones((2, 1)), np.array([0.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            KernelSVM().fit(np.ones((3, 1)), np.array([1.0, -1.0]))

    def test_decision_before_fit(self):
        with pytest.raises(RuntimeError):
            KernelSVM().decision_function(np.ones((1, 1)))

    @pytest.mark.parametrize("C", [np.nan, np.inf, -1.0])
    def test_rejects_bad_box_bound(self, C):
        with pytest.raises(ValueError, match="finite"):
            KernelSVM(C=C).fit(self.X, self.Y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sample_C(self, bad):
        with pytest.raises(ValueError, match="finite"):
            KernelSVM().fit(self.X, self.Y, sample_C=[bad, 1.0, 1.0, 1.0])

    def test_rejects_nan_importance(self):
        with pytest.raises(ValueError, match="importances"):
            WeightedSVM(lam=1.0).fit(self.X, self.Y, c=[np.nan, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "lam, c",
        [(np.nan, [1.0] * 4), (np.inf, [1.0] * 4), (np.inf, [0.0, 1.0, 1.0, 1.0])],
    )
    def test_rejects_non_finite_budget(self, lam, c):
        # as errors, so inf · 0 cannot warn before the ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                WeightedSVM(lam=lam).fit(self.X, self.Y, c=c)

    @pytest.mark.parametrize("C", [np.nan, -1.0])
    def test_rejects_bad_budget_before_the_kernel(self, C):
        def kernel(A, B):
            raise AssertionError("kernel evaluated before the budget check")

        with pytest.raises(ValueError, match="finite"):
            KernelSVM(kernel=kernel, C=C).fit(self.X, self.Y)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            KernelSVM(tol=tol).fit(self.X, self.Y)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf])
    def test_rejects_non_finite_kernel_width(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            gaussian_kernel(sigma2)


def certificate(K, y, C, alpha, b):
    """The maximal KKT violation m(α) − M(α) and the duality gap
    P(α, b) − D(α), from a gradient recomputed here — never from the
    solver's running one."""
    Q = np.outer(y, y) * K
    Q_alpha = Q @ alpha
    v = y - y * Q_alpha  # −y∘∇f(α), with ∇f(α) = Qα − e
    up = np.where(y > 0, alpha < C, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < C)
    violation = v[up].max(initial=-np.inf) - v[low].min(initial=np.inf)
    margins = y * (K @ (alpha * y) + b)
    primal = 0.5 * alpha @ Q_alpha + C @ np.maximum(0.0, 1.0 - margins)
    dual = alpha.sum() - 0.5 * alpha @ Q_alpha
    return violation, primal - dual


def assert_certified(model, K, y, C):
    alpha = model.alpha
    assert np.all(alpha >= 0.0) and np.all(alpha <= C)
    assert abs(y @ alpha) <= 1e-9 * C.sum()
    violation, gap = certificate(K, y, C, alpha, model.b)
    assert model.converged_
    assert violation <= model.tol + 1e-9
    # the ε stop bounds the gap for any intercept in [M(α), m(α)]
    assert gap <= model.tol * C.sum() + 1e-9


def toy_problems():
    """Small problems with zero importances and duplicate rows (so Q
    is singular), for both kernels the solver sees."""
    rng = np.random.default_rng(11)
    problems = []
    for n, sigma2, lam in ((8, 1.0, 4.0), (8, None, 0.5), (7, 0.3, 50.0), (6, 2.0, 1.0)):
        X = rng.integers(-2, 3, size=(n, 2)).astype(float)
        # rows 0/1 repeat with opposite labels, rows 2/3 with one label
        X[1] = X[0]
        X[3] = X[2]
        y = np.where(rng.normal(size=n) > 0, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        y[2:4] = (1.0, 1.0)
        c = rng.choice([0.0, 0.3, 1.0], size=n)
        c[4] = 0.0
        c[5] = 1.0
        kernel = linear_kernel if sigma2 is None else gaussian_kernel(sigma2)
        problems.append((X, y, lam * c, kernel))
    return problems


def fit_problem(X, y, C, kernel, tol=1e-3):
    model = KernelSVM(kernel=kernel, tol=tol).fit(X, y, sample_C=C)
    return model, kernel(X, X)


def assert_matches_oracle(X, y, C, kernel):
    model, K = fit_problem(X, y, C, kernel, tol=1e-9)
    assert_certified(model, K, y, C)
    optimum = solve_dual(K, y, C)
    Q = np.outer(y, y) * K
    dual = model.alpha.sum() - 0.5 * model.alpha @ Q @ model.alpha
    assert dual == pytest.approx(optimum.dual, abs=1e-9)
    # the optimal decision function is unique up to the intercept,
    # which is unique too unless no optimal α has a free component
    b = np.clip(model.b, optimum.b_low, optimum.b_high)
    expected = K @ (optimum.alpha * y) + b
    assert model.decision_function(X) == pytest.approx(expected, abs=1e-6)


class TestCertification:
    """Optimality certificates for every fit: nothing here compares the
    solver with an earlier solver's bits."""

    @pytest.mark.parametrize("index", range(4))
    def test_toy_problem_certified(self, index):
        X, y, C, kernel = toy_problems()[index]
        model, K = fit_problem(X, y, C, kernel)
        assert_certified(model, K, y, C)

    @pytest.mark.parametrize("index", range(4))
    def test_toy_problem_matches_qp_oracle(self, index):
        assert_matches_oracle(*toy_problems()[index])

    def test_prepared_training_matrix_certified(self, generated_row):
        config = LeapsConfig()
        pipeline = LeapsPipeline(config)
        prepared = pipeline.prepare_training_many(
            [(generated_row / "benign.log").read_text().splitlines()],
            [(generated_row / "mixed.log").read_text().splitlines()],
            rng=config.rng(),
        )
        y, c = prepared.y, prepared.importances
        assert np.any(c == 0.0) and len(y) > 100  # non-vacuous
        for lam in config.lam_grid:
            for sigma2 in config.sigma2_grid:
                kernel = gaussian_kernel(sigma2)
                model = WeightedSVM(kernel=kernel, lam=lam, tol=config.svm_tol)
                model.fit(prepared.X, y, c)
                assert_certified(model, kernel(prepared.X, prepared.X), y, lam * c)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                              st.sampled_from([0.0, 1.0])),
                    min_size=n, max_size=n,
                ),
                st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n),
                st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n),
            )
        ),
        st.sampled_from([0.1, 1.0, 20.0]),
        st.sampled_from([None, 0.5, 3.0]),
    )
    def test_matches_qp_oracle_on_any_small_problem(self, problem, lam, sigma2):
        rows, labels, importances = problem
        kernel = linear_kernel if sigma2 is None else gaussian_kernel(sigma2)
        assert_matches_oracle(
            np.array(rows), np.array(labels), lam * np.array(importances), kernel
        )
