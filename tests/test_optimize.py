import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import distribution_triples
from maxprob import (
    AscentConfig,
    DimensionMismatch,
    NonPositiveAlpha,
    ObjectiveConfig,
    Parameterization,
    apply_parameterization,
    ascend,
    fd_gradient,
    finite_difference_check,
    gradient_at_theta,
    grid_argmax,
    mc_gradient,
    uniform_distribution,
)

SIGMOID = Parameterization.sigmoid_bernoulli()
UNIFORM2 = uniform_distribution(SIGMOID.range)

# First ten draws of the default generator at seed 12345, pinned so a numpy
# upgrade that changes the stream is caught here rather than as a silent
# reproducibility break in every seeded artifact.
PINNED_DRAWS = [
    0.22733602246716966,
    0.31675833970975287,
    0.7973654573327341,
    0.6762546707509746,
    0.391109550601909,
    0.33281392786638453,
    0.5983087535871898,
    0.18673418560371335,
    0.6727560440146213,
    0.9418028652699372,
]


class TestGeneratorContract:
    def test_pinned_draws(self):
        draws = np.random.default_rng(12345).random(10)
        assert list(draws) == PINNED_DRAWS


class TestAscentConfig:
    def test_rejects_non_positive_step(self):
        with pytest.raises(NonPositiveAlpha):
            AscentConfig(step_size=0.0)

    def test_rejects_empty_budget(self):
        with pytest.raises(DimensionMismatch):
            AscentConfig(max_iters=0)


class TestAscend:
    def intersection_config(self, alpha=2.0):
        return ObjectiveConfig("intersection", "cond-independent", alpha, UNIFORM2)

    def test_start_at_optimum_converges_immediately(self):
        oracle = apply_parameterization(SIGMOID, 1.5)
        trace = ascend(self.intersection_config(), oracle, SIGMOID, 1.5,
                       AscentConfig(grad_tol=1e-6))
        assert trace.status == "converged"
        assert trace.iterations == 1
        np.testing.assert_array_equal(trace.final_theta, [1.5])

    def test_recovers_bernoulli_oracle(self):
        target = np.log(9.0)
        oracle = apply_parameterization(SIGMOID, target)
        trace = ascend(self.intersection_config(), oracle, SIGMOID, 0.0,
                       AscentConfig(step_size=1.0, max_iters=10000, grad_tol=1e-10))
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.final_theta, [target], atol=1e-8)

    def test_trace_values_increase_along_the_run(self):
        oracle = apply_parameterization(SIGMOID, np.log(9.0))
        trace = ascend(self.intersection_config(), oracle, SIGMOID, 0.0,
                       AscentConfig(step_size=0.5, max_iters=200))
        assert np.all(np.diff(trace.values) > -1e-12)
        assert trace.thetas.shape == (trace.iterations, 1)
        assert trace.values.shape == (trace.iterations,)
        assert trace.grad_norms.shape == (trace.iterations,)

    def test_budget_exhaustion_reports_max_iters(self):
        oracle = apply_parameterization(SIGMOID, np.log(9.0))
        trace = ascend(self.intersection_config(), oracle, SIGMOID, 0.0,
                       AscentConfig(step_size=0.01, max_iters=5))
        assert trace.status == "max_iters"
        assert trace.iterations == 5

    def test_runaway_iterate_reports_diverged(self):
        oracle = apply_parameterization(SIGMOID, np.log(9.0))
        trace = ascend(self.intersection_config(), oracle, SIGMOID, 0.0,
                       AscentConfig(step_size=1e8, max_iters=50))
        assert trace.status == "diverged"

    def test_likelihood_with_sure_oracle_never_settles(self):
        """The likelihood alone pushes theta toward infinity; no interior optimum."""
        oracle = apply_parameterization(SIGMOID, 40.0)
        config = ObjectiveConfig("likelihood", "cond-independent", 1.0, UNIFORM2)
        trace = ascend(config, oracle, SIGMOID, 0.0,
                       AscentConfig(step_size=1.0, max_iters=300))
        assert trace.status == "max_iters"
        assert trace.final_theta[0] > trace.thetas[0, 0]


class TestMCGradient:
    def setup_method(self):
        self.config = ObjectiveConfig("intersection", "cond-independent", 2.0, UNIFORM2)
        self.oracle = apply_parameterization(SIGMOID, 1.0)

    def test_same_seed_same_estimate(self):
        a = mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 500, seed=7)
        b = mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 500, seed=7)
        np.testing.assert_array_equal(a.d_theta, b.d_theta)
        np.testing.assert_array_equal(a.d_logp, b.d_logp)

    def test_unbiased_within_monte_carlo_error(self):
        exact = gradient_at_theta(self.config, self.oracle, SIGMOID, 0.3).d_theta[0]
        estimates = np.array([
            mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 1000, seed=500 + i)
            .d_theta[0]
            for i in range(200)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 4.0 * se

    def test_rejects_empty_sample(self):
        with pytest.raises(DimensionMismatch):
            mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 0, seed=1)

    def test_estimate_lives_in_the_gradient_gauge(self):
        g = mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 400, seed=3)
        np.testing.assert_allclose(g.d_logp.sum(), 0.0, atol=1e-12)


class TestFiniteDifferences:
    def test_fd_gradient_on_a_quadratic(self):
        grad = fd_gradient(lambda t: float(-((t - 2.0) ** 2).sum()),
                           np.array([0.5, 3.0]))
        np.testing.assert_allclose(grad, [3.0, -2.0], rtol=1e-8)

    @given(distribution_triples(allow_zeros=(False, False, False), max_n=2),
           st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           st.floats(-2.0, 2.0, allow_nan=False))
    def test_analytic_matches_fd_on_bernoulli_slices(self, triple, alpha, theta):
        prior, oracle, _ = triple
        p = Parameterization.sigmoid_bernoulli(prior.range)
        for kind in ("likelihood", "intersection"):
            config = ObjectiveConfig(kind, "cond-independent", alpha, prior)
            analytic = gradient_at_theta(config, oracle, p, theta).d_theta
            if np.min(np.abs(analytic)) < 1e-3:
                # difference quotients lose relative accuracy near critical
                # points; formula correctness there is covered by continuity
                continue
            assert finite_difference_check(config, oracle, p, theta) <= 1e-6


class TestGridArgmax:
    def test_ties_go_to_the_first_point(self):
        result = grid_argmax(lambda t: -abs(t), [-1.0, 1.0, 2.0])
        assert result.index == 0
        assert result.theta == -1.0
        assert result.value == -1.0

    def test_interior_maximum(self):
        grid = np.linspace(-3.0, 3.0, 61)
        result = grid_argmax(lambda t: -(t - 0.5) ** 2, grid)
        np.testing.assert_allclose(result.theta, 0.5, atol=1e-12)

    def test_values_come_from_one_call_and_nan_never_wins(self):
        calls = []

        def values(grid):
            calls.append(grid.copy())
            return np.array([np.nan, 1.0, 3.0, 3.0, np.nan])

        result = grid_argmax(values, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert len(calls) == 1 and calls[0].shape == (5,)
        assert (result.index, result.theta, result.value) == (2, 2.0, 3.0)

    def test_no_value_above_minus_inf_reports_the_first_point(self):
        result = grid_argmax(lambda g: np.array([np.nan, -np.inf]), [5.0, 6.0])
        assert (result.index, result.theta, result.value) == (0, 5.0, -np.inf)

    def test_values_of_another_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            grid_argmax(lambda g: g[:-1], [0.0, 1.0, 2.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(DimensionMismatch):
            grid_argmax(lambda t: t, [])
