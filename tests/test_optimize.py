import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import (alphas, dist_from_weights, distribution_triples, labels_of,
                     rounding_bound, weight_lists)
from maxprob import (
    AscentConfig,
    DimensionMismatch,
    DomainError,
    InvalidSetting,
    NonFiniteParameter,
    ObjectiveConfig,
    OracleSupportEscapesModel,
    OutcomeRange,
    Parameterization,
    RangeMismatch,
    apply_parameterization,
    ascend,
    evaluate,
    fd_gradient,
    finite_difference_check,
    gradient_at_theta,
    gradient_terms,
    grid_argmax,
    make_distribution,
    mc_gradient,
    uniform_distribution,
    value_at_theta,
)
from maxprob import optimize
from maxprob.logspace import NEG_INF
from maxprob.objectives import ASSUMPTIONS, KINDS

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
        with pytest.raises(InvalidSetting):
            AscentConfig(step_size=0.0)

    def test_rejects_empty_budget(self):
        with pytest.raises(InvalidSetting):
            AscentConfig(max_iters=0)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(InvalidSetting):
            AscentConfig(grad_tol=-1e-8)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["step_size", "grad_tol"])
    def test_rejects_non_finite_settings(self, name, bad):
        with pytest.raises(NonFiniteParameter):
            AscentConfig(**{name: bad})


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


def assert_same_run(trace, ref):
    assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
    np.testing.assert_allclose(trace.thetas, ref.thetas, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.values, ref.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.grad_norms, ref.grad_norms, rtol=0, atol=1e-12)


def assert_bitwise_run(trace, ref):
    assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
    for name in ("thetas", "values", "grad_norms"):
        assert getattr(trace, name).tobytes() == getattr(ref, name).tobytes(), name


def assert_run_within_rounding(trace, ref, alpha):
    """Each step adds at most one kernel's rounding error, which a settling fit does not
    amplify: iterate i, counted from 1, is held to i rounding_bound(max(1, alpha) max|theta_i|)."""
    assert (trace.status, trace.iterations) == (ref.status, ref.iterations)
    steps = np.arange(1, ref.iterations + 1)
    bound = steps * rounding_bound(max(1.0, alpha) * np.abs(ref.thetas).max(axis=1))
    assert (np.abs(trace.thetas - ref.thetas).max(axis=1) <= bound).all()
    assert (np.abs(trace.values - ref.values) <= bound).all()
    assert (np.abs(trace.grad_norms - ref.grad_norms) <= bound).all()


def package_sliced(config, oracle, p, theta0, cfg):
    """reference.ascend_sliced's loop over the package's own evaluate and gradient_terms."""
    def step(theta):
        model = apply_parameterization(p, theta)
        attract, repulse = gradient_terms(config, model, oracle)
        return evaluate(config, model, oracle), (attract - repulse)[:p.dim]
    return reference._ascent_loop(step, theta0, cfg)


def assert_matches_both_loops(config, oracle, p, theta0, cfg):
    """Within 1e-12 of the loop that pulled gradients back through J, within rounding
    of the sliced loop over the scalar reference kernels, and bit for bit the same
    sliced loop over the package's evaluate and gradient_terms: a rounding change in
    a step kernel moves the whole trajectory, which a tolerance can let through."""
    trace = ascend(config, oracle, p, theta0, cfg)
    assert_same_run(trace, reference.ascend(config, oracle, p, theta0, cfg))
    assert_run_within_rounding(trace, reference.ascend_sliced(config, oracle, p, theta0, cfg),
                               config.alpha)
    assert_bitwise_run(trace, package_sliced(config, oracle, p, theta0, cfg))


class TestAscendMatchesReference:
    """ascend against the two reference loops (see assert_matches_both_loops)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    @pytest.mark.parametrize("theta_star", [0.25, 1.25])
    def test_sigmoid_fits(self, theta_star, alpha, kind, assumption):
        oracle = apply_parameterization(SIGMOID, theta_star)
        config = ObjectiveConfig(kind, assumption, alpha, UNIFORM2)
        cfg = AscentConfig(step_size=1.0, max_iters=400, grad_tol=1e-10)
        assert_matches_both_loops(config, oracle, SIGMOID, 0.0, cfg)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_softmax_fit_at_k64(self, kind, assumption):
        rng = np.random.default_rng(64)
        labels = OutcomeRange(labels_of(64))
        prior = make_distribution(labels, rng.dirichlet(np.ones(64)))
        oracle = make_distribution(labels, rng.dirichlet(np.ones(64)))
        p = Parameterization.softmax_logits(labels)
        config = ObjectiveConfig(kind, assumption, 2.0, prior)
        cfg = AscentConfig(step_size=1.0, max_iters=40)
        assert_matches_both_loops(config, oracle, p, np.zeros(64), cfg)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_softmax_fit_at_k64_with_exact_zeros_in_the_oracle(self, kind, assumption):
        """The joint support has holes, so the posterior sums -inf padding at K >= 8."""
        rng = np.random.default_rng(640)
        labels = OutcomeRange(labels_of(64))
        prior = make_distribution(labels, rng.dirichlet(np.ones(64)))
        weights = rng.dirichlet(np.ones(64))
        weights[rng.choice(64, 6, replace=False)] = 0.0
        oracle = make_distribution(labels, weights / weights.sum())
        p = Parameterization.softmax_logits(labels)
        config = ObjectiveConfig(kind, assumption, 2.0, prior)
        cfg = AscentConfig(step_size=1.0, max_iters=40)
        assert_matches_both_loops(config, oracle, p, np.zeros(64), cfg)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_sure_oracle_of_criterion_8(self, kind, assumption):
        oracle = make_distribution(SIGMOID.range, [1.0, 0.0])
        config = ObjectiveConfig(kind, assumption, 1.0, UNIFORM2)
        cfg = AscentConfig(step_size=0.2, max_iters=1000)
        assert_matches_both_loops(config, oracle, SIGMOID, 0.0, cfg)


class TestAscendValidation:
    """Bad input raises what the per-step path raised, checked once up front."""

    @pytest.mark.parametrize("theta0,oracle_labels,error", [
        ([0.0, 1.0], ("1", "0"), DimensionMismatch),
        ([np.nan], ("1", "0"), NonFiniteParameter),
        ([0.0], ("a", "b"), RangeMismatch),
        ([0.0, 1.0], ("a", "b"), DimensionMismatch),
    ])
    def test_same_error_as_the_reference(self, theta0, oracle_labels, error):
        oracle = make_distribution(OutcomeRange(oracle_labels), [0.5, 0.5])
        config = ObjectiveConfig("intersection", "cond-independent", 2.0, UNIFORM2)
        for run in (ascend, reference.ascend):
            with pytest.raises(error):
                run(config, oracle, SIGMOID, theta0, AscentConfig(max_iters=3))

    def test_overflowing_logit_gap_fails_the_support_check(self):
        p = Parameterization.softmax_logits(2)
        oracle = uniform_distribution(p.range)
        config = ObjectiveConfig("likelihood", "oracle-subset", 2.0, oracle)
        with pytest.raises(OracleSupportEscapesModel):
            ascend(config, oracle, p, [1e308, -1e308])


def run_or_error(run, *args):
    """run's trace, or the class of the DomainError it raised."""
    try:
        return run(*args)
    except DomainError as exc:
        return type(exc)


def count_binds(monkeypatch) -> list:
    """The support mask of every objective bind that ascend makes from now on."""
    masks = []
    bind = optimize._bind

    def counting(config, supp, *args, **kwargs):
        masks.append(supp.copy())
        return bind(config, supp, *args, **kwargs)
    monkeypatch.setattr(optimize, "_bind", counting)
    return masks


def count_masks(monkeypatch) -> list:
    """Every support mask, logp > NEG_INF, that ascend builds from now on."""
    masks = []

    class CountingNegInf:
        __array_ufunc__ = None  # so that logp > this calls this < logp

        def __lt__(self, logp):
            masks.append(logp > NEG_INF)
            return masks[-1]
    monkeypatch.setattr(optimize, "NEG_INF", CountingNegInf())
    return masks


THETA_ENTRIES = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([1e308, -1e308, 3e307]))


@st.composite
def ascent_cases(draw):
    """(config, oracle, p, theta0, cfg) over every cell, a sigmoid or a softmax at K in
    {2, 3, 16}, exact zeros in the oracle and the prior, and steps up to 1.5e308."""
    k = draw(st.sampled_from([2, 3, 16]))
    p = (Parameterization.sigmoid_bernoulli(OutcomeRange(labels_of(2)))
         if k == 2 and draw(st.booleans()) else Parameterization.softmax_logits(k))
    prior = dist_from_weights(draw(weight_lists(k, allow_zeros=draw(st.booleans()))))
    oracle = dist_from_weights(draw(weight_lists(k, allow_zeros=True)))
    alpha = draw(st.one_of(alphas, st.sampled_from([1e-3, 256.0, 1e308])))
    config = ObjectiveConfig(draw(st.sampled_from(KINDS)), draw(st.sampled_from(ASSUMPTIONS)),
                             alpha, prior)
    theta0 = draw(st.lists(THETA_ENTRIES, min_size=p.dim, max_size=p.dim))
    step = draw(st.sampled_from([0.1, 1.0, 3.0, 1e3, 1.5e308]))
    return config, oracle, p, theta0, AscentConfig(step_size=step, max_iters=25)


class TestAscendMatchesStepwise:
    """ascend binds the objective once per support; reference.ascend_stepwise runs the
    per-step dispatch that checked and masked on every iteration.  Bit for bit, or the
    same error."""

    @given(ascent_cases())
    def test_drawn_runs(self, case):
        got = run_or_error(ascend, *case)
        want = run_or_error(reference.ascend_stepwise, *case)
        if isinstance(want, type):
            assert got is want
        else:
            assert_bitwise_run(got, want)

    @pytest.mark.parametrize("theta_star", [0.25, 1.25])
    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_fit_small_grid(self, kind, assumption, alpha, theta_star):
        """bench/inputs.py's fit-small operations: a sigmoid oracle read from linear
        probabilities, a uniform prior, theta0 = 0, step 1, 400 steps, grad_tol 1e-10."""
        success = float(1.0 / (1.0 + np.exp(-theta_star)))
        oracle = make_distribution(SIGMOID.range, [success, 1.0 - success])
        case = (ObjectiveConfig(kind, assumption, alpha, UNIFORM2), oracle, SIGMOID,
                np.zeros(1), AscentConfig(step_size=1.0, max_iters=400, grad_tol=1e-10))
        assert_bitwise_run(ascend(*case), reference.ascend_stepwise(*case))

    @pytest.mark.parametrize("k, iters", [(3, 200), (64, 100), (2048, 10)])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_softmax_runs(self, kind, assumption, k, iters):
        """Softmax fits from a Dirichlet prior and oracle, one in ten oracle entries zero
        (as in bench/inputs.py's fit-wide), so that some terms bind to a holed mask."""
        p = Parameterization.softmax_logits(k)
        rng = np.random.default_rng(k)
        prior = make_distribution(p.range, rng.dirichlet(np.ones(k)))
        weights = rng.dirichlet(np.ones(k))
        weights[rng.random(k) < 0.1] = 0.0
        oracle = make_distribution(p.range, weights / weights.sum())
        case = (ObjectiveConfig(kind, assumption, 2.0, prior), oracle, p,
                rng.normal(size=k), AscentConfig(step_size=1.0, max_iters=iters, grad_tol=0.0))
        assert_bitwise_run(ascend(*case), reference.ascend_stepwise(*case))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_support_changes_mid_run(self, kind, assumption, monkeypatch):
        """The second iterate's logit gap passes finfo.max: the support goes 111 -> 101."""
        p = Parameterization.softmax_logits(3)
        oracle = make_distribution(p.range, [0.98, 0.01, 0.01])
        case = (ObjectiveConfig(kind, assumption, 2.0, uniform_distribution(p.range)),
                oracle, p, [0.0, 3.0, 0.0], AscentConfig(step_size=1.5e308, max_iters=20))
        masks = count_binds(monkeypatch)
        got = run_or_error(ascend, *case)
        assert [m.tolist() for m in masks] == [[True, True, True], [True, False, True]]
        want = run_or_error(reference.ascend_stepwise, *case)
        if assumption == "oracle-subset":
            assert got is want is OracleSupportEscapesModel
        else:
            assert got.status == "diverged" and got.iterations == 2
            assert_bitwise_run(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_holed_support_from_the_start(self, kind, assumption):
        p = Parameterization.softmax_logits(3)
        oracle = make_distribution(p.range, [0.98, 0.01, 0.01])
        case = (ObjectiveConfig(kind, assumption, 2.0, uniform_distribution(p.range)),
                oracle, p, [1e308, -1e308, 0.0], AscentConfig(step_size=1.0, max_iters=20))
        got = run_or_error(ascend, *case)
        want = run_or_error(reference.ascend_stepwise, *case)
        if assumption == "oracle-subset":
            assert got is want is OracleSupportEscapesModel
        else:
            assert_bitwise_run(got, want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_a_fit_binds_once(self, kind, assumption, monkeypatch):
        """A fit-small ascent (sigmoid, step 1, 400 steps) keeps its support: one bind."""
        oracle = apply_parameterization(SIGMOID, 1.25)
        config = ObjectiveConfig(kind, assumption, 2.0, UNIFORM2)
        cfg = AscentConfig(step_size=1.0, max_iters=400, grad_tol=1e-10)
        masks = count_binds(monkeypatch)
        trace = ascend(config, oracle, SIGMOID, 0.0, cfg)
        assert len(masks) == 1
        if (kind, assumption) == ("likelihood", "cond-independent"):
            assert trace.iterations == 400

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_only_an_iterate_past_the_bound_builds_a_mask(self, kind, assumption,
                                                          monkeypatch):
        """Inside DIVERGENCE_THETA_BOUND every outcome keeps its mass: a fit-small ascent
        builds no mask, and a diverging one only for its last iterate, or a huge theta0."""
        config = ObjectiveConfig(kind, assumption, 2.0, UNIFORM2)
        cfg = AscentConfig(step_size=1.0, max_iters=400, grad_tol=1e-10)
        masks, binds = count_masks(monkeypatch), count_binds(monkeypatch)
        ascend(config, apply_parameterization(SIGMOID, 1.25), SIGMOID, 0.0, cfg)
        assert (len(masks), len(binds)) == (0, 1)
        trace = ascend(config, apply_parameterization(SIGMOID, 1.25), SIGMOID, 0.0,
                       AscentConfig(step_size=1e8, max_iters=50))
        assert trace.status == "diverged" and abs(trace.thetas[:-1]).max() <= 1e6
        assert [m.tolist() for m in masks] == [[True, True]]
        assert [m.tolist() for m in binds[1:]] == [[True, True]]

        p = Parameterization.softmax_logits(3)
        config = ObjectiveConfig(kind, assumption, 2.0, uniform_distribution(p.range))
        del masks[:]
        run_or_error(ascend, config, make_distribution(p.range, [0.98, 0.01, 0.01]), p,
                     [1e308, -1e308, 0.0], AscentConfig(max_iters=20))
        assert [m.tolist() for m in masks] == [[True, False, True]]


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
        with pytest.raises(InvalidSetting):
            mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 0, seed=1)

    def test_estimate_lives_in_the_gradient_gauge(self):
        g = mc_gradient(self.config, self.oracle, SIGMOID, 0.3, 400, seed=3)
        np.testing.assert_allclose(g.d_logp.sum(), 0.0, atol=1e-12)


class TestFiniteDifferences:
    def test_fd_gradient_on_a_quadratic(self):
        grad = fd_gradient(lambda t: float(-((t - 2.0) ** 2).sum()),
                           np.array([0.5, 3.0]))
        np.testing.assert_allclose(grad, [3.0, -2.0], rtol=1e-8)

    def test_negative_h_is_the_same_central_difference(self):
        def f(t):
            return float((t ** 3).sum())
        np.testing.assert_array_equal(fd_gradient(f, [1.0, -2.0], -1e-5),
                                      fd_gradient(f, [1.0, -2.0], 1e-5))

    def test_infinite_values_difference_silently(self):
        """Python floats subtract inf from inf, and overflow, without a warning."""
        assert np.isnan(fd_gradient(lambda t: float("-inf"), [0.0])).all()
        assert fd_gradient(lambda t: float(t[0]) * 1e298, [0.0], 1e10)[0] == np.inf

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3)])
    def test_each_entry_of_a_2d_theta_is_a_coordinate(self, shape):
        """Each stencil row bumped a whole row of a 2-D theta, and the second of two rows
        (or the second coordinate of one) ended in an IndexError; every entry is a
        coordinate, in C order, as for the raveled theta."""
        weights = np.arange(1.0, 7.0)[:np.prod(shape)]

        def f(t):
            return float((weights * t.ravel() ** 3).sum())
        theta = np.linspace(-1.0, 2.0, weights.size).reshape(shape)
        want = fd_gradient(lambda t: f(t.reshape(shape)), theta.ravel())
        assert fd_gradient(f, theta).tobytes() == want.tobytes()
        np.testing.assert_allclose(want, 3.0 * weights * theta.ravel() ** 2, rtol=1e-8)

    def test_scalar_form_holds_one_stencil_row_at_a_time(self):
        """At dim 2048 the whole stencil is 4096 x 2048 floats (64 MiB)."""
        tracemalloc.start()
        try:
            fd_gradient(lambda t: float(t.sum()), np.zeros(2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("h, error", [(0.0, InvalidSetting), (-0.0, InvalidSetting),
                                          (np.nan, NonFiniteParameter),
                                          (np.inf, NonFiniteParameter)])
    def test_bad_h_rejected(self, h, error):
        with pytest.raises(error):
            fd_gradient(lambda t: float(t.sum()), [1.0], h)
        config = ObjectiveConfig("intersection", "cond-independent", 2.0, UNIFORM2)
        with pytest.raises(error):
            finite_difference_check(config, UNIFORM2, SIGMOID, [0.5], h=h)

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


    @given(st.sampled_from(KINDS), st.sampled_from(ASSUMPTIONS), alphas,
           st.integers(1, 6), st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6),
           st.sampled_from([1e-5, -1e-5, 1e-3, 0.5]))
    def test_stencil_matches_the_coordinate_loop(self, kind, assumption, alpha, k, theta, h):
        """One values_at_thetas call on the stencil gives the loop's differences bit for
        bit, and the scalar form calls value_fn in the loop's order."""
        p = SIGMOID if k == 1 else Parameterization.softmax_logits(k)
        theta = np.array(theta[:p.dim])
        oracle = apply_parameterization(p, -theta[::-1])
        config = ObjectiveConfig(kind, assumption, alpha, uniform_distribution(p.range))
        calls = []

        def value_fn(t):
            calls.append(t.copy())
            return value_at_theta(config, oracle, p, t)
        want = reference.fd_gradient(value_fn, theta, h)
        want_calls, calls[:] = list(calls), []
        assert fd_gradient(value_fn, theta, h).tobytes() == want.tobytes()
        assert np.array_equal(calls, want_calls)
        got = optimize._central_differences(
            lambda rows: optimize.values_at_thetas(config, oracle, p, list(rows)), theta, h)
        assert got.tobytes() == want.tobytes()
        analytic = gradient_at_theta(config, oracle, p, theta).d_theta
        worst = np.max(np.abs(want - analytic)
                       / np.maximum(1e-12, np.maximum(np.abs(analytic), np.abs(want))))
        assert finite_difference_check(config, oracle, p, theta, h) == worst


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
