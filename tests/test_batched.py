"""The array kernels against the scalar reference (tests/reference.py), bit for bit."""

import numpy as np
import pytest

import reference
from maxprob import (
    DimensionMismatch,
    DomainError,
    NonFiniteParameter,
    ObjectiveConfig,
    OutcomeRange,
    Parameterization,
    SweepSpec,
    apply_parameterization,
    evaluate,
    gradient_terms,
    make_distribution,
    posterior_given_both,
    run_sweep,
    uniform_distribution,
    values_at_thetas,
)
from maxprob.bernoulli import theta_grid
from maxprob.objectives import ASSUMPTIONS, KINDS

SIGMOID = Parameterization.sigmoid_bernoulli()
CELLS = [(kind, assumption) for kind in KINDS for assumption in ASSUMPTIONS]
ALPHAS = (0.5, 1.0, 2.0, 256.0, 1e6)


def reference_sweep_values(spec: SweepSpec) -> list[np.ndarray]:
    """run_sweep's curves as the per-theta loop tabulated them."""
    oracle = reference.apply_parameterization(SIGMOID, spec.theta_star)
    prior = spec.prior if spec.prior is not None else uniform_distribution(SIGMOID.range)
    grid = theta_grid(spec)
    return [reference.values_at_thetas(ObjectiveConfig(objective, spec.assumption, alpha, prior),
                                       oracle, SIGMOID, grid)
            for objective in spec.objectives for alpha in spec.alphas]


def random_distribution(rng, labels, zero_share: float):
    weights = rng.integers(1, 21, size=len(labels)).astype(float)
    kill = rng.random(len(labels)) < zero_share
    kill[int(rng.integers(0, len(labels)))] = False  # keep some mass
    weights[kill] = 0.0
    return make_distribution(OutcomeRange(labels), weights / weights.sum())


def outcome(fn):
    """fn()'s result, or the class of the DomainError it raised."""
    try:
        return fn()
    except DomainError as e:
        return type(e)


def assert_same(got, want):
    """The same error class, or the same float bits (signed zeros included)."""
    if isinstance(want, type):
        assert got is want
    else:
        got, want = np.asarray(got), np.asarray(want, dtype=float)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (got, want)


class TestRunSweepMatchesTheLoop:
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    @pytest.mark.parametrize("probs", [None, [1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    @pytest.mark.parametrize("theta_star, grid", [
        (2.1972245773362196, (-8.0, 8.0, 0.25)),
        (-40.0, (-800.0, 800.0, 25.0)),
    ])
    def test_every_curve_bitwise(self, assumption, probs, theta_star, grid):
        prior = None if probs is None else make_distribution(SIGMOID.range, probs)
        spec = SweepSpec(theta_star, *grid, alphas=ALPHAS, assumption=assumption, prior=prior)
        report = run_sweep(spec)
        expected = reference_sweep_values(spec)
        assert len(report.curves) == len(expected)
        for curve, values in zip(report.curves, expected):
            assert_same(curve.values, values)


class TestValuesAtThetas:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("oracle_probs, prior_probs", [
        (None, None), ([1.0, 0.0], [0.5, 0.5]), ([0.2, 0.8], [1.0, 0.0]),
        ([0.0, 1.0], [0.0, 1.0]),
    ])
    def test_sigmoid_matches_the_loop(self, cell, oracle_probs, prior_probs):
        thetas = np.concatenate([[0.0, -0.0, 1e-300, 800.0, -800.0, 37.5, -745.5],
                                 np.random.default_rng(5).normal(scale=6.0, size=40)])
        oracle = (apply_parameterization(SIGMOID, 1.3) if oracle_probs is None
                  else make_distribution(SIGMOID.range, oracle_probs))
        prior = (uniform_distribution(SIGMOID.range) if prior_probs is None
                 else make_distribution(SIGMOID.range, prior_probs))
        for alpha in ALPHAS:
            config = ObjectiveConfig(*cell, alpha, prior)
            got = values_at_thetas(config, oracle, SIGMOID, thetas[:, np.newaxis])
            want = reference.values_at_thetas(config, oracle, SIGMOID, thetas)
            assert_same(got, want)

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("k", [2, 16, 64])
    def test_softmax_matches_the_loop(self, cell, k):
        rng = np.random.default_rng(100 + k)
        p = Parameterization.softmax_logits(k)
        oracle = random_distribution(rng, p.range.labels, zero_share=0.3)
        prior = random_distribution(rng, p.range.labels, zero_share=0.3)
        thetas = rng.normal(scale=3.0, size=(30, k))
        thetas[0] = 0.0
        thetas[1, 0] = 700.0
        for alpha in (0.5, 2.0, 1e6):
            config = ObjectiveConfig(*cell, alpha, prior)
            got = outcome(lambda: values_at_thetas(config, oracle, p, thetas))
            want = outcome(lambda: reference.values_at_thetas(config, oracle, p, thetas))
            assert_same(got, want)

    @pytest.mark.parametrize("cell", CELLS)
    def test_rows_with_an_overflowing_logit_gap(self, cell):
        """A gap beyond the float range zeroes an outcome in that row only."""
        p = Parameterization.softmax_logits(3)
        oracle = make_distribution(p.range, [0.5, 0.0, 0.5])
        prior = make_distribution(p.range, [0.2, 0.3, 0.5])
        thetas = np.array([[0.0, 1.0, 2.0], [1e308, 0.0, -1e308], [0.5, -1e308, 1e308]])
        config = ObjectiveConfig(*cell, 2.0, prior)
        with np.errstate(over="ignore"):
            got = outcome(lambda: values_at_thetas(config, oracle, p, thetas))
            want = outcome(lambda: reference.values_at_thetas(config, oracle, p, thetas))
        assert_same(got, want)

    def test_no_rows_give_no_values(self):
        config = ObjectiveConfig("intersection", "cond-independent", 2.0,
                                 uniform_distribution(SIGMOID.range))
        oracle = apply_parameterization(SIGMOID, 1.0)
        assert values_at_thetas(config, oracle, SIGMOID, np.empty((0, 1))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_rejected(self, bad):
        config = ObjectiveConfig("likelihood", "oracle-subset", 2.0,
                                 uniform_distribution(SIGMOID.range))
        oracle = apply_parameterization(SIGMOID, 1.0)
        with pytest.raises(NonFiniteParameter):
            values_at_thetas(config, oracle, SIGMOID, [[0.0], [bad], [1.0]])

    @pytest.mark.parametrize("thetas", [[0.0, 1.0], [[0.0, 1.0]], np.zeros((2, 1, 1)), 0.5])
    def test_wrong_row_width_is_rejected(self, thetas):
        config = ObjectiveConfig("likelihood", "oracle-subset", 2.0,
                                 uniform_distribution(SIGMOID.range))
        oracle = apply_parameterization(SIGMOID, 1.0)
        with pytest.raises(DimensionMismatch):
            values_at_thetas(config, oracle, SIGMOID, thetas)


class TestObjectMatchesTheReference:
    def test_apply_parameterization_bitwise(self):
        rng = np.random.default_rng(7)
        for theta in np.concatenate([rng.normal(scale=20.0, size=200), [0.0, -0.0, 900.0]]):
            assert_same(apply_parameterization(SIGMOID, theta).logp,
                        reference.apply_parameterization(SIGMOID, theta).logp)
        for k in (2, 5, 33):
            p = Parameterization.softmax_logits(k)
            for theta in rng.normal(scale=5.0, size=(20, k)):
                assert_same(apply_parameterization(p, theta).logp,
                            reference.apply_parameterization(p, theta).logp)

    def test_evaluate_and_gradient_terms_on_random_cells(self):
        """Values, both gradient vectors and the posterior, errors included."""
        rng = np.random.default_rng(2024)
        for _ in range(400):
            labels = tuple(f"v{i}" for i in range(int(rng.integers(2, 12))))
            model, oracle, prior = (random_distribution(rng, labels, zero_share=0.25)
                                    for _ in range(3))
            config = ObjectiveConfig(*CELLS[int(rng.integers(0, 4))],
                                     float(rng.choice(ALPHAS)), prior)
            assert_same(outcome(lambda: evaluate(config, model, oracle).value),
                        outcome(lambda: reference.evaluate(config, model, oracle)))
            terms = outcome(lambda: gradient_terms(config, model, oracle))
            want = outcome(lambda: reference.gradient_terms(config, model, oracle))
            if isinstance(want, type):
                assert terms is want
            else:
                assert_same(terms[0], want[0])
                assert_same(terms[1], want[1])
            assert_same(outcome(lambda: posterior_given_both(model, oracle, prior).logp),
                        outcome(lambda: reference.posterior_given_both(model, oracle, prior).logp))
