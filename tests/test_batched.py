"""The array kernels against the scalar reference (tests/reference.py), within the
kernels' rounding error (helpers.rounding_bound), errors bit for bit; and a batch
against its own rows, bit for bit."""

import numpy as np
import pytest

import reference
from helpers import assert_within_rounding, log_scale
from maxprob import (
    DimensionMismatch,
    DomainError,
    EmptyIntersectionSupport,
    NonFiniteEncountered,
    NonFiniteParameter,
    ObjectiveConfig,
    OracleSupportEscapesModel,
    OutcomeRange,
    Parameterization,
    SweepSpec,
    apply_parameterization,
    evaluate,
    gradient_terms,
    make_distribution,
    run_sweep,
    softmax_probability,
    uniform_distribution,
    value_at_theta,
    values_at_thetas,
)
from maxprob.bernoulli import theta_grid
from maxprob.logspace import NEG_INF
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
    def test_every_curve(self, assumption, probs, theta_star, grid):
        prior = None if probs is None else make_distribution(SIGMOID.range, probs)
        spec = SweepSpec(theta_star, *grid, alphas=ALPHAS, assumption=assumption, prior=prior)
        report = run_sweep(spec)
        expected = reference_sweep_values(spec)
        assert len(report.curves) == len(expected)
        # a value's inputs: the grid point, the oracle's log-odds and the prior
        scale = np.abs(theta_grid(spec)) + abs(theta_star) + log_scale(
            [] if prior is None else prior.logp)
        for curve, values in zip(report.curves, expected):
            assert_within_rounding(curve.values, values, scale)


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
        scale = np.abs(thetas) + log_scale(oracle.logp, prior.logp)
        for alpha in ALPHAS:
            config = ObjectiveConfig(*cell, alpha, prior)
            got = values_at_thetas(config, oracle, SIGMOID, thetas[:, np.newaxis])
            assert_same(got, [value_at_theta(config, oracle, SIGMOID, t) for t in thetas])
            want = reference.values_at_thetas(config, oracle, SIGMOID, thetas)
            assert_within_rounding(got, want, scale)

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
        scale = np.abs(thetas).max(axis=1) + log_scale(oracle.logp, prior.logp)
        for alpha in (0.5, 2.0, 1e6):
            config = ObjectiveConfig(*cell, alpha, prior)
            got = outcome(lambda: values_at_thetas(config, oracle, p, thetas))
            want = outcome(lambda: reference.values_at_thetas(config, oracle, p, thetas))
            if isinstance(want, type):
                assert got is want
                continue
            assert_same(got, [value_at_theta(config, oracle, p, t) for t in thetas])
            assert_within_rounding(got, want, scale)

    @pytest.mark.parametrize("cell", CELLS)
    def test_rows_with_an_overflowing_logit_gap(self, cell):
        """A gap beyond the float range zeroes an outcome in that row only, without a
        warning; the scalar reference warns on it, so the rows that reach 1e308 are
        held to their limits."""
        p = Parameterization.softmax_logits(3)
        oracle = make_distribution(p.range, [0.5, 0.0, 0.5])
        prior = make_distribution(p.range, [0.2, 0.3, 0.5])
        thetas = np.array([[0.0, 1.0, 2.0], [1e308, 0.0, -1e308], [0.5, -1e308, 1e308]])
        config = ObjectiveConfig(*cell, 2.0, prior)
        got = outcome(lambda: values_at_thetas(config, oracle, p, thetas))
        if cell[1] == "oracle-subset":  # the second row zeroes the oracle's third outcome
            assert got is OracleSupportEscapesModel
            return
        assert_same(got, [value_at_theta(config, oracle, p, t) for t in thetas])
        assert_within_rounding(got[:1], reference.values_at_thetas(config, oracle, p, thetas[:1]),
                               2.0 + log_scale(prior.logp, oracle.logp))
        # all model mass on one outcome: log(oracle / prior) there, and the soft bound
        # of a sure model is its prior mass, log 0.5 on the last row's outcome
        likelihood = np.log([0.5 / 0.2, 0.5 / 0.5])
        want = likelihood + (np.log([0.2, 0.5]) if cell[0] == "intersection" else 0.0)
        assert_within_rounding(got[1:], want, 1.0)

    def test_overflowing_batch_warns_nothing(self):
        """The first row's shift overflows; its value is the limit the row alone gives."""
        p = Parameterization.softmax_logits(2)
        u = uniform_distribution(p.range)
        config = ObjectiveConfig("likelihood", "cond-independent", 2.0, u)
        got = values_at_thetas(config, u, p, [[1e308, -1e308], [0.0, 0.0]])
        assert_same(got, [value_at_theta(config, u, p, [1e308, -1e308]),
                          value_at_theta(config, u, p, [0.0, 0.0])])

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
    def test_apply_parameterization(self):
        rng = np.random.default_rng(7)
        for theta in np.concatenate([rng.normal(scale=20.0, size=200), [0.0, -0.0, 900.0]]):
            assert_within_rounding(apply_parameterization(SIGMOID, theta).logp,
                                   reference.apply_parameterization(SIGMOID, theta).logp,
                                   abs(theta))
        for k in (2, 5, 33):
            p = Parameterization.softmax_logits(k)
            for theta in rng.normal(scale=5.0, size=(20, k)):
                assert_within_rounding(apply_parameterization(p, theta).logp,
                                       reference.apply_parameterization(p, theta).logp,
                                       log_scale(theta))

    # (model, oracle, prior) over three outcomes, two support rules failing at once or one
    # alone, and the intersection cells' (value, gradient) outcome by assumption: the
    # likelihood term's error wins over the soft bound's.
    CORNERS = [
        # the oracle escapes the model (v2), and the model has mass on a zero prior (v0)
        (([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]),
         {"oracle-subset": (OracleSupportEscapesModel, OracleSupportEscapesModel)}),
        # no joint support, and the model has mass on a zero prior (v0)
        (([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]),
         {"cond-independent": (NEG_INF, EmptyIntersectionSupport)}),
        # the model has mass on a zero prior (v0), and nothing else fails
        (([0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]),
         dict.fromkeys(ASSUMPTIONS, (NEG_INF, NonFiniteEncountered))),
    ]

    def test_evaluate_and_gradient_terms_on_random_cells(self):
        """Values and both gradient vectors, errors included; then each corner in every cell."""
        def check(config, model, oracle):
            scale = log_scale(model.logp, oracle.logp, config.prior.logp)
            value = outcome(lambda: evaluate(config, model, oracle))
            want = outcome(lambda: reference.evaluate(config, model, oracle))
            if isinstance(want, type):
                assert value is want
            else:
                assert_within_rounding(value, want, scale)
            terms = outcome(lambda: gradient_terms(config, model, oracle))
            want = outcome(lambda: reference.gradient_terms(config, model, oracle))
            if isinstance(want, type):
                assert terms is want
            else:
                for got_term, want_term in zip(terms, want):
                    assert_within_rounding(got_term, want_term, max(1.0, config.alpha) * scale)
            return value, terms

        rng = np.random.default_rng(2024)
        for _ in range(400):
            labels = tuple(f"v{i}" for i in range(int(rng.integers(2, 12))))
            model, oracle, prior = (random_distribution(rng, labels, zero_share=0.25)
                                    for _ in range(3))
            config = ObjectiveConfig(*CELLS[int(rng.integers(0, 4))],
                                     float(rng.choice(ALPHAS)), prior)
            check(config, model, oracle)
        labels = OutcomeRange(("v0", "v1", "v2"))
        for probs, intersection in self.CORNERS:
            model, oracle, prior = (make_distribution(labels, p) for p in probs)
            for cell in CELLS:
                got = check(ObjectiveConfig(*cell, 2.0, prior), model, oracle)
                if cell[0] == "intersection" and cell[1] in intersection:
                    assert got == intersection[cell[1]], (probs, cell)

    def test_softmax_probability_on_random_pairs(self):
        """Zeros in both distributions, zero prior mass on the conditional's support included."""
        rng = np.random.default_rng(2025)
        for _ in range(400):
            labels = tuple(f"v{i}" for i in range(int(rng.integers(1, 12))))
            prior, conditional = (random_distribution(rng, labels, zero_share=0.25)
                                  for _ in range(2))
            for alpha in ALPHAS:
                assert_within_rounding(softmax_probability(prior, conditional, alpha),
                                       reference.softmax_probability(prior, conditional, alpha),
                                       log_scale(prior.logp, conditional.logp))
        prior, conditional = (make_distribution(("v0", "v1"), p) for p in ([0.0, 1.0], [0.5, 0.5]))
        for alpha in ALPHAS:
            assert softmax_probability(prior, conditional, alpha) == NEG_INF
            assert reference.softmax_probability(prior, conditional, alpha) == NEG_INF
