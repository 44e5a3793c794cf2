import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import dist_from_weights, distribution_triples, labels_of, weight_lists
from maxprob import (
    DomainError,
    EmptyIntersectionSupport,
    InvalidSetting,
    NonFiniteEncountered,
    NonFiniteParameter,
    NonPositiveAlpha,
    ObjectiveConfig,
    OracleSupportEscapesModel,
    OutcomeRange,
    Parameterization,
    alpha_skeleton,
    evaluate,
    gradient_logp,
    gradient_terms,
    make_distribution,
    softmax_probability,
    uniform_distribution,
    values_at_thetas,
)
from maxprob.distributions import _theta_logp
from maxprob.bounds import _soft_bound_term
from maxprob.logspace import NEG_INF
from maxprob.objectives import (ASSUMPTIONS, _independent_term, _ratio_argmax_set,
                                _values_of_rows)

COIN = OutcomeRange(("1", "0"))
TRIAD = OutcomeRange(("a", "b", "c"))
UNIFORM2 = uniform_distribution(COIN)
SURE = make_distribution(COIN, [1.0, 0.0])
TILTED = make_distribution(COIN, [0.9, 0.1])

LIKELIHOOD = ("likelihood", "cond-independent")
INTERSECTION = ("intersection", "cond-independent")
SUBSET_LIKELIHOOD = ("likelihood", "oracle-subset")
SUBSET_INTERSECTION = ("intersection", "oracle-subset")

configs = st.sampled_from([LIKELIHOOD, INTERSECTION, SUBSET_LIKELIHOOD, SUBSET_INTERSECTION])
alphas = st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0])


def value(cell, model, oracle, prior=None, alpha=1.0):
    """evaluate() for one (kind, assumption) cell; the prior defaults to uniform."""
    prior = uniform_distribution(model.range) if prior is None else prior
    return evaluate(ObjectiveConfig(*cell, alpha, prior), model, oracle)


class TestObjectiveConfig:
    def test_rejects_bad_alpha(self):
        for alpha, error in ((0.0, NonPositiveAlpha), (-1.0, NonPositiveAlpha),
                             (np.inf, NonFiniteParameter), (-np.inf, NonFiniteParameter),
                             (np.nan, NonFiniteParameter)):
            with pytest.raises(error):
                ObjectiveConfig("intersection", "cond-independent", alpha, UNIFORM2)

    @pytest.mark.parametrize("kind, assumption", [("banana", "cond-independent"),
                                                  ("likelihood", "banana")])
    def test_rejects_unknown_names(self, kind, assumption):
        with pytest.raises(InvalidSetting):
            ObjectiveConfig(kind, assumption, 1.0, UNIFORM2)


def posterior(model, oracle, prior):
    """The posterior given both events: the cond-independent likelihood's attraction."""
    return gradient_terms(ObjectiveConfig(*LIKELIHOOD, 1.0, prior), model, oracle)[0]


class TestPosterior:
    def test_sure_oracle_pins_the_posterior(self):
        np.testing.assert_allclose(posterior(TILTED, SURE, UNIFORM2), [1.0, 0.0], atol=0.0)

    def test_hand_value(self):
        # joint weights m*o/p = (2*0.9*0.6, 2*0.1*0.4) = (1.08, 0.08)
        oracle = make_distribution(COIN, [0.6, 0.4])
        np.testing.assert_allclose(posterior(TILTED, oracle, UNIFORM2),
                                   [1.08 / 1.16, 0.08 / 1.16], rtol=1e-14)

    def test_disjoint_supports_rejected(self):
        a = make_distribution(COIN, [1.0, 0.0])
        b = make_distribution(COIN, [0.0, 1.0])
        with pytest.raises(EmptyIntersectionSupport):
            posterior(a, b, UNIFORM2)

    @given(distribution_triples(allow_zeros=(False, True, False)))
    def test_posterior_is_a_distribution(self, triple):
        prior, oracle, model = triple
        post = posterior(model, oracle, prior)
        np.testing.assert_allclose(post.sum(), 1.0, rtol=1e-12)
        assert np.all(post >= 0.0)


class TestLikelihoodValue:
    def test_coin_hand_value(self):
        v = value(LIKELIHOOD, TILTED, SURE, UNIFORM2)
        np.testing.assert_allclose(v, 0.5877866649021191, rtol=1e-15)
        config = ObjectiveConfig(*LIKELIHOOD, 1.0, UNIFORM2)
        assert config.dropped_constant_terms == ("log_prob_oracle_event",)

    def test_value_is_capped_by_the_best_density_ratio(self):
        """The likelihood is linear in the model, so its supremum over the
        simplex is the best oracle-to-prior ratio, approached by concentrating
        all model mass there; matching the oracle is not optimal."""
        oracle = make_distribution(COIN, [0.7, 0.3])
        cap = np.log(0.7 / 0.5)
        for p1 in (0.1, 0.4, 0.7, 0.9):
            other = make_distribution(COIN, [p1, 1.0 - p1])
            assert value(LIKELIHOOD, other, oracle, UNIFORM2) <= cap + 1e-12
        nearly_degenerate = make_distribution(COIN, [1.0 - 1e-9, 1e-9])
        np.testing.assert_allclose(
            value(LIKELIHOOD, nearly_degenerate, oracle, UNIFORM2), cap, rtol=1e-8)

    def test_gradient_is_posterior_minus_model(self):
        g = gradient_logp(ObjectiveConfig("likelihood", "cond-independent", 1.0, UNIFORM2),
                          TILTED, SURE)
        np.testing.assert_allclose(g.d_logp, [0.1, -0.1], rtol=1e-12, atol=1e-15)


class TestIntersectionValue:
    def test_tilted_coin_hand_value(self):
        # log 1.8 - (1/2) log((0.9/0.5)^2 + (0.1/0.5)^2)
        v = value(INTERSECTION, TILTED, SURE, UNIFORM2, 2.0)
        np.testing.assert_allclose(v, -0.0061350462959071095, rtol=1e-12)

    def test_all_uniform_collapses_to_support_penalty(self):
        u4 = uniform_distribution(OutcomeRange(tuple("abcd")))
        v = value(INTERSECTION, u4, u4, u4, 2.0)
        np.testing.assert_allclose(v, -0.6931471805599453, rtol=1e-15)

    @given(distribution_triples(allow_zeros=(False, True, False)), alphas)
    def test_definitional_identity(self, triple, alpha):
        """Intersection = likelihood + the soft bound on the model event."""
        prior, oracle, model = triple
        whole = value(INTERSECTION, model, oracle, prior, alpha)
        parts = (value(LIKELIHOOD, model, oracle, prior)
                 + softmax_probability(prior, model, alpha))
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-12)

    def test_uniform_prior_repulsion_is_the_alpha_skeleton(self):
        config = ObjectiveConfig("intersection", "cond-independent", 4.0, UNIFORM2)
        _, repulse = gradient_terms(config, TILTED, SURE)
        np.testing.assert_allclose(repulse, alpha_skeleton(TILTED, 4.0).probs, rtol=1e-12)

    def test_oracle_match_maximizes_at_alpha_two_under_uniform_prior(self):
        """At alpha = 2 with a uniform prior the intersection objective is
        stationary exactly at model = oracle (the recovery property)."""
        oracle = make_distribution(COIN, [0.7, 0.3])
        at_oracle = value(INTERSECTION, oracle, oracle, UNIFORM2, 2.0)
        for p1 in (0.1, 0.4, 0.9):
            other = make_distribution(COIN, [p1, 1.0 - p1])
            assert value(INTERSECTION, other, oracle, UNIFORM2, 2.0) \
                <= at_oracle + 1e-12


class TestSubsetLikelihood:
    def test_model_equal_oracle_closed_form(self):
        u3 = uniform_distribution(OutcomeRange(tuple("abc")))
        v = value(SUBSET_LIKELIHOOD, u3, u3, alpha=4.0)
        np.testing.assert_allclose(v, -0.27465307216702745, rtol=1e-15)

    def test_degenerate_oracle_reads_off_model_mass(self):
        v = value(SUBSET_LIKELIHOOD, TILTED, SURE, alpha=8.0)
        np.testing.assert_allclose(v, np.log(0.9), rtol=1e-15)

    def test_oracle_must_stay_inside_model_support(self):
        model = make_distribution(COIN, [1.0, 0.0])
        oracle = make_distribution(COIN, [0.5, 0.5])
        with pytest.raises(OracleSupportEscapesModel):
            value(SUBSET_LIKELIHOOD, model, oracle, alpha=2.0)

    @given(distribution_triples(min_n=2, max_n=5, allow_zeros=(False, False, False)))
    def test_soft_min_below_worst_ratio(self, triple):
        _, oracle, model = triple
        v = value(SUBSET_LIKELIHOOD, model, oracle, alpha=2.0)
        ratios = model.logp - oracle.logp
        assert v <= ratios[oracle.support].min() + 1e-12

    @given(distribution_triples(min_n=2, max_n=5, allow_zeros=(False, False, False)))
    def test_monotone_in_alpha(self, triple):
        _, oracle, model = triple
        values = [value(SUBSET_LIKELIHOOD, model, oracle, alpha=a)
                  for a in (0.5, 1.0, 2.0, 8.0, 64.0)]
        assert np.all(np.diff(values) >= -1e-12)

    @given(distribution_triples(min_n=2, max_n=5,
                                allow_zeros=(False, False, False)), alphas)
    def test_subset_intersection_identity(self, triple, alpha):
        prior, oracle, model = triple
        whole = value(SUBSET_INTERSECTION, model, oracle, prior, alpha)
        parts = (value(SUBSET_LIKELIHOOD, model, oracle, alpha=alpha)
                 + softmax_probability(prior, model, alpha))
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-12)

    def test_all_uniform_hand_value(self):
        v = value(SUBSET_INTERSECTION, UNIFORM2, UNIFORM2, UNIFORM2, 2.0)
        np.testing.assert_allclose(v, -0.6931471805599453, rtol=1e-15)


class TestGradientStructure:
    """Every gradient is attraction minus repulsion, two probability vectors."""

    @given(configs, alphas,
           distribution_triples(allow_zeros=(False, False, False)))
    def test_terms_are_probability_vectors(self, combo, alpha, triple):
        kind, assumption = combo
        prior, oracle, model = triple
        config = ObjectiveConfig(kind, assumption, alpha, prior)
        attract, repulse = gradient_terms(config, model, oracle)
        for vec in (attract, repulse):
            assert np.all(vec >= -1e-15)
            np.testing.assert_allclose(vec.sum(), 1.0, rtol=1e-12)

    @given(configs, alphas,
           distribution_triples(allow_zeros=(False, False, False)))
    def test_d_logp_sums_to_zero(self, combo, alpha, triple):
        kind, assumption = combo
        prior, oracle, model = triple
        config = ObjectiveConfig(kind, assumption, alpha, prior)
        g = gradient_logp(config, model, oracle)
        np.testing.assert_allclose(g.d_logp.sum(), 0.0, atol=1e-12)
        attract, repulse = gradient_terms(config, model, oracle)
        np.testing.assert_allclose(g.d_logp, attract - repulse, atol=1e-15)


class TestAlphaOneEquivalence:
    @given(distribution_triples(allow_zeros=(False, True, False)))
    def test_uniform_prior_offset_is_the_log_range_size(self, triple):
        _, oracle, model = triple
        prior = uniform_distribution(model.range)
        lik = value(LIKELIHOOD, model, oracle, prior)
        inter = value(INTERSECTION, model, oracle, prior, 1.0)
        np.testing.assert_allclose(inter - lik, -np.log(len(model.range)), rtol=1e-12)


def concentration_residual(model, oracle, prior):
    """Model mass off the argmax set of oracle / prior, as criterion 8 batches it."""
    return model.probs[~_ratio_argmax_set(oracle, prior)].sum()


class TestConcentrationResidual:
    def test_zero_when_model_sits_on_the_argmax(self):
        assert concentration_residual(SURE, SURE, UNIFORM2) == 0.0

    def test_counts_mass_off_the_argmax_set(self):
        residual = concentration_residual(TILTED, SURE, UNIFORM2)
        np.testing.assert_allclose(residual, 0.1, rtol=1e-12)

    def test_ties_widen_the_argmax_set(self):
        oracle = uniform_distribution(COIN)
        assert concentration_residual(TILTED, oracle, UNIFORM2) == 0.0


class TestEvaluateDispatch:
    @given(configs, alphas)
    def test_dispatch_matches_direct_calls(self, combo, alpha):
        """Every cell of the (kind, assumption) table against its hand value.

        Model 0.9/0.1, sure oracle, uniform prior: the likelihood term is
        log 1.8 (cond-independent) or log 0.9 (oracle-subset), the penalty
        term -(1/alpha) log(1.8^alpha + 0.2^alpha); the attraction is the
        oracle's outcome, the repulsion the model or its alpha-skeleton.
        """
        kind, assumption = combo
        config = ObjectiveConfig(kind, assumption, alpha, UNIFORM2)
        lik = np.log(1.8) if assumption == "cond-independent" else np.log(0.9)
        penalty = 0.0 if kind == "likelihood" else \
            -np.log(1.8 ** alpha + 0.2 ** alpha) / alpha
        repulse = np.array([0.9, 0.1]) if kind == "likelihood" else \
            np.array([0.9 ** alpha, 0.1 ** alpha]) / (0.9 ** alpha + 0.1 ** alpha)
        dropped = ("log_prob_oracle_event",) if assumption == "cond-independent" else ()

        v = evaluate(config, TILTED, SURE)
        np.testing.assert_allclose(v, lik + penalty, rtol=1e-12)
        assert config.dropped_constant_terms == dropped
        attract, rep = gradient_terms(config, TILTED, SURE)
        np.testing.assert_allclose(attract, [1.0, 0.0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(rep, repulse, rtol=1e-12, atol=1e-15)


class TestReadsAlpha:
    """ObjectiveConfig.reads_alpha against the kernels that compute the values."""

    CELLS = [LIKELIHOOD, INTERSECTION, SUBSET_LIKELIHOOD, SUBSET_INTERSECTION]
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

    @given(st.integers(2, 5).flatmap(lambda k: st.tuples(
        st.lists(weight_lists(k, allow_zeros=True), min_size=1, max_size=4),
        weight_lists(k, allow_zeros=True), weight_lists(k, allow_zeros=True))),
        positive, positive)
    def test_alpha_free_values_do_not_move_with_alpha(self, weights, alpha, other):
        """Model rows of any support, a drawn oracle and prior: an alpha-free config
        gives the same values bit for bit at both alphas."""
        rows, oracle, prior = weights
        model = np.array([dist_from_weights(w).logp for w in rows])
        oracle, prior = dist_from_weights(oracle), dist_from_weights(prior)
        free = [cell for cell in self.CELLS
                if not ObjectiveConfig(*cell, alpha, prior).reads_alpha]
        assert free == [LIKELIHOOD]
        for cell in free:
            got, want = (_values_of_rows(ObjectiveConfig(*cell, a, prior), oracle, model)
                         for a in (alpha, other))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", [INTERSECTION, SUBSET_LIKELIHOOD, SUBSET_INTERSECTION])
    def test_alpha_reading_values_move_with_alpha(self, cell):
        model = np.array([make_distribution(TRIAD, [0.2, 0.3, 0.5]).logp])
        oracle = make_distribution(TRIAD, [0.5, 0.3, 0.2])
        prior = make_distribution(TRIAD, [0.25, 0.25, 0.5])
        assert ObjectiveConfig(*cell, 1.0, prior).reads_alpha
        values = [_values_of_rows(ObjectiveConfig(*cell, a, prior), oracle, model)
                  for a in (1.0, 2.0)]
        assert not np.array_equal(*values)


THETA_ENTRIES = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([1e308, -1e308, 0.0, -0.0]))


def result_or_error(run):
    """run()'s result, or the class of the DomainError it raised."""
    try:
        return run()
    except DomainError as exc:
        return type(exc)


def same_bits(got, want) -> bool:
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLikelihoodKindKernel:
    """The likelihood kind has no penalty term: its value is the likelihood term's, bit for
    bit the kernel that added that term's -0.0 (reference.likelihood_kind_kernel)."""

    triples = st.integers(2, 6).flatmap(lambda k: st.tuples(
        *(weight_lists(k, allow_zeros=True) for _ in range(3))))

    @given(triples, st.sampled_from(ASSUMPTIONS), alphas)
    def test_evaluate_and_gradient_terms(self, weights, assumption, alpha):
        model, oracle, prior = (dist_from_weights(w) for w in weights)
        config = ObjectiveConfig("likelihood", assumption, alpha, prior)

        def want(gradient):
            return result_or_error(lambda: reference.likelihood_kind_kernel(
                config, model.support, oracle.logp, gradient)(model.logp))
        value, terms = want(False), want(True)
        assert same_bits(result_or_error(lambda: evaluate(config, model, oracle)),
                         value if isinstance(value, type) else float(value[0]))
        got = result_or_error(lambda: gradient_terms(config, model, oracle))
        if isinstance(terms, type):
            assert got is terms
        else:
            assert all(same_bits(g, w) for g, w in zip(got, terms[1:]))

    @given(st.integers(2, 6).flatmap(lambda k: st.tuples(
        st.lists(st.lists(THETA_ENTRIES, min_size=k, max_size=k),
                 min_size=1, max_size=5),
        weight_lists(k, allow_zeros=True), weight_lists(k, allow_zeros=True))),
        st.sampled_from(ASSUMPTIONS), alphas)
    def test_values_at_thetas(self, case, assumption, alpha):
        """Softmax rows of any support, logit gaps past finfo.max included."""
        rows, oracle, prior = case
        oracle, prior = dist_from_weights(oracle), dist_from_weights(prior)
        p = Parameterization.softmax_logits(OutcomeRange(labels_of(len(rows[0]))))
        config = ObjectiveConfig("likelihood", assumption, alpha, prior)
        want = result_or_error(lambda: reference.likelihood_kind_values(
            config, oracle, _theta_logp(p, np.array(rows))))
        assert same_bits(result_or_error(lambda: values_at_thetas(config, oracle, p, rows)),
                         want)


class TestNullTermKernel:
    """A term builder bound for the value alone returns a kernel where its event is null,
    never None: -inf per row and no vector.  Bound for the gradient, it raises."""

    BUILDERS = {  # name: (build(gradient), the error it raises with gradient)
        "independent, no joint support": (lambda gradient: _independent_term(
            np.array([True, True]), np.array([0.0, NEG_INF]), np.array([NEG_INF, 0.0]),
            gradient), EmptyIntersectionSupport),
        "soft bound, zero prior on the support": (lambda gradient: _soft_bound_term(
            np.array([True, True]), np.array([0.0, NEG_INF]), 2.0, gradient),
            NonFiniteEncountered),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("rows", [np.log([0.25, 0.75]), np.log([[0.5, 0.5], [0.25, 0.75]])],
                             ids=["row", "batch"])
    def test_value_only_kernel_gives_minus_inf(self, name, rows):
        build, error = self.BUILDERS[name]
        kernel = build(False)
        assert kernel is not None
        value, vector = kernel(rows)
        assert vector is None
        assert np.shape(value) == rows.shape[:-1] and (np.asarray(value) == NEG_INF).all()
        with pytest.raises(error):
            build(True)
