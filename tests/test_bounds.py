import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import dist_from_weights, distribution_pairs, distributions, labels_of
from maxprob import (
    NegativeAlphaOnZeroMass,
    NonFiniteParameter,
    NonPositiveAlpha,
    OutcomeRange,
    Refinement,
    SpaceTooLarge,
    alpha_skeleton,
    check_extension_monotonicity,
    exhaustive_bound_oracle,
    make_distribution,
    max_probability,
    softmax_probability,
    uniform_distribution,
)
from maxprob.logspace import NEG_INF, log_sigmoid, logsumexp, soft_min


COIN = OutcomeRange(("H", "T"))
BAD_ALPHAS = ((0.0, NonPositiveAlpha), (np.inf, NonFiniteParameter),
              (-np.inf, NonFiniteParameter), (np.nan, NonFiniteParameter))


class TestMaxProbability:
    def test_sure_conditional_on_fair_coin(self):
        bound = max_probability(uniform_distribution(COIN),
                                make_distribution(COIN, [1.0, 0.0]))
        assert bound.value == 0.5
        assert bound.argmin_outcome == "H"

    def test_tilted_conditional_on_fair_coin(self):
        bound = max_probability(uniform_distribution(COIN),
                                make_distribution(COIN, [0.9, 0.1]))
        np.testing.assert_allclose(bound.value, 5.0 / 9.0, rtol=1e-15)
        assert bound.argmin_outcome == "H"

    def test_conditional_equal_to_prior_gives_one(self):
        prior = dist_from_weights([3, 1, 4])
        bound = max_probability(prior, prior)
        assert bound.log_max_probability == 0.0
        assert bound.value == 1.0

    def test_zero_prior_outcome_with_conditional_mass(self):
        prior = make_distribution(COIN, [1.0, 0.0])
        conditional = make_distribution(COIN, [0.5, 0.5])
        bound = max_probability(prior, conditional)
        assert bound.log_max_probability == NEG_INF
        assert bound.value == 0.0
        assert bound.argmin_outcome == "T"

    def test_zero_conditional_outcomes_are_ignored(self):
        prior = make_distribution(COIN, [0.0, 1.0])
        conditional = make_distribution(COIN, [0.0, 1.0])
        assert max_probability(prior, conditional).value == 1.0

    def test_tie_goes_to_lowest_index(self):
        prior = dist_from_weights([1, 1])
        conditional = dist_from_weights([1, 1])
        assert max_probability(prior, conditional).argmin_outcome == "v0"

    @given(distribution_pairs(allow_zeros=(False, True)))
    def test_bound_never_exceeds_one(self, pair):
        prior, conditional = pair
        assert max_probability(prior, conditional).log_max_probability <= 0.0

    @given(distribution_pairs(allow_zeros=(False, True)))
    def test_witness_outcome_attains_the_minimum(self, pair):
        # the minimum ratio is always <= 0 (it is beaten by the weighted
        # average sum p_v over the conditional's support), so the witness
        # outcome carries the bound itself, never the clamp
        prior, conditional = pair
        bound = max_probability(prior, conditional)
        i = conditional.range.index(bound.argmin_outcome)
        ratios = prior.logp[conditional.support] - conditional.logp[conditional.support]
        assert ratios.min() <= 1e-12
        assert prior.logp[i] - conditional.logp[i] == bound.log_max_probability


class TestSoftmaxProbability:
    def test_rejects_non_positive_alpha(self):
        prior = uniform_distribution(COIN)
        for alpha, error in BAD_ALPHAS:
            with pytest.raises(error):
                softmax_probability(prior, prior, alpha)

    def test_zero_prior_support_gives_minus_inf(self):
        prior = make_distribution(COIN, [1.0, 0.0])
        conditional = make_distribution(COIN, [0.5, 0.5])
        assert softmax_probability(prior, conditional, 2.0) == NEG_INF

    @given(distribution_pairs(allow_zeros=(False, True)), st.sampled_from(
        [0.5, 1.0, 2.0, 4.0, 16.0, 256.0]))
    def test_soft_bound_below_hard_bound(self, pair, alpha):
        prior, conditional = pair
        soft = softmax_probability(prior, conditional, alpha)
        hard = max_probability(prior, conditional).log_max_probability
        assert soft <= hard + 1e-12

    @given(distribution_pairs(allow_zeros=(False, True)))
    def test_monotone_in_alpha(self, pair):
        prior, conditional = pair
        values = [softmax_probability(prior, conditional, a)
                  for a in (0.5, 1.0, 2.0, 4.0, 16.0)]
        assert np.all(np.diff(values) >= -1e-12)

    @given(distribution_pairs(allow_zeros=(False, True)), st.sampled_from(
        [0.5, 1.0, 2.0, 4.0, 16.0]))
    def test_gap_bounded_by_log_support_over_alpha(self, pair, alpha):
        prior, conditional = pair
        soft = softmax_probability(prior, conditional, alpha)
        hard = max_probability(prior, conditional).log_max_probability
        k = int(conditional.support.sum())
        assert hard - soft <= np.log(k) / alpha + 1e-12

    def test_fair_coin_value(self):
        prior = uniform_distribution(COIN)
        conditional = make_distribution(COIN, [0.9, 0.1])
        # -log((0.9/0.5)^2 + (0.1/0.5)^2) / 2 at alpha = 2
        expected = -0.5 * np.log(3.28)
        np.testing.assert_allclose(softmax_probability(prior, conditional, 2.0),
                                   expected, rtol=1e-14)


class TestSoftMinHelper:
    @pytest.mark.parametrize("alpha, error", BAD_ALPHAS)
    def test_rejects_bad_alpha(self, alpha, error):
        with pytest.raises(error):
            soft_min([1.0, 2.0], alpha)

    def test_axis_reduces_each_row(self):
        a = np.array([[1.0, 2.0, -3.0], [0.5, 0.5, 4.0]])
        np.testing.assert_array_equal(soft_min(a, 2.0, axis=-1),
                                      [soft_min(row, 2.0) for row in a])

    @given(st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=8),
           st.sampled_from([0.5, 1.0, 2.0, 8.0]))
    def test_sandwiched_around_true_min(self, values, alpha):
        a = np.array(values)
        sm = soft_min(a, alpha)
        assert sm <= a.min() + 1e-12
        assert sm >= a.min() - np.log(len(a)) / alpha - 1e-12


class TestLogsumexpAxis:
    @given(arrays(float, st.tuples(st.integers(1, 4), st.integers(0, 6)),
                  elements=st.sampled_from([NEG_INF, -3.5, 0.0, 1.25, 20.0])))
    def test_rows_match_the_scalar_path_bitwise(self, x):
        """Including empty and all -inf rows, which reduce to -inf as the scalar path does."""
        with np.errstate(divide="ignore"):
            reduced = logsumexp(x, axis=-1)
        np.testing.assert_array_equal(reduced, [logsumexp(row) for row in x])


class TestLogSigmoid:
    def test_array_matches_elementwise_floats(self):
        x = np.array([[-800.0, -2.5, -0.0], [0.0, 3.0, 800.0]])
        out = log_sigmoid(x)
        assert out.shape == x.shape
        for got, xi in zip(out.ravel(), x.ravel()):
            want = log_sigmoid(float(xi))
            assert isinstance(want, float)
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


class TestAlphaSkeleton:
    @pytest.mark.parametrize("probs", [[0.9, 0.1], [1.0, 0.0]])
    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_alpha(self, probs, alpha):
        with pytest.raises(NonFiniteParameter):
            alpha_skeleton(make_distribution(COIN, probs), alpha)

    def test_alpha_one_returns_input_object(self):
        d = dist_from_weights([3, 1])
        assert alpha_skeleton(d, 1.0) is d

    def test_alpha_zero_is_uniform_over_support(self):
        d = make_distribution(OutcomeRange(labels_of(3)), [0.9, 0.1, 0.0])
        np.testing.assert_allclose(alpha_skeleton(d, 0.0).probs, [0.5, 0.5, 0.0],
                                   rtol=1e-15)

    def test_alpha_two_on_tilted_coin(self):
        d = make_distribution(COIN, [0.9, 0.1])
        np.testing.assert_allclose(alpha_skeleton(d, 2.0).probs,
                                   [0.81 / 0.82, 0.01 / 0.82], rtol=1e-14)

    def test_negative_alpha_needs_full_support(self):
        d = make_distribution(COIN, [1.0, 0.0])
        with pytest.raises(NegativeAlphaOnZeroMass):
            alpha_skeleton(d, -1.0)

    def test_negative_alpha_inverts_ordering(self):
        d = dist_from_weights([9, 1])
        inv = alpha_skeleton(d, -1.0)
        np.testing.assert_allclose(inv.probs, [0.1, 0.9], rtol=1e-12)

    @given(distributions(allow_zeros=True),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
           st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]))
    def test_composition_multiplies_exponents(self, d, a, b):
        chained = alpha_skeleton(alpha_skeleton(d, a), b)
        direct = alpha_skeleton(d, a * b)
        np.testing.assert_allclose(chained.probs, direct.probs, rtol=1e-12, atol=1e-15)

    @given(distributions(allow_zeros=True), st.sampled_from([0.5, 1.0, 2.0, 16.0]))
    def test_positive_alpha_preserves_argmax(self, d, alpha):
        assert alpha_skeleton(d, alpha).argmax_index == d.argmax_index

    @given(distributions(allow_zeros=True), st.sampled_from([0.0, 0.5, 2.0, 16.0]))
    def test_support_is_preserved(self, d, alpha):
        np.testing.assert_array_equal(alpha_skeleton(d, alpha).support, d.support)


class TestExtensionMonotonicity:
    def test_merging_outcomes_loosens_the_bound(self):
        fine = OutcomeRange(("a", "b", "c"))
        coarse = OutcomeRange(("ab", "c"))
        r = Refinement(fine, coarse, ("ab", "ab", "c"))
        prior = make_distribution(fine, [0.2, 0.3, 0.5])
        conditional = make_distribution(fine, [0.5, 0.3, 0.2])
        report = check_extension_monotonicity(prior, conditional, r)
        assert report.holds
        assert (report.fine.log_max_probability
                <= report.coarse.log_max_probability + 1e-12)

    def test_identity_refinement_changes_nothing(self):
        prior = dist_from_weights([2, 3, 5])
        conditional = dist_from_weights([5, 3, 2])
        r = Refinement.identity(prior.range)
        report = check_extension_monotonicity(prior, conditional, r)
        np.testing.assert_allclose(report.fine.log_max_probability,
                                   report.coarse.log_max_probability, rtol=1e-12)


class TestExhaustiveOracle:
    ATOMS = np.array([0.25, 0.25, 0.5])
    VMAP = ["A", "A", "B"]
    RANGE = OutcomeRange(("A", "B"))

    def test_degenerate_conditional_attains_the_bound(self):
        conditional = make_distribution(self.RANGE, [1.0, 0.0])
        found = exhaustive_bound_oracle(self.ATOMS, self.VMAP, conditional)
        prior = make_distribution(self.RANGE, [0.5, 0.5])
        bound = max_probability(prior, conditional)
        np.testing.assert_allclose(found, bound.value, rtol=1e-12)

    def test_representable_conditional_found_exactly(self):
        # atoms {0, 2}: masses (0.25, 0.5), conditional (1/3, 2/3), P = 0.75
        conditional = make_distribution(self.RANGE, [1.0 / 3.0, 2.0 / 3.0])
        found = exhaustive_bound_oracle(self.ATOMS, self.VMAP, conditional)
        np.testing.assert_allclose(found, 0.75, rtol=1e-12)

    def test_unrepresentable_conditional_returns_none(self):
        conditional = make_distribution(self.RANGE, [0.3, 0.7])
        assert exhaustive_bound_oracle(self.ATOMS, self.VMAP, conditional) is None

    def test_atom_cap(self):
        n = 21
        atoms = np.full(n, 1.0 / n)
        vmap = ["A"] * (n - 1) + ["B"]
        conditional = make_distribution(self.RANGE, [1.0, 0.0])
        with pytest.raises(SpaceTooLarge):
            exhaustive_bound_oracle(atoms, vmap, conditional)

    @given(st.integers(0, 10_000))
    def test_random_spaces_never_beat_the_bound(self, seed):
        rng = np.random.default_rng(seed)
        n_atoms = int(rng.integers(2, 10))
        weights = rng.integers(1, 10, size=n_atoms).astype(float)
        atoms = weights / weights.sum()
        assignment = np.concatenate([[0, 1], rng.integers(0, 2, size=n_atoms - 2)])
        vmap = [self.RANGE.labels[a] for a in assignment]
        marginal = np.zeros(2)
        for a, p in zip(assignment, atoms):
            marginal[a] += p
        prior = make_distribution(self.RANGE, marginal)
        mask = rng.integers(0, 2, size=n_atoms).astype(bool)
        if not atoms[mask].sum() > 0:
            mask[0] = True
        sub = np.zeros(2)
        for a, p, keep in zip(assignment, atoms, mask):
            if keep:
                sub[a] += p
        conditional = make_distribution(self.RANGE, sub / sub.sum())
        found = exhaustive_bound_oracle(atoms, vmap, conditional)
        bound = max_probability(prior, conditional)
        assert found is not None
        assert found >= atoms[mask].sum() - 1e-12
        assert found <= bound.value + 1e-12
