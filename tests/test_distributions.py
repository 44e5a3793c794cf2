import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from helpers import alphas, dist_from_weights, distributions, labels_of, weight_lists
from maxprob import (
    DimensionMismatch,
    DuplicateOutcome,
    EmptyRange,
    FiniteDistribution,
    LabelOutOfRange,
    MalformedDistribution,
    NegativeMass,
    NonFiniteEncountered,
    NonFiniteParameter,
    ObjectiveConfig,
    OutcomeRange,
    Parameterization,
    RangeMismatch,
    Refinement,
    SumOutOfTolerance,
    apply_parameterization,
    coarsen,
    distribution_from_jsonable,
    distribution_to_jsonable,
    gradient_at_theta,
    make_distribution,
    mc_gradient,
    value_at_theta,
)
from maxprob.distributions import SUM_INVARIANT_TOL, _theta_logp
from maxprob.errors import NonSurjectiveProjection
from maxprob.logspace import NEG_INF
from maxprob.objectives import ASSUMPTIONS, KINDS


def assert_array_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)


class TestOutcomeRange:
    def test_labels_must_be_distinct(self):
        with pytest.raises(DuplicateOutcome):
            OutcomeRange(("a", "b", "a"))

    def test_range_must_be_nonempty(self):
        with pytest.raises(EmptyRange):
            OutcomeRange(())

    def test_index_lookup(self):
        rng = OutcomeRange(("x", "y", "z"))
        assert rng.index("y") == 1
        with pytest.raises(LabelOutOfRange):
            rng.index("w")


class TestMakeDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(NegativeMass):
            make_distribution(OutcomeRange(("a", "b")), [1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(SumOutOfTolerance):
            make_distribution(OutcomeRange(("a", "b")), [0.6, 0.6])

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            make_distribution(OutcomeRange(("a", "b")), [1.0])

    def test_zero_mass_is_exactly_minus_inf(self):
        d = make_distribution(OutcomeRange(("a", "b")), [1.0, 0.0])
        assert d.logp[1] == NEG_INF
        assert d.probs[1] == 0.0
        np.testing.assert_array_equal(d.support, [True, False])

    @pytest.mark.parametrize("probs", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0]])
    def test_rejects_non_finite_entries(self, probs):
        with pytest.raises(NonFiniteEncountered):
            make_distribution(OutcomeRange(("a", "b")), probs)

    @pytest.mark.parametrize("logp, probs", [(np.log([2.0, 6.0]), [0.25, 0.75]),
                                             ([0.0, 0.0], [0.5, 0.5])])
    def test_from_logp_renormalizes(self, logp, probs):
        d = FiniteDistribution.from_logp(OutcomeRange(("a", "b")), logp)
        np.testing.assert_allclose(d.probs, probs, rtol=1e-15)

    def test_constructor_rejects_an_off_total(self):
        for logp in (np.log([2.0, 6.0]), [0.0, 0.0]):
            with pytest.raises(SumOutOfTolerance):
                FiniteDistribution(OutcomeRange(("a", "b")), logp)

    @pytest.mark.parametrize("build", [FiniteDistribution, FiniteDistribution.from_logp])
    @pytest.mark.parametrize("logp, error", [
        ([np.nan, 0.0], NonFiniteEncountered),
        ([np.inf, NEG_INF], NonFiniteEncountered),
        ([NEG_INF, NEG_INF], SumOutOfTolerance),
    ])
    def test_constructors_check_log_probabilities(self, build, logp, error):
        with pytest.raises(error):
            build(OutcomeRange(("a", "b")), logp)

    def test_constructor_keeps_the_bits_it_accepts(self):
        logp = np.log([0.25, 0.75]) + 1e-10  # sums to 1 + 1e-10, within SUM_REJECT_TOL
        assert_array_bits(FiniteDistribution(OutcomeRange(("a", "b")), logp).logp, logp)

    def test_argmax_index_first_on_ties(self):
        d = make_distribution(OutcomeRange(("a", "b", "c")), [0.4, 0.4, 0.2])
        assert np.argmax(d.logp) == 0


class TestJsonRoundTrip:
    @given(distributions(allow_zeros=True))
    def test_round_trip_preserves_probabilities(self, d):
        back = distribution_from_jsonable(distribution_to_jsonable(d))
        assert back.range == d.range
        np.testing.assert_allclose(back.probs, d.probs, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(back.support, d.support)

    def test_zeros_serialize_as_integer_zero(self):
        d = make_distribution(OutcomeRange(("a", "b")), [1.0, 0.0])
        payload = distribution_to_jsonable(d)
        assert payload["probs"][1] == 0
        assert isinstance(payload["probs"][1], int)

    def test_missing_keys_rejected(self):
        with pytest.raises(MalformedDistribution):
            distribution_from_jsonable({"range": ["a", "b"]})

    @pytest.mark.parametrize("payload", [
        {"range": ["a", "b"], "probs": ["a", "b"]},
        {"range": 5, "probs": [0.5, 0.5]},
        {"range": [["H"], ["T"]], "probs": [0.5, 0.5]},
        {"range": ["a", "b"], "probs": [[0.5], [0.5, 0.0]]},
        {"range": ["a", "b"], "probs": [True, False]},
        [0.5, 0.5],
    ])
    def test_non_distribution_payloads_rejected(self, payload):
        with pytest.raises(MalformedDistribution):
            distribution_from_jsonable(payload)


class TestRefinement:
    def test_every_coarse_outcome_needs_a_preimage(self):
        fine = OutcomeRange(("a", "b"))
        coarse = OutcomeRange(("x", "y"))
        with pytest.raises(NonSurjectiveProjection):
            Refinement(fine, coarse, ("x", "x"))

    def test_targets_must_live_in_coarse_range(self):
        fine = OutcomeRange(("a", "b"))
        coarse = OutcomeRange(("x", "y"))
        with pytest.raises(RangeMismatch):
            Refinement(fine, coarse, ("x", "zzz"))

    def test_identity_round_trips_distributions(self):
        d = dist_from_weights([3, 1, 4])
        ident = Refinement(d.range, d.range, d.range.labels)
        np.testing.assert_array_equal(coarsen(d, ident).logp, d.logp)

    def test_preimage_indices(self):
        fine = OutcomeRange(("a", "b", "c"))
        coarse = OutcomeRange(("x", "y"))
        r = Refinement(fine, coarse, ("x", "y", "x"))
        np.testing.assert_array_equal(r.preimage_indices("x"), [0, 2])

    @pytest.mark.parametrize("label", ["zzz", ["x"], None])
    def test_preimage_of_a_label_off_the_coarse_range(self, label):
        """LabelOutOfRange, as OutcomeRange.index raises, not an empty preimage."""
        r = Refinement(OutcomeRange(("a", "b")), OutcomeRange(("x",)), ("x", "x"))
        with pytest.raises(LabelOutOfRange):
            r.preimage_indices(label)


@st.composite
def refinement_instances(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, n))
    fine = OutcomeRange(labels_of(n))
    coarse = OutcomeRange(tuple(f"c{j}" for j in range(m)))
    extra = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    assignment = draw(st.permutations(list(range(m)) + extra))
    r = Refinement(fine, coarse, tuple(coarse.labels[a] for a in assignment))
    d = dist_from_weights(draw(weight_lists(n, allow_zeros=True)))
    return r, d


@st.composite
def labelled_refinements(draw):
    """A refinement of 1 to 12 fine outcomes onto 1 (one coarse label) to all of them
    (singleton preimages), int or str labels on either range, the coarse labels in drawn
    order, and a distribution over the fine range with zero mass allowed."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))

    def labels(k, prefix):
        return tuple(range(k)) if draw(st.booleans()) else tuple(f"{prefix}{i}" for i in range(k))
    fine = OutcomeRange(labels(n, "v"))
    coarse = OutcomeRange(tuple(draw(st.permutations(labels(m, "c")))))
    extra = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    assignment = draw(st.permutations(list(range(m)) + extra))
    r = Refinement(fine, coarse, tuple(coarse.labels[a] for a in assignment))
    logp = draw(st.lists(st.one_of(st.just(NEG_INF), st.floats(-50.0, 5.0)),
                         min_size=n, max_size=n).filter(lambda lp: max(lp) > NEG_INF))
    return r, FiniteDistribution.from_logp(fine, logp)


class TestPreimages:
    @given(labelled_refinements())
    def test_match_the_scan_of_every_target(self, case):
        """Each preimage is the scan of the targets for its coarse label, as a fresh int
        array: writing to one leaves the refinement as it was."""
        r, _ = case
        for c in r.coarse.labels:
            want = np.array([i for i, t in enumerate(r.targets) if t == c], dtype=int)
            got = r.preimage_indices(c)
            assert_array_bits(got, want)
            got[:] = -1
            assert_array_bits(r.preimage_indices(c), want)


class TestCoarsen:
    @given(labelled_refinements())
    def test_matches_the_per_label_scan(self, case):
        """One pass over the targets gives each coarse logsumexp the entries the scan of
        every target per coarse label gave it, in the same order: the same bytes."""
        r, d = case
        assert_array_bits(coarsen(d, r).logp, reference.coarsen(d, r).logp)

    @given(refinement_instances())
    def test_mass_is_preserved_per_coarse_outcome(self, case):
        r, d = case
        coarse = coarsen(d, r)
        for j, label in enumerate(r.coarse.labels):
            expected = d.probs[r.preimage_indices(label)].sum()
            np.testing.assert_allclose(coarse.probs[j], expected, rtol=1e-12, atol=1e-15)

    @given(refinement_instances())
    def test_result_is_normalized(self, case):
        r, d = case
        np.testing.assert_allclose(coarsen(d, r).probs.sum(), 1.0, rtol=1e-12)

    def test_range_mismatch_rejected(self):
        ab = OutcomeRange(("a", "b"))
        r = Refinement(ab, ab, ab.labels)
        with pytest.raises(RangeMismatch):
            coarsen(dist_from_weights([1, 2, 3]), r)


class TestSigmoidParameterization:
    def test_theta_zero_is_fair(self):
        p = Parameterization.sigmoid_bernoulli()
        d = apply_parameterization(p, 0.0)
        np.testing.assert_allclose(d.probs, [0.5, 0.5], rtol=1e-15)

    def test_success_outcome_carries_sigma(self):
        p = Parameterization.sigmoid_bernoulli()
        d = apply_parameterization(p, np.log(9.0))
        assert d.range.labels == ("1", "0")
        np.testing.assert_allclose(d.probs, [0.9, 0.1], rtol=1e-12)

    def test_jacobian_at_zero(self):
        p = Parameterization.sigmoid_bernoulli()
        np.testing.assert_allclose(reference.parameterization_jacobian(p, 0.0),
                                   [[0.5], [-0.5]])

    def test_requires_two_outcomes(self):
        with pytest.raises(DimensionMismatch):
            Parameterization.sigmoid_bernoulli(OutcomeRange(("a", "b", "c")))

    def test_is_the_first_of_two_logits(self):
        p = Parameterization.sigmoid_bernoulli()
        assert p == Parameterization(1, OutcomeRange(("1", "0")))

    @pytest.mark.parametrize("theta", [0.0, -0.0, 1e-300, 800.0, -800.0, 37.5, -745.5,
                                       1e308, -1e308])
    def test_within_one_ulp_of_the_log_sigmoid_map(self, theta):
        """softmax over (theta, 0) against (log sigma(theta), log sigma(-theta)),
        both renormalized, within one ulp of max(1, |x|)."""
        p = Parameterization.sigmoid_bernoulli()
        got = _theta_logp(p, np.array([[theta]]))[0]
        want = reference.sigmoid_logp(theta)
        assert np.all(np.abs(got - want) <= np.spacing(np.maximum(1.0, np.abs(want))))

    def test_extreme_theta_stays_finite_distribution(self):
        p = Parameterization.sigmoid_bernoulli()
        d = apply_parameterization(p, 800.0)
        assert d.logp[0] == 0.0
        assert np.isfinite(d.logp[1]) and d.logp[1] < -700

    def test_non_finite_theta_rejected(self):
        p = Parameterization.sigmoid_bernoulli()
        with pytest.raises(NonFiniteParameter):
            apply_parameterization(p, np.nan)


class TestSoftmaxParameterization:
    def test_matches_softmax(self):
        p = Parameterization.softmax_logits(3)
        theta = np.array([0.2, -1.0, 0.5])
        expected = np.exp(theta) / np.exp(theta).sum()
        np.testing.assert_allclose(apply_parameterization(p, theta).probs,
                                   expected, rtol=1e-14)

    def test_jacobian_structure(self):
        p = Parameterization.softmax_logits(3)
        theta = np.array([0.2, -1.0, 0.5])
        probs = apply_parameterization(p, theta).probs
        np.testing.assert_allclose(reference.parameterization_jacobian(p, theta),
                                   np.eye(3) - probs[None, :], rtol=1e-14)

    def test_overflowing_logit_gap_zeroes_an_outcome_without_a_warning(self):
        p = Parameterization.softmax_logits(2)
        np.testing.assert_array_equal(apply_parameterization(p, [1e308, -1e308]).logp,
                                      [0.0, NEG_INF])

    def test_wrong_dim_rejected(self):
        p = Parameterization.softmax_logits(3)
        with pytest.raises(DimensionMismatch):
            apply_parameterization(p, [0.0, 1.0])

    @pytest.mark.parametrize("dim", [0, -1, 4])
    def test_dim_outside_one_to_k_rejected(self, dim):
        with pytest.raises(DimensionMismatch):
            Parameterization(dim, OutcomeRange(labels_of(3)))

    def test_trailing_logits_are_pinned_at_zero(self):
        p = Parameterization(2, OutcomeRange(labels_of(3)))
        assert_array_bits(apply_parameterization(p, [0.7, -2.0]).logp,
                          apply_parameterization(Parameterization.softmax_logits(p.range),
                                                 [0.7, -2.0, 0.0]).logp)

    def test_sum_invariant_at_large_logits(self):
        """One log-softmax pass keeps |sum p - 1| within SUM_INVARIANT_TOL: it subtracts
        log sum exp(x - m) from the shifted x - m, not m + log sum exp(x - m) from x, which
        lost eps m and reached 7.3e-12 here."""
        p = Parameterization.softmax_logits(64)
        thetas = 1e5 + np.random.default_rng(3).normal(scale=2.0, size=(2000, 64))
        total = np.exp(_theta_logp(p, thetas)).sum(axis=-1)
        assert np.abs(total - 1.0).max() <= SUM_INVARIANT_TOL

    @pytest.mark.parametrize("k", [2, 3, 8, 64, 512, 2048])
    def test_sum_invariant_at_every_scale(self, k):
        """Logits spread across +-scale, and clustered within a few units of +-scale."""
        rng = np.random.default_rng(k)
        p = Parameterization.softmax_logits(k)
        for scale in (1.0, 1e2, 1e5, 1e10, 1e100, 1e300):
            for sign in (1.0, -1.0):
                thetas = np.concatenate([scale * rng.uniform(-1.0, 1.0, size=(10, k)),
                                         sign * scale + rng.normal(scale=3.0, size=(10, k))])
                total = np.exp(_theta_logp(p, thetas)).sum(axis=-1)
                assert np.abs(total - 1.0).max() <= SUM_INVARIANT_TOL, (scale, sign)

    @pytest.mark.parametrize("k", [2, 3, 8, 64, 2048])
    def test_one_row_alone_is_its_batch_row(self, k):
        """A 1-D parameter row maps to the bits of the same row in a (1, dim) batch, and in
        a larger one, at every scale up to logit gaps past finfo.max, which zero outcomes."""
        rng = np.random.default_rng(k + 1)
        for p in (Parameterization(1, OutcomeRange(labels_of(k))),
                  Parameterization.softmax_logits(k)):
            rows = np.concatenate([scale * rng.uniform(-1.0, 1.0, size=(6, p.dim))
                                   for scale in (1.0, 1e5, 1e300, 1.7e308)])
            rows[-1, :2] = [1.7e308, -1.7e308][:p.dim]  # a gap past finfo.max at dim > 1
            batch = _theta_logp(p, rows)
            for row, want in zip(rows, batch):
                assert_array_bits(_theta_logp(p, row), want)
                assert_array_bits(_theta_logp(p, row[np.newaxis]), want[np.newaxis])
            assert (batch[-1] == NEG_INF).any() == (p.dim > 1)


theta_vectors = st.lists(
    st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=6,
)


class TestJacobianGauge:
    """probs @ J = 0 for the reference Jacobian: moving theta never changes
    total mass, so the gradient of any objective is insensitive to the
    zero-sum gauge of d_logp."""

    @given(st.floats(-5.0, 5.0, allow_nan=False))
    def test_sigmoid_mass_conservation(self, theta):
        p = Parameterization.sigmoid_bernoulli()
        d = apply_parameterization(p, theta)
        np.testing.assert_allclose(d.probs @ reference.parameterization_jacobian(p, theta),
                                   0.0, atol=1e-15)

    @given(theta_vectors.filter(lambda t: len(t) >= 2))
    def test_softmax_mass_conservation(self, theta):
        p = Parameterization.softmax_logits(len(theta))
        d = apply_parameterization(p, theta)
        np.testing.assert_allclose(d.probs @ reference.parameterization_jacobian(p, theta),
                                   0.0, atol=1e-12)

    @given(st.floats(-4.0, 4.0, allow_nan=False))
    def test_sigmoid_jacobian_matches_finite_differences(self, theta):
        p = Parameterization.sigmoid_bernoulli()
        h = 1e-6
        up = apply_parameterization(p, theta + h).logp
        dn = apply_parameterization(p, theta - h).logp
        fd = (up - dn) / (2 * h)
        analytic = reference.parameterization_jacobian(p, theta)[:, 0]
        np.testing.assert_allclose(analytic, fd, rtol=1e-7, atol=1e-9)

    @given(theta_vectors.filter(lambda t: len(t) >= 2))
    def test_softmax_jacobian_matches_finite_differences(self, theta):
        p = Parameterization.softmax_logits(len(theta))
        h = 1e-6
        fd = np.empty((p.dim, p.dim))
        for j in range(p.dim):
            up, dn = np.array(theta, dtype=float), np.array(theta, dtype=float)
            up[j] += h
            dn[j] -= h
            fd[:, j] = (apply_parameterization(p, up).logp
                        - apply_parameterization(p, dn).logp) / (2 * h)
        np.testing.assert_allclose(reference.parameterization_jacobian(p, theta), fd,
                                   rtol=1e-7, atol=1e-8)


PULLBACK_CASES = [("sigmoid", 2), ("softmax", 2), ("softmax", 16), ("softmax", 64)]


class TestPullback:
    """Slicing d_logp gives J^T d_logp, for the exact and the sampled gradient."""

    def setup_case(self, param, k):
        rng = np.random.default_rng(k)
        labels = OutcomeRange(labels_of(k))
        prior = make_distribution(labels, rng.dirichlet(np.ones(k)))
        oracle = make_distribution(labels, rng.dirichlet(np.ones(k)))
        if param == "sigmoid":
            return prior, oracle, Parameterization.sigmoid_bernoulli(labels), rng.normal(size=1)
        return prior, oracle, Parameterization.softmax_logits(labels), rng.normal(size=k)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    @pytest.mark.parametrize("param,k", PULLBACK_CASES)
    def test_matches_reference_jacobian(self, param, k, kind, assumption):
        prior, oracle, p, theta = self.setup_case(param, k)
        config = ObjectiveConfig(kind, assumption, 2.0, prior)
        jac = reference.parameterization_jacobian(p, theta)
        for g in (gradient_at_theta(config, oracle, p, theta),
                  mc_gradient(config, oracle, p, theta, 50, seed=k)):
            assert g.d_theta.shape == (p.dim,)
            np.testing.assert_allclose(g.d_theta, jac.T @ g.d_logp, rtol=0, atol=1e-12)


EPS = np.finfo(float).eps


class TestReparameterizationInvariance:
    """A model's probability depends only on its likelihood function, not on
    how it is parameterized.  Sigmoid theta, softmax (theta, 0) and softmax
    (theta + c, c) name one distribution, so every objective cell gives them
    one value and one d_logp: bit for bit for the first two, which are the
    same logits, and within rounding of theta + c for the third.  The value is
    held to 16 eps (1 + |theta| + |c|), and d_logp, whose soft-min weights
    scale log-probability errors by up to alpha, to 4 (1 + alpha) times it."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    @given(theta=st.floats(-700.0, 700.0), shift=st.floats(-1e4, 1e4),
           oracle_weights=weight_lists(2, allow_zeros=True),
           prior_weights=weight_lists(2, allow_zeros=False), alpha=alphas)
    def test_objectives_agree(self, kind, assumption, theta, shift, oracle_weights,
                              prior_weights, alpha):
        config = ObjectiveConfig(kind, assumption, alpha, dist_from_weights(prior_weights))
        oracle = dist_from_weights(oracle_weights)
        sigmoid = Parameterization.sigmoid_bernoulli(oracle.range)
        softmax = Parameterization.softmax_logits(oracle.range)
        value = value_at_theta(config, oracle, sigmoid, theta)
        grad = gradient_at_theta(config, oracle, sigmoid, theta)

        assert_array_bits(np.array(value_at_theta(config, oracle, softmax, [theta, 0.0])),
                          np.array(value))
        pinned = gradient_at_theta(config, oracle, softmax, [theta, 0.0])
        assert_array_bits(pinned.d_logp, grad.d_logp)
        assert_array_bits(pinned.d_theta[:1], grad.d_theta)

        scale = EPS * (1.0 + abs(theta) + abs(shift))
        shifted = [theta + shift, shift]
        assert abs(value_at_theta(config, oracle, softmax, shifted) - value) <= 16 * scale
        np.testing.assert_allclose(gradient_at_theta(config, oracle, softmax, shifted).d_logp,
                                   grad.d_logp, rtol=0, atol=4 * (1 + alpha) * scale)
