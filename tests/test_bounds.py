import itertools
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from helpers import (
    EPS,
    assert_within_rounding,
    dist_from_weights,
    distribution_pairs,
    distributions,
    labels_of,
    log_scale,
)
from maxprob import (
    DomainError,
    NegativeAlphaOnZeroMass,
    NonFiniteEncountered,
    NonFiniteParameter,
    NonPositiveAlpha,
    OutcomeRange,
    Refinement,
    SpaceTooLarge,
    SumOutOfTolerance,
    alpha_skeleton,
    check_extension_monotonicity,
    exhaustive_bound_oracle,
    make_distribution,
    max_probability,
    softmax_probability,
    uniform_distribution,
)
from maxprob import logspace
from maxprob.logspace import (NEG_INF, log_softmax, logsumexp, soft_min, softmax, _log_softmax,
                              _soft_min_step)


COIN = OutcomeRange(("H", "T"))
MAX = float(np.finfo(float).max)
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

    def test_tiny_alpha_gives_minus_inf_without_a_warning(self):
        """-lse / alpha passes the float range; -inf is the correct limit."""
        assert soft_min([0.0, 1.0], 1e-320) == NEG_INF
        np.testing.assert_array_equal(soft_min([[0.0, 1.0]], 1e-320, axis=-1), [NEG_INF])
        assert soft_min([], 1e-320) == np.inf

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
        """axis=None on each row, including empty and all -inf rows, which reduce to -inf
        without a warning."""
        reduced = logsumexp(x, axis=-1)
        np.testing.assert_array_equal(reduced, [logsumexp(row) for row in x])

    @given(arrays(float, st.lists(st.integers(0, 4), max_size=3).map(tuple),
                  elements=st.one_of(st.just(NEG_INF), st.floats(-1e300, 1e300))))
    def test_whole_array_matches_the_scalar_reference_bitwise(self, a):
        """axis=None runs the axis kernel on the raveled input; the scalar path it
        replaced is reference.logsumexp."""
        got = logsumexp(a)
        assert type(got) is float and repr(got) == repr(reference.logsumexp(a))

    @pytest.mark.parametrize("row,want", [([1e308, -1e308], [0.0, NEG_INF]),
                                          ([-1e308, 0.5, 1e308], [NEG_INF, -1e308, 0.0]),
                                          ([MAX, -MAX, 0.0], [0.0, NEG_INF, -MAX]),
                                          ([-MAX, 1e307, -1e307], [NEG_INF, 0.0, -2e307])])
    def test_overflowing_shift_of_one_slice_is_zero_mass_without_a_warning(self, row, want):
        """The shift overflows to -inf, whose exp is the correct 0.  The toy network takes
        the soft minimum's weights of -logits, exp(_log_softmax(logits, alpha)), from the
        logits: bit for bit _soft_min_step of the negated logits, on these rows that are
        not calm, at sharpnesses far from 1 and in a batch tall enough to reduce column by
        column."""
        top = max(row)
        assert logsumexp(row) == top
        np.testing.assert_array_equal(logsumexp(np.array(row), axis=-1), top)
        np.testing.assert_array_equal(logsumexp(np.array([row]), axis=-1), [top])
        np.testing.assert_array_equal(log_softmax(row), want)
        np.testing.assert_array_equal(log_softmax([row]), [want])
        for x in (np.array([row]), np.tile(row, (64, 1))):
            for alpha in (1e-320, 1e-300, 1e-3, 0.5, 1.0, 2.0, 256.0, 1e6, 1e300):
                got = np.exp(_log_softmax(x, alpha))
                assert got.tobytes() == _soft_min_step(-x, alpha)[1].tobytes(), alpha


class TestRowResultTypes:
    """logspace reduces a 1-D row to scalars; the public functions still give a 0-d array
    along an axis, a float with none, and a (K,) row from log_softmax and softmax, for
    calm rows and for rows that are not (an overflowing shift, an extreme alpha)."""

    @pytest.mark.parametrize("row", [[1.0, 2.0], [1e308, -1e308], [NEG_INF, 0.5, 3.0]])
    def test_one_row(self, row):
        row = np.array(row)
        for axis in (0, -1):
            got = [logsumexp(row, axis=axis)]
            got += [soft_min(row, alpha, axis=axis) for alpha in (1e-300, 2.0, 1e308)]
            for value in got:
                assert type(value) is np.ndarray and value.shape == (), (axis, value)
        assert type(logsumexp(row)) is float and type(soft_min(row, 2.0)) is float
        for normalize in (log_softmax, softmax):
            got = normalize(row)
            assert type(got) is np.ndarray and got.shape == row.shape


class TestZeroMass:
    """A slice with no mass: its log-sum-exp is -inf without a warning, and normalizing
    it raises SumOutOfTolerance."""

    def test_logsumexp_is_minus_inf(self):
        for a in ([], [NEG_INF, NEG_INF], np.empty((2, 0))):
            assert logsumexp(a) == NEG_INF
            np.testing.assert_array_equal(logsumexp(a, axis=-1),
                                          np.full(np.shape(a)[:-1], NEG_INF))
        np.testing.assert_array_equal(logsumexp([[NEG_INF, NEG_INF], [0.0, 0.0]], axis=-1),
                                      [NEG_INF, np.log(2.0)])

    @pytest.mark.parametrize("normalize", [log_softmax, softmax])
    @pytest.mark.parametrize("x", [[NEG_INF, NEG_INF], [[NEG_INF, NEG_INF]],
                                   [[0.0, 1.0], [NEG_INF, NEG_INF]]])
    def test_normalizing_raises(self, normalize, x):
        with pytest.raises(SumOutOfTolerance):
            normalize(x)

    def test_soft_min_of_infinite_entries_is_inf(self):
        np.testing.assert_array_equal(soft_min([[np.inf, np.inf]], 1.0, axis=-1), [np.inf])


def assert_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)


class TestFloatEdges:
    """+inf and NaN entries, and a batch whose shift overflows; the suite makes a
    RuntimeWarning an error."""

    def test_plus_inf_entry_has_infinite_log_sum_exp(self):
        assert logsumexp([np.inf, 0.0]) == np.inf
        np.testing.assert_array_equal(logsumexp([[np.inf, 0.0], [0.0, 0.0]], axis=-1),
                                      [np.inf, np.log(2.0)])

    def test_soft_min_of_minus_inf_entry_is_minus_inf(self):
        assert soft_min([NEG_INF, 0.0], 1.0) == NEG_INF
        np.testing.assert_array_equal(soft_min([[NEG_INF, 0.0], [0.0, 0.0]], 1.0, axis=-1),
                                      [NEG_INF, -np.log(2.0)])

    @pytest.mark.parametrize("normalize", [log_softmax, softmax])
    @pytest.mark.parametrize("x", [[np.inf, 0.0], [[np.inf, 0.0], [0.0, 0.0]],
                                   [np.nan, 0.0], [[0.0, 0.0], [0.0, np.nan]]])
    def test_normalizing_raises(self, normalize, x):
        with pytest.raises(NonFiniteEncountered):
            normalize(x)

    @pytest.mark.parametrize("reduce", [logsumexp, lambda a, axis=None: soft_min(a, 1.0, axis)],
                             ids=["logsumexp", "soft_min"])
    @pytest.mark.parametrize("a", [[np.nan, 0.0], [np.nan, np.inf], [NEG_INF, np.nan]])
    def test_nan_entry_raises(self, reduce, a):
        with pytest.raises(NonFiniteEncountered):
            reduce(a)
        with pytest.raises(NonFiniteEncountered):
            reduce([[0.0, 0.0], a], axis=-1)

    def test_overflowing_shift_of_a_batch_is_zero_mass_without_a_warning(self):
        rows = [[1e308, -1e308], [0.0, 0.0]]
        np.testing.assert_array_equal(logsumexp(rows, axis=-1), [1e308, np.log(2.0)])
        np.testing.assert_array_equal(log_softmax(rows),
                                      [[0.0, NEG_INF], [-np.log(2.0), -np.log(2.0)]])

    @given(arrays(float, st.one_of(st.lists(st.integers(0, 4), min_size=1, max_size=3)
                                   .map(tuple),
                                   st.tuples(st.integers(1, 40), st.integers(1, 9))),
                  elements=st.one_of(st.just(NEG_INF), st.sampled_from([0.0, -0.0]),
                                     st.floats(-4.0, 4.0), st.floats(-1e300, 1e300)),
                  fill=st.nothing()),
           st.integers(-3, 2))
    def test_calm_inputs_match_the_reference(self, a, axis):
        """Finite entries within +-1e300, -inf and signed zeros, against the kernel before
        the calm test: log-sum-exp bit for bit, and log-probabilities, which this kernel
        takes from the shifted array and that one from the log-sum-exp, within rounding.
        Batches of 1 to 40 rows of 1 to 9 entries lie on both sides of the short rows
        that logspace reduces column by column, which every batch of 2 to 7 entries a row
        takes with _ROWS_PER_COLUMN at 0; entries within +-4, whose exponentials are of
        one size, show the order of a sum.  The soft minimum along the last axis is held
        bit for bit, sign of zero included, to its form on the ndarray methods."""
        axis %= a.ndim
        for rows_per_column in (logspace._ROWS_PER_COLUMN, 0):
            with mock.patch.object(logspace, "_ROWS_PER_COLUMN", rows_per_column):
                for alpha in (0.5, 2.0, 256.0):
                    assert_bits(soft_min(a, alpha, axis=-1), reference.soft_min_rows(a, alpha))
                assert_bits(logsumexp(a, axis), reference._logsumexp(a, axis)[0].squeeze(axis))
        try:
            want = reference._log_normalize(a)
        except SumOutOfTolerance:
            with pytest.raises(SumOutOfTolerance):
                _log_softmax(a)
            with pytest.raises(SumOutOfTolerance):
                _soft_min_step(a, -1.0, False)
            return
        assert_within_rounding(_log_softmax(a), want[0], log_scale(a))
        assert_bits(_soft_min_step(a, -1.0, False)[0], want[1])


def shifted_row(shifted, a, alpha, normalize):
    """shifted(a, alpha, -1, normalize), or the class of the DomainError it raised."""
    try:
        return shifted(a, alpha, -1, normalize)
    except DomainError as exc:
        return type(exc)


def short_rows(alpha, rng):
    """Rows of 1 to 7 entries: every sign pattern of zeros up to 4 entries, finite rows of
    one scale, where the order of a sum shows, NaN first and last, and rows drawn from the
    float edges of the calm test at alpha: -inf, +inf, NaN, subnormals, +-2**968 and
    +-finfo.max / (4 |alpha|) (2**1000 at most), each with its neighbour outside."""
    edge = min(2.0 ** 1000, MAX / (4.0 * abs(alpha)))
    pool = [0.0, -0.0, 1.0, -3.5, NEG_INF, np.inf, np.nan, 5e-324, -5e-324, 1e-310,
            2.0 ** 968, -(2.0 ** 968), np.nextafter(2.0 ** 968, np.inf), edge, -edge,
            np.nextafter(edge, np.inf), 1e300, -1e300]
    for n in range(1, 8):
        yield from itertools.product((0.0, -0.0), repeat=n) if n <= 4 else ()
        for _ in range(40):
            row = rng.normal(0.0, 4.0, n)
            yield row
            yield rng.choice(pool, n)
        for nan_at in (0, n - 1):
            row = rng.normal(0.0, 4.0, n)
            row[nan_at] = np.nan
            yield row


class TestShortRows:
    """A 1-D row of 1 to 7 entries reduces in Python floats (logspace's module docstring):
    the same bits as the numpy reduction it replaced (reference.keepdims_shifted, the
    shift, log-sum-exp and extreme squeezed), the same soft extreme m + lse / alpha, formed
    in the reference's own context, and the same error, with no RuntimeWarning, which the
    suite makes an error."""

    @pytest.mark.parametrize("alpha", [sign * x for x in (2.0 ** -1000, 1e-300, 0.5, 1.0, 2.0,
                                                          1e300, 1e308) for sign in (1, -1)])
    def test_match_the_numpy_reduction(self, alpha):
        rng = np.random.default_rng(abs(int(np.log2(abs(alpha)))))
        for row in short_rows(alpha, rng):
            a = np.array(row, dtype=float)
            for normalize in (False, True):
                got = shifted_row(logspace._shifted, a, alpha, normalize)
                want = shifted_row(reference.keepdims_shifted, a, alpha, normalize)
                if isinstance(want, type):
                    assert got is want, (row, normalize)
                    continue
                assert not isinstance(got, type), (row, normalize, got)
                s, lse, m, v = got
                assert type(lse) is np.float64 and type(m) is np.float64, row
                assert_bits(s, want[0])
                assert_bits(np.asarray(lse), want[1].squeeze(-1))
                assert_bits(np.asarray(m), want[2].squeeze(-1))
                with want[3]:
                    soft_extreme = want[2] + want[1] / alpha
                assert_bits(np.asarray(v), soft_extreme.squeeze(-1))


class TestNumpyReductionOrder:
    """The numpy behaviour the short-row path copies; a numpy that changes it fails here."""

    def test_add_reduce_sums_a_1d_row_left_to_right_below_8_entries(self):
        rng = np.random.default_rng(0)
        for n in range(1, 8):
            for _ in range(500):
                e = np.exp(rng.normal(0.0, 3.0, n))
                total = e[0]
                for x in e[1:]:
                    total = total + x
                assert np.add.reduce(e) == total, e

    def test_maximum_and_minimum_keep_the_last_of_equal_zeros(self):
        for n in range(1, 8):
            for zeros in itertools.product((0.0, -0.0), repeat=n):
                last = np.signbit(zeros[-1])
                for top, bound in ((np.maximum, -MAX), (np.minimum, MAX)):
                    assert np.signbit(top.reduce(np.array(zeros))) == last, zeros
                    assert np.signbit(top.reduce(np.array(zeros), -1, initial=bound)) == last


def decimal_soft_min(a, alpha):
    """soft_min(a, alpha) and its weights softmax(-alpha * a), to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        exact = [Decimal(float(x)) for x in a]
        m, scale = min(exact), Decimal(alpha)
        terms = [(-scale * (x - m)).exp() for x in exact]
        total = sum(terms)
        return float(m - total.ln() / scale), [float(t / total) for t in terms]


def decimal_log_softmax(x):
    with localcontext() as ctx:
        ctx.prec = 50
        exact = [Decimal(float(v)) for v in x]
        m = max(exact)
        lse = m + sum((v - m).exp() for v in exact).ln()
        return [float(v - lse) for v in exact]


class TestAccuracy:
    """The kernels against a 50-digit reference: a value within 4 eps (1 + |value|), a
    weight within 4 eps.  Scaling after the shift keeps alpha out of the error; scaling
    first cost each weight about eps alpha max|a|, up to 2.6e8 eps at alpha 1e6 here."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 256.0, 1e6])
    def test_soft_min_and_its_weights(self, alpha):
        rng = np.random.default_rng(int(alpha))
        for k in (2, 3, 8, 64):
            for center in (0.0, 1.0, -30.0, 700.0):
                for _ in range(5):
                    # entries within 10 / alpha of each other, so every weight counts
                    a = center + rng.uniform(0.0, 10.0, size=k) / alpha
                    value, weights = decimal_soft_min(a, alpha)
                    got, got_weights = _soft_min_step(a, alpha)
                    for v in (got, soft_min(a, alpha)):
                        assert abs(v - value) <= 4 * EPS * (1 + abs(value)), (a, v, value)
                    assert np.abs(got_weights - weights).max() <= 4 * EPS, (a, alpha)

    def test_log_softmax(self):
        rng = np.random.default_rng(1)
        for k in (2, 3, 8, 64):
            for center in (0.0, 1.0, -30.0, 700.0, 1e5):
                for _ in range(5):
                    x = center + rng.normal(scale=5.0, size=k)
                    want = np.array(decimal_log_softmax(x))
                    assert (np.abs(log_softmax(x) - want) <= 4 * EPS * (1 + np.abs(want))).all()


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

    def test_huge_alpha_keeps_a_uniform_distribution(self):
        """The shift leaves every entry of a uniform distribution at 0, whatever the alpha."""
        u = uniform_distribution(OutcomeRange(labels_of(10)))
        for alpha in (1e308, -1e308):
            assert_within_rounding(alpha_skeleton(u, alpha).logp, u.logp, np.log(10.0))

    @given(distributions(allow_zeros=True), st.sampled_from([0.5, 1.0, 2.0, 16.0]))
    def test_positive_alpha_preserves_argmax(self, d, alpha):
        assert np.argmax(alpha_skeleton(d, alpha).logp) == np.argmax(d.logp)

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
        r = Refinement(prior.range, prior.range, prior.range.labels)
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

    def test_non_finite_atoms_are_rejected(self):
        """As make_distribution rejects them; unchecked, a NaN atom matches no event."""
        conditional = make_distribution(self.RANGE, [0.5, 0.5])
        for atoms in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [-np.inf, 0.5, 0.5]):
            with pytest.raises(NonFiniteEncountered):
                exhaustive_bound_oracle(atoms, ["A", "B", "A"], conditional)

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
