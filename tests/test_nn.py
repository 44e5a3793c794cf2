import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxprob import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteParameter,
    NonPositiveAlpha,
    RangeMismatch,
    ToyNet,
    canonical_report_bytes,
    cross_entropy_loss,
    head_mass,
    hn_forward,
    intersection_loss,
    loss_and_grads,
    make_toy_dataset,
    regularizer_bound,
    train,
)
from maxprob.errors import NonFiniteLogits
from maxprob.logspace import softmax

logit_rows = arrays(np.float64, (4, 5), elements=st.floats(-30.0, 30.0))
label_rows = arrays(np.int64, (4,), elements=st.integers(0, 4))
head_alphas = st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0])
BAD_ALPHAS = ((0.0, NonPositiveAlpha), (np.inf, NonFiniteParameter),
              (-np.inf, NonFiniteParameter), (np.nan, NonFiniteParameter))


class TestHnForward:
    def test_alpha_one_is_bitwise_softmax(self):
        x = np.array([1.0, 0.0, -2.5])
        assert np.array_equal(hn_forward(x, 1.0), softmax(x))

    def test_hand_value_at_alpha_two(self):
        out = hn_forward(np.array([1.0, 0.0]), 2.0)
        expected = np.array([np.e / (np.e ** 2 + 1.0), 1.0 / (np.e ** 2 + 1.0)])
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_batch_rows_are_independent(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        batched = hn_forward(x, 2.0)
        np.testing.assert_array_equal(batched[0], hn_forward(x[0], 2.0))
        np.testing.assert_array_equal(batched[1], hn_forward(x[1], 2.0))

    @given(logit_rows, head_alphas)
    def test_outputs_sum_to_head_mass(self, x, alpha):
        np.testing.assert_allclose(hn_forward(x, alpha).sum(axis=-1),
                                   head_mass(x, alpha), rtol=1e-12)

    @given(logit_rows)
    def test_alpha_one_mass_is_unity(self, x):
        np.testing.assert_allclose(head_mass(x, 1.0), 1.0, rtol=1e-12)

    def test_rejects_non_finite_logits(self):
        with pytest.raises(NonFiniteLogits):
            hn_forward(np.array([1.0, np.nan]), 2.0)

    def test_rejects_bad_alpha(self):
        for alpha, error in BAD_ALPHAS:
            with pytest.raises(error):
                hn_forward(np.array([1.0, 0.0]), alpha)


class TestIntersectionLoss:
    def test_alpha_one_equals_cross_entropy_exactly(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(scale=3.0, size=(16, 5))
        labels = rng.integers(0, 5, size=16)
        assert intersection_loss(logits, labels, 1.0) == cross_entropy_loss(logits, labels)

    def test_uniform_logits_hand_value(self):
        logits = np.zeros((2, 3))
        labels = np.array([0, 2])
        np.testing.assert_allclose(intersection_loss(logits, labels, 4.0),
                                   0.25 * np.log(3.0), rtol=1e-14)

    @given(logit_rows, label_rows, head_alphas)
    def test_shift_invariance(self, logits, labels, alpha):
        shifted = logits + 7.25
        np.testing.assert_allclose(intersection_loss(logits, labels, alpha),
                                   intersection_loss(shifted, labels, alpha),
                                   rtol=1e-10, atol=1e-10)

    @given(logit_rows, label_rows)
    def test_regularized_form_matches_collapsed_form(self, logits, labels):
        """-log p_y + (1/a) log sum p^a == -x_y + (1/a) lse(a x)."""
        alpha = 2.0
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        p = np.exp(logp)
        per_example = (-logp[np.arange(len(labels)), labels]
                       + np.log((p ** alpha).sum(axis=1)) / alpha)
        np.testing.assert_allclose(intersection_loss(logits, labels, alpha),
                                    per_example.mean(), rtol=1e-9, atol=1e-9)

    @given(logit_rows, label_rows)
    def test_loss_never_below_cross_entropy_minus_penalty_cap(self, logits, labels):
        """The mass penalty lies in [0, log(k)(a-1)/a], so the two losses
        can differ by at most the bound."""
        alpha = 4.0
        gap = (intersection_loss(logits, labels, alpha)
               - cross_entropy_loss(logits, labels))
        assert -regularizer_bound(5, alpha) - 1e-12 <= gap <= 1e-12

    def test_label_bounds_checked(self):
        with pytest.raises(LabelOutOfRange):
            intersection_loss(np.zeros((2, 3)), np.array([0, 3]), 1.0)

    def test_batch_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            intersection_loss(np.zeros((2, 3)), np.array([0, 1, 2]), 1.0)


class TestRegularizerBound:
    def test_degenerate_distribution_has_zero_penalty(self):
        logits = np.array([[80.0, 0.0, 0.0]])
        labels = np.array([0])
        gap = (intersection_loss(logits, labels, 4.0)
               - cross_entropy_loss(logits, labels))
        np.testing.assert_allclose(gap, 0.0, atol=1e-12)

    def test_uniform_distribution_attains_the_bound(self):
        logits = np.zeros((1, 3))
        labels = np.array([1])
        gap = (intersection_loss(logits, labels, 4.0)
               - cross_entropy_loss(logits, labels))
        np.testing.assert_allclose(gap, -regularizer_bound(3, 4.0), rtol=1e-14)

    @pytest.mark.parametrize("alpha, error", BAD_ALPHAS)
    def test_bound_rejects_bad_alpha(self, alpha, error):
        with pytest.raises(error):
            regularizer_bound(3, alpha)

    def test_bound_values(self):
        assert regularizer_bound(3, 1.0) == 0.0
        np.testing.assert_allclose(regularizer_bound(3, 4.0),
                                   np.log(3.0) * 0.75, rtol=1e-15)


class TestToyDataset:
    def test_shapes_and_balance(self):
        data = make_toy_dataset(seed=11)
        assert data.train_x.shape == (512, 2)
        assert data.test_x.shape == (512, 2)
        counts = np.bincount(data.train_y, minlength=3)
        assert sorted(counts.tolist()) == [170, 171, 171]

    def test_same_seed_reproduces(self):
        a = make_toy_dataset(seed=11)
        b = make_toy_dataset(seed=11)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_different_seed_differs(self):
        a = make_toy_dataset(seed=11)
        b = make_toy_dataset(seed=12)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_train_and_test_are_distinct_draws(self):
        data = make_toy_dataset(seed=11)
        assert not np.array_equal(data.train_x, data.test_x)


class TestToyNet:
    def test_same_seed_same_parameters(self):
        a, b = ToyNet(seed=5), ToyNet(seed=5)
        assert a.digest() == b.digest()
        assert ToyNet(seed=6).digest() != a.digest()

    def test_forward_shapes(self):
        net = ToyNet(seed=0)
        x = np.zeros((7, 2))
        assert net.forward(x).shape == (7, 3)
        assert net.head(x, 2.0).shape == (7, 3)

    def test_head_rows_sum_to_head_mass(self):
        net = ToyNet(seed=0)
        x = np.random.default_rng(42).normal(size=(5, 2))
        np.testing.assert_allclose(net.head(x, 4.0).sum(axis=1),
                                   head_mass(net.forward(x), 4.0), rtol=1e-12)


class TestLossAndGrads:
    def test_unknown_mode_rejected(self):
        data = make_toy_dataset(seed=11)
        with pytest.raises(RangeMismatch):
            loss_and_grads(ToyNet(seed=0), data.train_x[:4], data.train_y[:4],
                           "banana", 1.0, 0.0)

    def test_gradient_spot_check_against_finite_differences(self):
        data = make_toy_dataset(seed=11)
        x, y = data.train_x[:6], data.train_y[:6]
        rng = np.random.default_rng(42)
        for mode, alpha, lam in (("intersection", 2.0, 0.0), ("ce-l2", 1.0, 0.01)):
            net = ToyNet(seed=3)
            _, grads, _ = loss_and_grads(net, x, y, mode, alpha, lam)
            for name in net.PARAM_ORDER:
                w = net.params[name]
                flat = rng.choice(w.size, size=min(3, w.size), replace=False)
                for pos in flat:
                    i = np.unravel_index(pos, w.shape)
                    orig = float(w[i])
                    h = 1e-5
                    w[i] = orig + h
                    up = loss_and_grads(net, x, y, mode, alpha, lam)[0]
                    w[i] = orig - h
                    dn = loss_and_grads(net, x, y, mode, alpha, lam)[0]
                    w[i] = orig
                    fd = (up - dn) / (2 * h)
                    g = float(grads[name][i])
                    assert abs(fd - g) / max(1e-8, abs(fd), abs(g)) <= 1e-5

    def test_weight_penalty_excludes_biases(self):
        data = make_toy_dataset(seed=11)
        x, y = data.train_x[:4], data.train_y[:4]
        net = ToyNet(seed=3)
        _, grads_zero, _ = loss_and_grads(net, x, y, "ce-l2", 1.0, 0.0)
        _, grads_pen, _ = loss_and_grads(net, x, y, "ce-l2", 1.0, 0.5)
        np.testing.assert_array_equal(grads_zero["b2"], grads_pen["b2"])
        assert not np.array_equal(grads_zero["W2"], grads_pen["W2"])


class TestTrain:
    def small_run(self, **overrides):
        args = dict(mode="intersection", alpha=2.0, epochs=12, step=0.05,
                    seed=0, net_seed=5, data_seed=11)
        args.update(overrides)
        data = make_toy_dataset(seed=args["data_seed"])
        net = ToyNet(seed=args["net_seed"])
        return train(net, data, **args)

    def test_epoch_zero_records_the_untrained_network(self):
        report = self.small_run(epochs=3)
        fresh = ToyNet(seed=5)
        data = make_toy_dataset(seed=11)
        logits = fresh.forward(data.train_x)
        np.testing.assert_allclose(report.records[0].train_loss,
                                   intersection_loss(logits, data.train_y, 2.0),
                                   rtol=1e-12)
        assert len(report.records) == 4

    def test_loss_decreases(self):
        report = self.small_run(epochs=40)
        assert report.records[-1].train_loss < report.records[0].train_loss

    def test_regularizer_tracked_within_bound(self):
        report = self.small_run(epochs=10, alpha=4.0)
        cap = regularizer_bound(3, 4.0)
        for rec in report.records:
            assert -1e-12 <= rec.reg_term <= cap + 1e-12

    def test_same_seeds_byte_identical_reports(self):
        a = self.small_run()
        b = self.small_run()
        assert canonical_report_bytes(a) == canonical_report_bytes(b)
        assert a.final_digest == b.final_digest

    def test_minibatch_runs_reproduce_and_differ_from_full_batch(self):
        a = self.small_run(batch_size=64)
        b = self.small_run(batch_size=64)
        full = self.small_run()
        assert canonical_report_bytes(a) == canonical_report_bytes(b)
        assert a.final_digest != full.final_digest

    def test_mutates_the_passed_network(self):
        data = make_toy_dataset(seed=11)
        net = ToyNet(seed=5)
        before = net.digest()
        train(net, data, mode="intersection", alpha=2.0, epochs=1, step=0.05)
        assert net.digest() != before
