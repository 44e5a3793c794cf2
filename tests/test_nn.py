import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from helpers import assert_within_rounding, log_scale
from maxprob import (
    DimensionMismatch,
    InvalidSetting,
    LabelOutOfRange,
    NonFiniteParameter,
    NonPositiveAlpha,
    ObjectiveConfig,
    Parameterization,
    ToyNet,
    apply_parameterization,
    canonical_report_bytes,
    cross_entropy_loss,
    evaluate,
    gradient_terms,
    hn_forward,
    intersection_loss,
    loss_and_grads,
    make_distribution,
    make_toy_dataset,
    regularizer_bound,
    train,
    uniform_distribution,
)
from maxprob.errors import NonFiniteLogits
from maxprob.nn import report_to_jsonable
from maxprob.logspace import logsumexp, softmax

logit_rows = arrays(np.float64, (4, 5), elements=st.floats(-30.0, 30.0))
# rows whose shift is not calm: entries past 2**968 in size, some beside small ones
far_rows = arrays(np.float64, (4, 5), elements=st.one_of(
    st.floats(1e307, 1.7e308), st.floats(-1.7e308, -1e307), st.floats(-30.0, 30.0)))
label_rows = arrays(np.int64, (4,), elements=st.integers(0, 4))
head_alphas = st.sampled_from([0.5, 1.0, 2.0, 4.0, 16.0])
BAD_ALPHAS = ((0.0, NonPositiveAlpha), (np.inf, NonFiniteParameter),
              (-np.inf, NonFiniteParameter), (np.nan, NonFiniteParameter))


class TestHnForward:
    @given(st.one_of(logit_rows, far_rows))
    def test_alpha_one_is_bitwise_softmax(self, x):
        """At alpha 1, x - logsumexp(x) is the shifted row less its log-sum-exp, softmax's
        own log: (x - m) - lse and x - (m + lse) differ in the last bit on most rows.  A
        batch and its first row alone, which reduces in Python floats, both hold."""
        for rows in (x, x[0]):
            assert hn_forward(rows, 1.0).tobytes() == softmax(rows).tobytes()

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
        """sum exp(x) / sum exp(alpha x), in log space."""
        np.testing.assert_allclose(hn_forward(x, alpha).sum(axis=-1),
                                   np.exp(logsumexp(x, axis=-1) - logsumexp(alpha * x, axis=-1)),
                                   rtol=1e-12)

    @given(logit_rows)
    def test_alpha_one_mass_is_unity(self, x):
        np.testing.assert_allclose(hn_forward(x, 1.0).sum(axis=-1), 1.0, rtol=1e-12)

    def test_huge_alpha_is_zero_without_a_warning(self):
        """exp(x_i) / sum_j exp(alpha x_j) tends to 0 for logits above 0, and for any
        logits once x_i - logsumexp(alpha x) passes -finfo.max."""
        np.testing.assert_array_equal(hn_forward([[1.0, 2.0, 3.0]], 1e308), [[0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(hn_forward([[-1.7e308, 1e307]], 1.5), [[0.0, 0.0]])

    def test_overflowing_head_value_is_inf_without_a_warning(self):
        """At alpha 0.5, exp(2000) / exp(1000) passes finfo.max; its limit is inf.  Past
        the float range, x_i - logsumexp(alpha x) itself overflows to its limit."""
        np.testing.assert_array_equal(hn_forward([[2000.0, 0.0]], 0.5), [[np.inf, 0.0]])
        np.testing.assert_array_equal(hn_forward([[1.7e308, -1.7e308]], 0.25), [[np.inf, 0.0]])
        assert hn_forward([[1400.0, 0.0]], 0.5)[0, 0] == np.exp(700.0)  # finite, still exp

    @pytest.mark.parametrize("alpha", [2.0 ** -1000, 0.25, 0.5, 2.0, 1e308])
    def test_matches_the_masked_exp(self, alpha):
        """exp under np.errstate overflows exactly where the frozen head's mask put inf:
        on drawn rows, calm or not, and on rows (2 x, 0) at alpha 0.5, whose head value x
        lies within 2000 ulps of log(finfo.max) on either side; batched and row by row."""
        rng = np.random.default_rng(7)
        edge = float(np.log(np.finfo(float).max))
        ulps = np.nextafter(edge, np.inf) - edge
        batches = [rng.normal(0.0, scale, (40, k)) for scale in (1.0, 30.0, 1e3, 1e300)
                   for k in (1, 2, 3, 9)]
        batches.append(np.array([[2.0 * (edge + i * ulps), 0.0] for i in range(-2000, 2001)]))
        for x in batches:
            want = reference.hn_forward(x, alpha)
            assert hn_forward(x, alpha).tobytes() == want.tobytes(), (alpha, x)
            for i in range(0, len(x), 97):
                assert hn_forward(x[i], alpha).tobytes() == want[i].tobytes(), (alpha, x[i])
        if alpha == 0.5:
            assert np.isinf(want[2001:, 0]).all() and np.isfinite(want[:2001, 0]).all()

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
        """Out of range, or not integers: fractions were truncated to a class, NaN
        warned and raised an IndexError, and strings a numpy UFuncTypeError."""
        with pytest.raises(LabelOutOfRange):
            intersection_loss(np.zeros((2, 3)), np.array([0, 3]), 1.0)
        for labels in ([0.5, 1.7], [np.nan, 1.0], ["0", "1"]):
            with pytest.raises(LabelOutOfRange):
                intersection_loss([[1, 2, 0], [0, 1, 2]], labels, 2.0)

    def test_batch_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            intersection_loss(np.zeros((2, 3)), np.array([0, 1, 2]), 1.0)

    def test_tiny_alpha_overflows_to_inf_silently(self):
        """-lse / alpha overflows at alpha 1e-320; the suite makes a RuntimeWarning an error."""
        assert intersection_loss(np.array([[1.0, 2.0, 3.0]]), np.array([0]), 1e-320) == np.inf


class TestPaperObjective:
    """loss_i is minus the intersection objective of one cell: the model softmax(logits_i),
    the oracle one-hot at y_i, a uniform prior, and the cond-independent assumption."""

    @given(st.integers(2, 6), head_alphas, st.integers(1, 8), st.integers(0, 1000))
    def test_loss_and_logit_gradient(self, k, alpha, n, seed):
        data = make_toy_dataset(k=k, seed=seed)
        x, y = data.train_x[:n], data.train_y[:n]
        net = ToyNet(k=k, seed=seed)
        loss, grads, _ = loss_and_grads(net, x, y, "intersection", alpha)
        p = Parameterization.softmax_logits(k)
        config = ObjectiveConfig("intersection", "cond-independent", alpha,
                                 uniform_distribution(p.range))
        values, gradients = [], []
        for logits, label in zip(net.forward(x), y):
            model = apply_parameterization(p, logits)
            oracle = make_distribution(p.range, np.eye(k)[label])
            values.append(evaluate(config, model, oracle))
            attraction, repulsion = gradient_terms(config, model, oracle)
            gradients.append(repulsion - attraction)
        # loss_i is the difference of two terms of size |log p[y_i]|, which cancel when alpha
        # is large and y_i the likeliest class; both sides are exact only to an absolute ~1e-16.
        np.testing.assert_allclose(loss, -np.mean(values), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads["b3"], np.mean(gradients, axis=0), rtol=0, atol=1e-12)


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

    def test_bound_rejects_no_classes(self):
        with pytest.raises(InvalidSetting):
            regularizer_bound(0, 2.0)

    def test_bound_rejects_too_many_classes(self):
        with pytest.raises(InvalidSetting):
            regularizer_bound(10**11, 2.0)

    def test_bound_values(self):
        assert regularizer_bound(3, 1.0) == 0.0
        np.testing.assert_allclose(regularizer_bound(3, 4.0),
                                   np.log(3.0) * 0.75, rtol=1e-15)
        np.testing.assert_allclose(regularizer_bound(3, 0.5), -np.log(3.0), rtol=1e-15)

    def test_bound_at_extreme_alphas(self):
        """log(k) / alpha overflows at alpha 1e-320 to the correct limit, silently."""
        assert regularizer_bound(3, 1e-320) == -np.inf
        assert regularizer_bound(1000, 1e308) == np.log(1000.0)


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
    @pytest.mark.parametrize("kwargs", [dict(k=0), dict(hidden=0), dict(seed=-1),
                                        dict(k=10**11), dict(hidden=10**11)])
    def test_rejects_settings_out_of_range(self, kwargs):
        with pytest.raises(InvalidSetting):
            ToyNet(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(k=0), dict(seed=-1), dict(k=10**11)])
    def test_dataset_rejects_settings_out_of_range(self, kwargs):
        with pytest.raises(InvalidSetting):
            make_toy_dataset(**kwargs)

    def test_same_seed_same_parameters(self):
        a, b = ToyNet(seed=5), ToyNet(seed=5)
        assert a.digest() == b.digest()
        assert ToyNet(seed=6).digest() != a.digest()

    def test_forward_shapes(self):
        net = ToyNet(seed=0)
        x = np.zeros((7, 2))
        assert net.forward(x).shape == (7, 3)
        assert hn_forward(net.forward(x), 2.0).shape == (7, 3)

    def test_head_rows_sum_to_head_mass(self):
        """A head row sums to sum exp(logits) / sum exp(alpha * logits), not 1."""
        logits = ToyNet(seed=0).forward(np.random.default_rng(42).normal(size=(5, 2)))
        np.testing.assert_allclose(hn_forward(logits, 4.0).sum(axis=1),
                                   np.exp(logits).sum(axis=1) / np.exp(4.0 * logits).sum(axis=1),
                                   rtol=1e-12)


class TestLossAndGrads:
    def test_inputs_must_be_points(self):
        with pytest.raises(DimensionMismatch):
            loss_and_grads(ToyNet(seed=0), np.zeros((4, 3)), np.zeros(4, dtype=int),
                           "intersection", 2.0)

    def test_labels_must_be_integers(self):
        data = make_toy_dataset(seed=11)
        with pytest.raises(LabelOutOfRange):
            loss_and_grads(ToyNet(seed=0), data.train_x[:2], [0.0, 1.0], "intersection", 2.0)

    def test_gradients_are_fresh_arrays(self):
        """A second call leaves the first call's gradients as they were."""
        data = make_toy_dataset(seed=11)
        net = ToyNet(seed=3)
        for mode, lam in (("intersection", 0.0), ("ce-l2", 0.01)):
            grads = loss_and_grads(net, data.train_x[:4], data.train_y[:4], mode, 2.0, lam)[1]
            kept = {name: g.copy() for name, g in grads.items()}
            loss_and_grads(net, data.train_x[4:9], data.train_y[4:9], mode, 2.0, lam)
            for name, g in grads.items():
                assert g.tobytes() == kept[name].tobytes(), name

    def test_unknown_mode_rejected(self):
        data = make_toy_dataset(seed=11)
        with pytest.raises(InvalidSetting):
            loss_and_grads(ToyNet(seed=0), data.train_x[:4], data.train_y[:4],
                           "banana", 1.0, 0.0)

    @pytest.mark.parametrize("mode", ["intersection", "ce-l2"])
    def test_negative_lam_rejected(self, mode):
        data = make_toy_dataset(seed=11)
        with pytest.raises(InvalidSetting):
            loss_and_grads(ToyNet(seed=0), data.train_x[:4], data.train_y[:4], mode, 1.0, -1.0)

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
        args = dict(mode="intersection", alpha=2.0, epochs=12, step=0.05, seed=0)
        args.update(overrides)
        return train(ToyNet(seed=5), make_toy_dataset(seed=11), **args)

    def test_report_reads_the_seeds_of_the_net_and_data(self):
        report = train(ToyNet(seed=5), make_toy_dataset(seed=11), epochs=1)
        assert (report.net_seed, report.data_seed) == (5, 11)

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

    @pytest.mark.parametrize("overrides, error", [
        (dict(epochs=-1), InvalidSetting),
        (dict(batch_size=0), InvalidSetting),
        (dict(seed=-1), InvalidSetting),
        (dict(step=np.nan), NonFiniteParameter),
        (dict(step=0.0), InvalidSetting),
        (dict(step=-1.0), InvalidSetting),
        (dict(mode="ce-l2", lam=-1.0), InvalidSetting),
        (dict(lam=np.inf), NonFiniteParameter),
        (dict(mode="ce-l2", alpha=0.0), NonPositiveAlpha),
        (dict(mode="banana"), InvalidSetting),
    ])
    def test_settings_checked_before_training(self, overrides, error):
        with pytest.raises(error):
            self.small_run(**overrides)

    @pytest.mark.parametrize("numpy_settings", [
        dict(alpha=np.int64(2), step=np.float32(0.05)),
        dict(mode="ce-l2", alpha=np.float32(2.0), lam=np.float32(1e-3), step=np.float16(0.05)),
    ], ids=["intersection", "ce-l2"])
    def test_numpy_scalar_settings_report_python_floats(self, numpy_settings):
        """A numpy scalar setting trains as its Python float does, bit for bit, and the
        report carries the float: it ended in a raw TypeError from json after training."""
        python_settings = {key: value if isinstance(value, str) else float(value)
                           for key, value in numpy_settings.items()}
        nets = [ToyNet(seed=5), ToyNet(seed=5)]
        reports = [train(net, make_toy_dataset(seed=11), epochs=3, batch_size=7, **settings)
                   for net, settings in zip(nets, (numpy_settings, python_settings))]
        assert reports[0].final_digest == reports[1].final_digest
        for name in ToyNet.PARAM_ORDER:
            assert nets[0].params[name].tobytes() == nets[1].params[name].tobytes()
        assert canonical_report_bytes(reports[0]) == canonical_report_bytes(reports[1])
        assert all(type(getattr(reports[0], key)) is float for key in ("alpha", "lam", "step"))

    def test_labels_checked_against_the_network(self):
        """A dataset of another class count is a DimensionMismatch; a label outside the
        net's classes in a dataset of its count is a LabelOutOfRange."""
        with pytest.raises(DimensionMismatch):
            train(ToyNet(k=2), make_toy_dataset(k=3), epochs=1)
        data = make_toy_dataset(k=2)
        bad = dataclasses.replace(data, train_y=np.where(data.train_y == 1, 2, data.train_y))
        with pytest.raises(LabelOutOfRange):
            train(ToyNet(k=2), bad, epochs=1)

    def test_divergence_reports_non_finite_logits(self):
        with pytest.raises(NonFiniteLogits):
            self.small_run(step=1e300)

    def test_mutates_the_passed_network(self):
        data = make_toy_dataset(seed=11)
        net = ToyNet(seed=5)
        before = net.digest()
        train(net, data, mode="intersection", alpha=2.0, epochs=1, step=0.05)
        assert net.digest() != before


def float_bytes(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


LOSS_SETTINGS = [("intersection", alpha, 0.0) for alpha in (0.5, 1.0, 2.0, 4.0)] + \
    [("ce-l2", 1.0, lam) for lam in (0.0, 0.01)]
BATCH_SIZES = (None, 1, 7, 64)


class TestFlatTraining:
    """train updates one flat weight vector in place, steps through one permuted copy of
    the training set and its one-hot label rows, and records each epoch from one loss
    pass over both splits.  The per-tensor loop over fancy-indexed minibatches it
    replaced, on the backward pass and epoch metrics it replaced (tests/reference.py),
    must give the same report and weights bit for bit.  Nine classes take logspace's
    reduction across a row, three its column by column one."""

    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.parametrize("mode, alpha, lam", LOSS_SETTINGS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_matches_the_per_tensor_loop(self, k, mode, alpha, lam, batch_size):
        args = dict(mode=mode, alpha=alpha, lam=lam, epochs=3, step=0.05, seed=4,
                    batch_size=batch_size)
        net, ref_net = ToyNet(k=k, seed=5), ToyNet(k=k, seed=5)
        data = make_toy_dataset(k=k, seed=11)
        got = train(net, data, **args)
        want = reference.train_per_tensor(ref_net, data, **args)
        assert got.final_digest == want.final_digest == ref_net.digest()
        assert canonical_report_bytes(got) == canonical_report_bytes(want)
        for name in net.PARAM_ORDER:
            assert net.params[name].tobytes() == ref_net.params[name].tobytes(), name

    @pytest.mark.parametrize("k", [3, 9])
    @pytest.mark.parametrize("mode, alpha, lam", LOSS_SETTINGS)
    @pytest.mark.parametrize("size", [1, 7, 64, 512])
    def test_loss_and_grads_match_the_label_index_pass(self, k, mode, alpha, lam, size):
        """Loss, regularizer and every gradient, bit for bit."""
        data = make_toy_dataset(k=k, seed=11)
        x, y = data.train_x[:size], data.train_y[:size]
        loss, grads, reg = loss_and_grads(ToyNet(k=k, seed=3), x, y, mode, alpha, lam)
        want = reference.loss_and_grads_by_label_index(ToyNet(k=k, seed=3), x, y, mode,
                                                       alpha, lam)
        assert float_bytes([loss, reg]) == float_bytes([want[0], want[2]])
        assert sorted(grads) == sorted(want[1])
        for name, g in grads.items():
            assert g.tobytes() == want[1][name].tobytes(), name

    def test_params_are_views_of_one_vector(self):
        """After train, net.params are views into one flat weight vector."""
        net, data = ToyNet(seed=5), make_toy_dataset(seed=11)
        train(net, data, epochs=1)
        base = net.params["W1"].base
        assert base is not None and all(p.base is base for p in net.params.values())


class TestMatchesReference:
    """One loss kernel and one backward pass against the separate loss evaluations they
    replaced (tests/reference.py), within rounding: the softmax weights of logits up to
    L in size are held to rounding_bound(max(1, alpha) L), and so is everything
    computed from them."""

    @pytest.mark.parametrize("mode, alpha, lam", LOSS_SETTINGS)
    @pytest.mark.parametrize("size", [1, 7, 64, 512])
    def test_loss_regularizer_and_gradients(self, mode, alpha, lam, size):
        data = make_toy_dataset(seed=11)
        x, y = data.train_x[:size], data.train_y[:size]
        loss, grads, reg = loss_and_grads(ToyNet(seed=3), x, y, mode, alpha, lam)
        ref_loss, ref_grads, ref_reg = reference.loss_and_grads(ToyNet(seed=3), x, y, mode,
                                                                alpha, lam)
        scale = max(1.0, alpha) * log_scale(ToyNet(seed=3).forward(x))
        assert type(loss) is float and type(reg) is float
        assert_within_rounding(loss, ref_loss, scale)
        assert_within_rounding(reg, ref_reg, scale)
        assert sorted(grads) == sorted(ref_grads)
        for name, g in grads.items():
            assert_within_rounding(g, ref_grads[name], scale)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0])
    def test_public_losses(self, alpha):
        rng = np.random.default_rng(7)
        logits = rng.normal(scale=3.0, size=(16, 5))
        logits[0] = [900.0, 0.0, 0.0, 0.0, 0.0]  # a saturated row: log p[y] is exactly 0
        labels = rng.integers(0, 5, size=16)
        labels[0] = 0
        for rows in (slice(0, 1), slice(None)):
            x, y = logits[rows], labels[rows]
            scale = max(1.0, alpha) * log_scale(x)
            assert_within_rounding(intersection_loss(x, y, alpha),
                                   reference.intersection_loss(x, y, alpha), scale)
            assert_within_rounding(cross_entropy_loss(x, y),
                                   reference.cross_entropy_loss(x, y), scale)
        assert float_bytes(intersection_loss(logits[:1], labels[:1], alpha)) == float_bytes(0.0)

    @pytest.mark.parametrize("mode, alpha, lam", LOSS_SETTINGS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_training_reports(self, mode, alpha, lam, batch_size):
        """Records and final weights within rounding, everything else equal; the digest
        hashes the weights, so it is checked against the trained network."""
        args = dict(mode=mode, alpha=alpha, lam=lam, epochs=3, step=0.05, seed=4,
                    batch_size=batch_size)
        net, ref_net, data = ToyNet(seed=5), ToyNet(seed=5), make_toy_dataset(seed=11)
        got = report_to_jsonable(train(net, data, **args))
        want = reference.report_to_jsonable(reference.train(ref_net, data, net_seed=5,
                                                            data_seed=11, **args))
        # the CLI writes the report without sorting keys, so their order is output too
        assert [list(got)] + [list(r) for r in got["records"]] == \
            [list(want)] + [list(r) for r in want["records"]]
        assert got["final_digest"] == net.digest()
        for key in set(got) - {"final_digest", "records"}:
            assert got[key] == want[key], key
        scale = max(1.0, alpha) * log_scale(net.forward(data.train_x))
        assert_within_rounding([list(r.values()) for r in got["records"]],
                               [list(r.values()) for r in want["records"]], scale)
        for name in net.PARAM_ORDER:
            assert_within_rounding(net.params[name], ref_net.params[name], scale)
