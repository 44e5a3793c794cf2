"""Ragged input, non-numeric entries and non-integer settings end in a DomainError at
every entry point.

numpy rejects nested sequences of unequal lengths with a bare ValueError
("inhomogeneous shape"); the package's array boundaries raise
DimensionMismatch instead (errors.as_array).  numpy rejects a string entry
with a bare ValueError and a complex or dict entry with a bare TypeError;
the same boundaries raise NonNumericEntry, and so for a None entry, which numpy
turns into NaN, and for an int past the float range, which it rejects with a bare
OverflowError.  A count, size, seed, criterion number or reduction axis is checked
once, when it is set, by errors.require_integer: an int or a numpy integer in
[least, most], either bound optional, which comes back as a Python int.  A sharpness,
step, tolerance, difference width, penalty weight or sweep setting is checked as a
real number and comes back as a Python float (errors.require_real).  A sweep's
alphas and objectives must be collections of hashable items (InvalidSetting), and so
must an outcome range's labels and a refinement's targets (MalformedRange), all
through errors.as_labels.  A refinement's and a parameterization's ranges, like a
distribution's, may be given as label sequences.  A name (an objective's kind or
assumption, a loss mode) must be a str among its choices (errors.require_choice).  A
ToyDataset and a SweepSpec are checked where they are made, and every type that holds an
array holds it read-only (errors._read_only).
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from maxprob import (
    AscentConfig,
    AscentTrace,
    DimensionMismatch,
    DomainError,
    EmptyRange,
    FiniteDistribution,
    GradientVector,
    InvalidSetting,
    LabelOutOfRange,
    MalformedRange,
    NonFiniteEncountered,
    NonFiniteParameter,
    NonNumericEntry,
    ObjectiveConfig,
    OutcomeRange,
    Parameterization,
    RangeMismatch,
    Refinement,
    SweepCurve,
    SweepSpec,
    ToyDataset,
    ToyNet,
    alpha_skeleton,
    apply_parameterization,
    ascend,
    canonical_report_bytes,
    coarsen,
    cross_entropy_loss,
    exhaustive_bound_oracle,
    fd_gradient,
    finite_difference_check,
    gradient_at_theta,
    grid_argmax,
    hn_forward,
    intersection_loss,
    log_softmax,
    logsumexp,
    loss_and_grads,
    make_distribution,
    make_toy_dataset,
    max_probability,
    mc_gradient,
    regularizer_bound,
    run_sweep,
    soft_min,
    softmax_probability,
    train,
    uniform_distribution,
    value_at_theta,
    values_at_thetas,
)
from maxprob.acceptance import run_criterion
from maxprob.bernoulli import report_to_jsonable
from maxprob.distributions import MAX_OUTCOMES, _as_range
from maxprob.errors import as_array
from maxprob.optimize import MAX_MC_SAMPLES

COIN = OutcomeRange(("1", "0"))
UNIFORM2 = uniform_distribution(COIN)
CONFIG = ObjectiveConfig("intersection", "cond-independent", 2.0, UNIFORM2)
SIGMOID = Parameterization.sigmoid_bernoulli()
SOFTMAX2 = Parameterization.softmax_logits(COIN)
DATA = make_toy_dataset(k=3, seed=0)

entries = st.floats(-5.0, 5.0)
counts = st.integers(0, 2)


@st.composite
def ragged(draw, entry=entries):
    """A list whose items nest to unequal depths or lengths: [[a], b], [a, [b]] or rows of
    two different lengths."""
    short = draw(st.lists(entry, min_size=1, max_size=3))
    longer = draw(st.lists(entry, min_size=len(short) + 1, max_size=len(short) + 2))
    item = draw(entry)
    pair = draw(st.sampled_from([(short, item), (item, short), (short, longer),
                                 (longer, short)]))
    return list(pair)


# Each entry point with one array argument replaced by the drawn ragged list.
RAGGED_CALLS = {
    "intersection_loss rows": lambda r, labels: intersection_loss(r, [0, 1], 2.0),
    "intersection_loss labels": lambda r, labels: intersection_loss([[1.0, 2.0, 0.0],
                                                                    [0.0, 1.0, 2.0]],
                                                                   labels, 2.0),
    "cross_entropy_loss rows": lambda r, labels: cross_entropy_loss(r, [0, 1]),
    "cross_entropy_loss labels": lambda r, labels: cross_entropy_loss([[1.0, 2.0],
                                                                      [0.0, 1.0]], labels),
    "hn_forward": lambda r, labels: hn_forward(r, 2.0),
    "loss_and_grads rows": lambda r, labels: loss_and_grads(ToyNet(seed=0), r, [0, 1],
                                                            "intersection"),
    "loss_and_grads labels": lambda r, labels: loss_and_grads(
        ToyNet(seed=0), [[1.0, 2.0], [0.0, 1.0]], labels, "intersection"),
    "apply_parameterization": lambda r, labels: apply_parameterization(SOFTMAX2, r),
    "value_at_theta": lambda r, labels: value_at_theta(CONFIG, UNIFORM2, SOFTMAX2, r),
    "gradient_at_theta": lambda r, labels: gradient_at_theta(CONFIG, UNIFORM2, SOFTMAX2, r),
    "values_at_thetas": lambda r, labels: values_at_thetas(CONFIG, UNIFORM2, SOFTMAX2, r),
    "ascend": lambda r, labels: ascend(CONFIG, UNIFORM2, SOFTMAX2, r,
                                       AscentConfig(max_iters=2)),
    "mc_gradient": lambda r, labels: mc_gradient(CONFIG, UNIFORM2, SOFTMAX2, r, 10, 0),
    "logsumexp": lambda r, labels: logsumexp(r),
    "logsumexp axis": lambda r, labels: logsumexp(r, axis=-1),
    "soft_min": lambda r, labels: soft_min(r, 2.0),
    "log_softmax": lambda r, labels: log_softmax(r),
    "make_distribution": lambda r, labels: make_distribution(COIN, r),
    "FiniteDistribution": lambda r, labels: FiniteDistribution(COIN, r),
    "from_logp": lambda r, labels: FiniteDistribution.from_logp(COIN, r),
    "fd_gradient": lambda r, labels: fd_gradient(lambda theta: 0.0, r),
    "grid_argmax grid": lambda r, labels: grid_argmax(lambda grid: grid, r),
    "grid_argmax values": lambda r, labels: grid_argmax(lambda grid: r, [0.0, 1.0]),
    "exhaustive_bound_oracle": lambda r, labels: exhaustive_bound_oracle(
        r, ["1", "0"], UNIFORM2),
    "GradientVector d_logp": lambda r, labels: GradientVector(r),
    "GradientVector d_theta": lambda r, labels: GradientVector([0.0], r),
    "AscentTrace": lambda r, labels: AscentTrace(r, [0.0], [0.0], "max_iters"),
    "SweepCurve thetas": lambda r, labels: SweepCurve("likelihood", 1.0, r, [0.0], 0, 0.0),
    "SweepCurve values": lambda r, labels: SweepCurve("likelihood", 1.0, [0.0], r, 0, 0.0),
    "ToyDataset points": lambda r, labels: ToyDataset(r, [0, 1], [[0.0, 0.0]], [0], 3, 0),
    "ToyDataset labels": lambda r, labels: ToyDataset([[0.0, 0.0], [1.0, 1.0]], labels,
                                                      [[0.0, 0.0]], [0], 3, 0),
}


class TestRaggedInput:
    @given(st.sampled_from(sorted(RAGGED_CALLS)), ragged(), ragged(counts))
    def test_is_a_dimension_mismatch(self, name, rows, labels):
        with pytest.raises(DimensionMismatch):
            RAGGED_CALLS[name](rows, labels)


# Arrays with one entry that is no real number: a string, a complex number, a dict, None.
NON_NUMERIC = [["a", "b"], [1j, 2.0], [[1.0, "x"], [0.0, 1.0]], [[0.5, 0.5], [{"a": 1}, 0.0]],
               [None, 1.0], [[0.5, 0.5], [None, 0.0]]]


class TestNonNumericEntries:
    @pytest.mark.parametrize("rows", NON_NUMERIC, ids=repr)
    @pytest.mark.parametrize("name", [name for name in sorted(RAGGED_CALLS)
                                      if not name.endswith("labels")])
    def test_is_a_non_numeric_entry(self, name, rows):
        """Labels are read as given, so a non-numeric one is a LabelOutOfRange (nn)."""
        with pytest.raises(NonNumericEntry):
            RAGGED_CALLS[name](rows, [0, 1])

    @pytest.mark.parametrize("call", [lambda: logsumexp(["a", "b"]),
                                      lambda: make_distribution(["x", "y"], ["a", "b"]),
                                      lambda: logsumexp([1j, 2])])
    def test_code_names_the_problem(self, call):
        with pytest.raises(NonNumericEntry) as info:
            call()
        assert info.value.code == "NonNumericEntry"
        assert "must be real numbers" in str(info.value)

    @pytest.mark.parametrize("call", [lambda: logsumexp([None, 1.0]),
                                      lambda: log_softmax([None, 0.0]),
                                      lambda: make_distribution(OutcomeRange(("a", "b")),
                                                                [None, 1.0]),
                                      lambda: logsumexp(None),
                                      lambda: logsumexp(np.array([None, 1.0], dtype=object))])
    def test_none_is_no_real_number(self, call):
        """numpy turns None into NaN, which was a NonFiniteEncountered."""
        with pytest.raises(NonNumericEntry):
            call()

    @pytest.mark.parametrize("call", [lambda: make_distribution(("a",), [10 ** 400]),
                                      lambda: logsumexp([0.0, -10 ** 400]),
                                      lambda: log_softmax([[10 ** 400, 0.0]])])
    def test_int_past_the_float_range(self, call):
        """numpy's conversion raised a raw OverflowError."""
        with pytest.raises(NonNumericEntry, match="within the float range"):
            call()

    def test_nan_entry_is_still_non_finite(self):
        for entries in ([np.nan, 1.0], np.array([np.nan, 1.0], dtype=np.float32)):
            with pytest.raises(NonFiniteEncountered):
                logsumexp(entries)

    def test_float_array_passes_unlooked_at(self):
        x = np.array([np.nan, 1.0])
        assert as_array(x) is x


class TestResultTypes:
    """GradientVector and AscentTrace converted their arrays with a bare np.asarray: None
    became a silent NaN, and text or ragged nesting ended in a raw ValueError (see
    RAGGED_CALLS for the arrays)."""

    def test_text_is_no_array(self):
        with pytest.raises(NonNumericEntry):
            GradientVector([0.0], "x")

    def test_float_arrays_are_kept_uncopied(self):
        a, b, c = np.zeros((2, 1)), np.zeros(2), np.ones(2)
        g = GradientVector(b, c)
        trace = AscentTrace(a, b, c, "max_iters")
        assert g.d_logp is b and g.d_theta is c
        assert trace.thetas is a and trace.values is b and trace.grad_norms is c

    def test_lists_are_arrays(self):
        """A ToyDataset or SweepCurve of lists ended in a raw AttributeError ("'list'
        object has no attribute 'setflags'")."""
        data = ToyDataset([[0.0, 0.0]], [0], [[1.0, 1.0]], [0], 1, 0)
        assert data.train_x.shape == (1, 2) and data.test_y.dtype.kind == "i"
        curve = SweepCurve("likelihood", 1.0, [-1.0, 0.0], [0.0, 2.0], 1, 0.0)
        assert (curve.argmax_theta, curve.argmax_value) == (0.0, 2.0)

    def test_toy_dataset_copies_its_points(self):
        """The dataset froze the caller's arrays; it holds copies, which train trusts."""
        x, y = np.zeros((2, 2)), np.array([0, 1])
        data = ToyDataset(x, y, x, y, 2, 0)
        assert x.flags.writeable and y.flags.writeable
        x[0, 0], y[0] = 1.0, 1
        assert data.train_x[0, 0] == 0.0 and data.train_y[0] == 0

    @pytest.mark.parametrize("build, names", [
        (lambda: FiniteDistribution(COIN, [0.0, -np.inf]), ("logp",)),
        (lambda: GradientVector([0.0, 0.0], [1.0]), ("d_logp", "d_theta")),
        (lambda: AscentTrace([[0.0]], [0.0], [0.0], "max_iters"),
         ("thetas", "values", "grad_norms")),
        (lambda: SweepCurve("likelihood", 1.0, [0.0], [0.0], 0, 0.0), ("thetas", "values")),
        (lambda: ToyDataset([[0.0, 0.0]], [0], [[1.0, 1.0]], [0], 1, 0),
         ("train_x", "train_y", "test_x", "test_y")),
    ], ids=["FiniteDistribution", "GradientVector", "AscentTrace", "SweepCurve", "ToyDataset"])
    def test_every_held_array_is_read_only(self, build, names):
        held = build()
        for name in names:
            with pytest.raises(ValueError, match="read-only"):
                getattr(held, name)[0] = 1


class TestShapes:
    @pytest.mark.parametrize("grid", [[[0.0, 1.0]], [[0.0], [1.0]], 0.5, []], ids=repr)
    def test_grid_argmax_takes_a_1d_grid(self, grid):
        with pytest.raises(DimensionMismatch):
            grid_argmax(lambda g: np.zeros_like(g), grid)

    @pytest.mark.parametrize("net_k, data_k", [(3, 2), (2, 3)])
    def test_train_needs_the_nets_class_count(self, net_k, data_k):
        with pytest.raises(DimensionMismatch):
            train(ToyNet(k=net_k, seed=0), make_toy_dataset(k=data_k, seed=0), epochs=1)

    @pytest.mark.parametrize("data", [None, (DATA.train_x, DATA.train_y)], ids=["None", "tuple"])
    def test_train_data_is_a_toy_dataset(self, data):
        """None ended in a raw AttributeError ("'NoneType' object has no attribute 'k'")."""
        with pytest.raises(InvalidSetting, match="data must be a ToyDataset"):
            train(ToyNet(seed=0), data, epochs=1)

    @pytest.mark.parametrize("change, error", [
        ({"k": "3"}, InvalidSetting),
        ({"train_y": DATA.train_y + 1}, LabelOutOfRange),
        ({"test_x": np.zeros((len(DATA.test_y), 3))}, DimensionMismatch),
    ], ids=["k text", "label k", "3 columns"])
    def test_toy_dataset_is_checked_where_it_is_made(self, change, error):
        """A bad dataset constructed, and raised only in train (or, for k = "3", ran)."""
        with pytest.raises(error):
            dataclasses.replace(DATA, **change)

    @pytest.mark.parametrize("call, error", [
        (lambda: Refinement(["a", "b"], ["x"], ["x"]), DimensionMismatch),
        (lambda: exhaustive_bound_oracle([0.5, 0.5], ["1"], UNIFORM2), LabelOutOfRange),
    ], ids=["refinement targets", "oracle variable_map"])
    def test_one_label_per_outcome(self, call, error):
        with pytest.raises(error):
            call()


# Each integer setting, set to the drawn value with every other argument valid.
SETTINGS = {
    "AscentConfig max_iters": lambda v: AscentConfig(max_iters=v),
    "Parameterization dim": lambda v: Parameterization(v, COIN),
    "softmax_logits outcome count": lambda v: Parameterization.softmax_logits(v),
    "mc_gradient n_samples": lambda v: mc_gradient(CONFIG, UNIFORM2, SIGMOID, 0.0, v, 0),
    "mc_gradient seed": lambda v: mc_gradient(CONFIG, UNIFORM2, SIGMOID, 0.0, 10, v),
    "train epochs": lambda v: train(ToyNet(seed=0), DATA, epochs=v),
    "train batch_size": lambda v: train(ToyNet(seed=0), DATA, epochs=1, batch_size=v),
    "train seed": lambda v: train(ToyNet(seed=0), DATA, epochs=1, seed=v),
    "ToyNet k": lambda v: ToyNet(k=v),
    "ToyNet hidden": lambda v: ToyNet(hidden=v),
    "ToyNet seed": lambda v: ToyNet(seed=v),
    "make_toy_dataset k": lambda v: make_toy_dataset(k=v),
    "make_toy_dataset seed": lambda v: make_toy_dataset(seed=v),
    "ToyDataset k": lambda v: dataclasses.replace(DATA, k=v),
    "ToyDataset seed": lambda v: dataclasses.replace(DATA, seed=v),
    "regularizer_bound k": lambda v: regularizer_bound(v, 2.0),
    "run_criterion number": lambda v: run_criterion(v),
}

non_integers = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(1, 5).map(float),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.integers(1, 5).map(lambda n: [n]),
    st.integers(1, 5).map(np.array),  # a 0-d array is no integer either
)


class TestIntegerSettings:
    @given(st.sampled_from(sorted(SETTINGS)), non_integers)
    def test_non_integer_is_a_domain_error(self, name, value):
        """InvalidSetting, or DimensionMismatch for a parameterization's size."""
        assume(value is not None or name != "train batch_size")  # None is the full batch
        # text and lists are label sequences there (TestCollections)
        assume(not isinstance(value, (str, list)) or name != "softmax_logits outcome count")
        error = DimensionMismatch if name.startswith(("Param", "softmax")) else InvalidSetting
        with pytest.raises(error):
            SETTINGS[name](value)

    @pytest.mark.parametrize("name", ["mc_gradient seed", "ToyNet seed", "train seed",
                                      "make_toy_dataset seed", "ToyDataset seed"])
    def test_negative_seed_is_invalid(self, name):
        with pytest.raises(InvalidSetting):
            SETTINGS[name](-1)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integers_give_what_ints_give(self, integer):
        assert ascend(CONFIG, UNIFORM2, SIGMOID, 0.3,
                      AscentConfig(max_iters=integer(3))).iterations == 3
        assert Parameterization(integer(1), COIN) == Parameterization(1, COIN)
        assert Parameterization.softmax_logits(integer(3)) == Parameterization.softmax_logits(3)
        want = mc_gradient(CONFIG, UNIFORM2, SIGMOID, 0.3, 50, 7).d_logp
        got = mc_gradient(CONFIG, UNIFORM2, SIGMOID, 0.3, integer(50), integer(7)).d_logp
        assert got.tobytes() == want.tobytes()
        assert (make_toy_dataset(k=integer(3), seed=integer(2)).train_x.tobytes()
                == make_toy_dataset(k=3, seed=2).train_x.tobytes())
        net, same = ToyNet(k=integer(3), hidden=integer(4), seed=integer(1)), ToyNet(3, 4, 1)
        assert net.digest() == same.digest()
        reports = [train(n, DATA, epochs=e, batch_size=b, seed=s)
                   for n, e, b, s in ((net, integer(2), integer(64), integer(3)),
                                      (same, 2, 64, 3))]
        assert reports[0].final_digest == reports[1].final_digest
        assert regularizer_bound(integer(3), 2.0) == regularizer_bound(3, 2.0)

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    def test_numpy_integer_dataset_settings_serialize(self, integer):
        """A dataset's numpy k and seed reached the report, and canonical_report_bytes
        ended in a raw TypeError from json after training."""
        data = dataclasses.replace(DATA, k=integer(3), seed=integer(0))
        assert (canonical_report_bytes(train(ToyNet(seed=0), data, epochs=1))
                == canonical_report_bytes(train(ToyNet(seed=0), DATA, epochs=1)))

    @pytest.mark.parametrize("n_samples", [10 ** 30, MAX_MC_SAMPLES + 1], ids=repr)
    def test_sample_count_is_capped(self, n_samples):
        """10**30 ended in numpy's raw ValueError ("Maximum allowed dimension exceeded"), and
        a count that fits would allocate that many floats; the cap is checked first."""
        with pytest.raises(InvalidSetting, match=f"at most {MAX_MC_SAMPLES}"):
            SETTINGS["mc_gradient n_samples"](n_samples)

    @pytest.mark.parametrize("n", [10 ** 9, MAX_OUTCOMES + 1], ids=repr)
    def test_outcome_count_is_capped(self, n):
        """softmax_logits(n) built n labels before any check, 0.65 s at n = 10**6; the cap
        is checked first.  With range shadowed, a count past the cap that reached the
        labels fails at once instead of allocating them."""
        with mock.patch("maxprob.distributions.range", create=True,
                        side_effect=AssertionError("labels built")):
            with pytest.raises(DimensionMismatch, match=f"at most {MAX_OUTCOMES}"):
                Parameterization.softmax_logits(n)

    @pytest.mark.parametrize("number", [0, 13, -1, 1.0, True, np.float64(2.0)], ids=repr)
    def test_criterion_number_is_an_integer_from_1_to_12(self, number):
        """run_criterion(1.0) ended in a raw TypeError ("tuple indices must be integers"),
        and run_criterion(True) ran criterion 1."""
        with pytest.raises(InvalidSetting, match="1-12"):
            run_criterion(number)


# An axis out of range ended in numpy's raw AxisError, and one that is no integer in a raw
# TypeError; a 0-d input has no axis.
AXIS_CALLS = {
    "logsumexp": lambda a, axis: logsumexp(a, axis=axis),
    "soft_min": lambda a, axis: soft_min(a, 2.0, axis=axis),
}
BAD_AXES = [([1.0, 2.0], 3), ([1.0, 2.0], 1), ([1.0, 2.0], -2), ([[1.0, 2.0]], 2),
            ([[1.0, 2.0]], -3), (3.0, 0), (3.0, -1), ([[1.0, 2.0]], 1.5), ([[1.0, 2.0]], "x"),
            ([[1.0, 2.0]], True), ([[1.0, 2.0]], (0, 1))]


class TestAxis:
    @pytest.mark.parametrize("a, axis", BAD_AXES, ids=repr)
    @pytest.mark.parametrize("name", sorted(AXIS_CALLS))
    def test_bad_axis_is_a_dimension_mismatch(self, name, a, axis):
        with pytest.raises(DimensionMismatch, match="axis must be"):
            AXIS_CALLS[name](a, axis)

    @given(st.sampled_from(sorted(AXIS_CALLS)), non_integers)
    def test_non_integer_axis_is_a_dimension_mismatch(self, name, axis):
        assume(axis is not None)  # None reduces the raveled input
        with pytest.raises(DimensionMismatch):
            AXIS_CALLS[name](np.zeros((2, 3)), axis)

    @pytest.mark.parametrize("name", sorted(AXIS_CALLS))
    def test_every_axis_in_range_reduces(self, name):
        a = np.arange(6.0).reshape(2, 3)
        for axis, shape in ((0, (3,)), (1, (2,)), (-1, (2,)), (-2, (3,))):
            got = AXIS_CALLS[name](a, axis)
            assert got.shape == shape
            assert got.tobytes() == AXIS_CALLS[name](a, np.int64(axis)).tobytes()


# Each real setting, set to the drawn value with every other argument valid.
REAL_SETTINGS = {
    "train alpha": lambda v: train(ToyNet(seed=0), DATA, epochs=1, alpha=v),
    "train step": lambda v: train(ToyNet(seed=0), DATA, epochs=1, step=v),
    "train lam": lambda v: train(ToyNet(seed=0), DATA, mode="ce-l2", epochs=1, lam=v),
    "loss_and_grads alpha": lambda v: loss_and_grads(ToyNet(seed=0), DATA.train_x[:2],
                                                     DATA.train_y[:2], "intersection", v),
    "loss_and_grads lam": lambda v: loss_and_grads(ToyNet(seed=0), DATA.train_x[:2],
                                                   DATA.train_y[:2], "ce-l2", 1.0, v),
    "intersection_loss alpha": lambda v: intersection_loss([[1.0, 0.0]], [0], v),
    "hn_forward alpha": lambda v: hn_forward([1.0, 0.0], v),
    "regularizer_bound alpha": lambda v: regularizer_bound(3, v),
    "soft_min alpha": lambda v: soft_min([1.0, 0.0], v),
    "softmax_probability alpha": lambda v: softmax_probability(UNIFORM2, UNIFORM2, v),
    "ObjectiveConfig alpha": lambda v: ObjectiveConfig("intersection", "cond-independent", v,
                                                       UNIFORM2),
    "alpha_skeleton alpha": lambda v: alpha_skeleton(UNIFORM2, v),
    "AscentConfig step_size": lambda v: AscentConfig(step_size=v),
    "AscentConfig grad_tol": lambda v: AscentConfig(grad_tol=v),
    "fd_gradient h": lambda v: fd_gradient(lambda theta: 0.0, [1.0], v),
    "finite_difference_check h": lambda v: finite_difference_check(CONFIG, UNIFORM2, SIGMOID,
                                                                   [0.5], v),
    "SweepSpec theta_star": lambda v: SweepSpec(v),
    "SweepSpec grid_min": lambda v: SweepSpec(0.0, grid_min=v),
    "SweepSpec grid_max": lambda v: SweepSpec(0.0, grid_max=v),
    "SweepSpec grid_step": lambda v: SweepSpec(0.0, grid_step=v),
}

non_reals = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=2),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.floats(0.5, 4.0).map(lambda x: np.array([x])),
    st.floats(0.5, 4.0).map(np.array),  # a 0-d array is no scalar either
    st.floats(0.5, 4.0).map(lambda x: [x]),
)


class TestRealSettings:
    """A str, None, complex or array setting ended in a raw TypeError from math.isfinite,
    and True trained and reported "alpha": true.  SweepSpec took a str theta_star and
    echoed it into the summary, and read theta_star None as a NonNumericEntry."""

    @given(st.sampled_from(sorted(REAL_SETTINGS)), non_reals)
    def test_non_real_is_an_invalid_setting(self, name, value):
        with pytest.raises(InvalidSetting, match="must be a real number"):
            REAL_SETTINGS[name](value)

    @pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
    @pytest.mark.parametrize("value", [1, 0.5, np.int64(1), np.float64(0.5), np.float32(0.5)],
                             ids=repr)
    def test_ints_floats_and_numpy_scalars_are_real(self, name, value):
        REAL_SETTINGS[name](value)

    @pytest.mark.parametrize("name", [name for name in sorted(REAL_SETTINGS)
                                      if name.endswith("alpha")])
    def test_float32_alpha_above_1_is_quiet(self, name):
        """The calm test of logspace._shifted computes finfo(float).max / (4 * alpha), which
        a float32 alpha kept in float32 and overflowed with a RuntimeWarning; each entry
        point now computes with the float its check returns."""
        REAL_SETTINGS[name](np.float32(2.0))

    @pytest.mark.parametrize("name", sorted(REAL_SETTINGS))
    def test_int_past_the_float_range_is_non_finite(self, name):
        """math.isfinite raised a raw OverflowError, for AscentConfig(step_size=10**400) and
        SweepSpec(10**400) among others."""
        with pytest.raises(NonFiniteParameter, match="must be finite"):
            REAL_SETTINGS[name](10 ** 400)

    def test_numpy_scalar_sweep_settings_serialize(self):
        """A numpy scalar theta_star, grid bound or alpha ran, and its summary then ended in
        a raw TypeError from json; the spec keeps each as a Python float."""
        spec = SweepSpec(np.int64(1), grid_min=np.int64(-2), grid_max=np.float32(2.0),
                         grid_step=np.float64(0.5), alphas=(np.int64(2), np.float32(4.0)))
        assert all(type(getattr(spec, name)) is float
                   for name in ("theta_star", "grid_min", "grid_max", "grid_step"))
        want = run_sweep(SweepSpec(1.0, grid_min=-2.0, grid_max=2.0, grid_step=0.5,
                                   alphas=(2.0, 4.0)))
        assert (json.dumps(report_to_jsonable(run_sweep(spec)))
                == json.dumps(report_to_jsonable(want)))


class TestCollections:
    """A sweep's alphas or objectives, or an outcome range, that is no collection ended in
    a raw TypeError ("... is not iterable"), and so did an unhashable label or target."""

    @pytest.mark.parametrize("setting", [{"alphas": None}, {"alphas": 2.0},
                                         {"objectives": None}], ids=repr)
    def test_sweep_setting_is_an_invalid_setting(self, setting):
        with pytest.raises(InvalidSetting, match="must be a collection"):
            SweepSpec(0.5, **setting)

    def test_outcome_range_of_none(self):
        with pytest.raises(MalformedRange):
            OutcomeRange(None)

    def test_outcome_range_of_unhashable_labels(self):
        with pytest.raises(MalformedRange):
            OutcomeRange(([1], [2]))

    def test_uniform_distribution_of_a_number(self):
        with pytest.raises(MalformedRange):
            uniform_distribution(3)

    @pytest.mark.parametrize("call", [lambda: make_distribution(5, [1.0]),
                                      lambda: FiniteDistribution(5, [0.0]),
                                      lambda: FiniteDistribution.from_logp(5, [0.0])],
                             ids=["make_distribution", "FiniteDistribution", "from_logp"])
    def test_distribution_over_a_number(self, call):
        """The constructor and from_logp read only len(rng): a number ended in a raw
        TypeError ("object of type 'int' has no len()")."""
        with pytest.raises(MalformedRange):
            call()

    @pytest.mark.parametrize("build", [FiniteDistribution, FiniteDistribution.from_logp],
                             ids=["FiniteDistribution", "from_logp"])
    def test_distribution_over_a_label_sequence(self, build):
        """A tuple of labels stayed a tuple, and the first range comparison ended in a raw
        AttributeError ("'tuple' object has no attribute 'labels'")."""
        d = build(("a", "b"), np.log([0.5, 0.5]))
        assert d.range == OutcomeRange(("a", "b"))
        got = max_probability(d, make_distribution(["a", "b"], [0.9, 0.1]))
        want = max_probability(uniform_distribution(("a", "b")),
                               make_distribution(["a", "b"], [0.9, 0.1]))
        assert got == want

    @pytest.mark.parametrize("variable_map", [None, 3, (["1"], ["0"])], ids=repr)
    def test_oracle_variable_map_of_no_labels(self, variable_map):
        """A variable_map that is no collection ended in a raw TypeError from len()."""
        with pytest.raises(LabelOutOfRange, match="variable_map must be a collection"):
            exhaustive_bound_oracle([0.5, 0.5], variable_map, UNIFORM2)

    @pytest.mark.parametrize("targets", [(["c"], ["c"]), None], ids=repr)
    def test_refinement_of_unhashable_targets(self, targets):
        """Unhashable targets ended in a raw TypeError from the coarse-range lookup."""
        with pytest.raises(MalformedRange):
            Refinement(OutcomeRange(("a", "b")), OutcomeRange(("c",)), targets)

    def test_refinement_onto_a_label_sequence(self):
        """A coarse tuple stayed a tuple, and the target lookup ended in a raw
        AttributeError ("'tuple' object has no attribute 'labels'")."""
        r = Refinement(OutcomeRange(("a", "b")), ("c",), ("c", "c"))
        assert r.coarse == OutcomeRange(("c",))

    def test_refinement_from_a_label_sequence(self):
        """A fine tuple stayed a tuple, and coarsen reported a RangeMismatch for a
        distribution over those very labels."""
        r = Refinement(("a", "b"), OutcomeRange(("c",)), ("c", "c"))
        assert r.fine == OutcomeRange(("a", "b"))
        coarse = coarsen(make_distribution(("a", "b"), [0.25, 0.75]), r)
        assert coarse.range == OutcomeRange(("c",)) and coarse.logp.tolist() == [0.0]

    @pytest.mark.parametrize("call", [lambda: Refinement(5, ("c",), ("c",)),
                                      lambda: Refinement(("a",), 5, ("c",)),
                                      lambda: Parameterization(2, 5),
                                      lambda: Parameterization.sigmoid_bernoulli(5)],
                             ids=["refinement fine", "refinement coarse", "parameterization",
                                  "sigmoid_bernoulli"])
    def test_range_of_a_number(self, call):
        """A number ended in a raw TypeError ("object of type 'int' has no len()")."""
        with pytest.raises(MalformedRange):
            call()

    @given(st.one_of(st.text(max_size=2), st.integers(1, 5).map(lambda n: [n]),
                     st.just(("a", "b"))))
    def test_softmax_logits_over_a_label_sequence(self, labels):
        """A label sequence was taken for a count and ended in DimensionMismatch ("outcome
        count must be an integer"); it is a range, as _as_range makes one, or its error."""
        try:
            rng = _as_range(labels)
        except DomainError as exc:
            with pytest.raises(type(exc)):
                Parameterization.softmax_logits(labels)
        else:
            assert Parameterization.softmax_logits(labels) == Parameterization(len(rng), rng)

    def test_softmax_logits_over_empty_text(self):
        with pytest.raises(EmptyRange):
            Parameterization.softmax_logits("")

    def test_ascent_over_a_label_sequence(self):
        """A sigmoid family over a list of labels kept the list, and ascend's range check
        ended in a raw AttributeError."""
        p = Parameterization.sigmoid_bernoulli(["1", "0"])
        assert p == SIGMOID
        cfg = AscentConfig(max_iters=5)
        oracle = make_distribution(COIN, [0.7, 0.3])
        want = ascend(CONFIG, oracle, SIGMOID, [0.0], cfg)
        assert ascend(CONFIG, oracle, p, [0.0], cfg).thetas.tobytes() == want.thetas.tobytes()


class TestChoices:
    """A name given as an array ended in a raw ValueError ("The truth value of an array
    with more than one element is ambiguous") from its `not in` check."""

    @pytest.mark.parametrize("call", [
        lambda: ObjectiveConfig(np.array(["likelihood", "x"]), "cond-independent", 1.0, UNIFORM2),
        lambda: ObjectiveConfig("likelihood", np.array(["cond-independent", "x"]), 1.0,
                                UNIFORM2),
        lambda: SweepSpec(0.5, assumption=np.array([1, 2])),
        lambda: train(ToyNet(k=3, hidden=4, seed=0), DATA, mode=np.array([1, 2]), epochs=1),
        lambda: loss_and_grads(ToyNet(k=3, hidden=4, seed=0), DATA.train_x[:4],
                               DATA.train_y[:4], mode=np.array(["a", "b"])),
    ], ids=["kind", "assumption", "sweep assumption", "train mode", "loss_and_grads mode"])
    def test_array_name_is_an_invalid_setting(self, call):
        with pytest.raises(InvalidSetting, match="must be one of"):
            call()


class TestObjectivePrior:
    """A prior that is no distribution was kept as it was: a config constructed, and its
    first evaluate ended in a raw AttributeError ("... has no attribute 'logp'")."""

    @pytest.mark.parametrize("call", [
        lambda: ObjectiveConfig("likelihood", "cond-independent", 1.0, None),
        lambda: ObjectiveConfig("likelihood", "cond-independent", 1.0, "prior.json"),
        lambda: SweepSpec(1.0, prior="x"),
    ], ids=["None", "a path", "sweep prior"])
    def test_is_an_invalid_setting(self, call):
        with pytest.raises(InvalidSetting, match="prior must be a FiniteDistribution"):
            call()

    def test_sweep_prior_on_another_range(self):
        """The spec constructed, and run_sweep raised the RangeMismatch."""
        with pytest.raises(RangeMismatch, match="identical outcome ranges"):
            SweepSpec(1.0, prior=uniform_distribution(("x", "y")))
