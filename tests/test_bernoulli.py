import csv
import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from maxprob import (
    InvalidSetting,
    NonFiniteParameter,
    NonPositiveAlpha,
    ObjectiveConfig,
    OutcomeRange,
    Parameterization,
    RangeMismatch,
    SweepSpec,
    apply_parameterization,
    evaluate,
    make_distribution,
    max_probability,
    run_sweep,
    theta_grid,
    uniform_distribution,
    uniqueness_diagnostic,
)
from maxprob import cli
from maxprob.bernoulli import MAX_GRID_POINTS, PLATEAU_RUN, SweepCurve, report_to_jsonable

LOG9 = 2.1972245773362196


def small_spec(**overrides) -> SweepSpec:
    base = dict(theta_star=LOG9, grid_min=-4.0, grid_max=4.0, grid_step=0.05,
                alphas=(1.0, 2.0), objectives=("likelihood", "intersection"))
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_rejects_bad_objective(self):
        with pytest.raises(InvalidSetting):
            small_spec(objectives=("banana",))

    def test_rejects_non_positive_alpha(self):
        for alpha, error in ((0.0, NonPositiveAlpha), (np.inf, NonFiniteParameter),
                             (np.nan, NonFiniteParameter)):
            with pytest.raises(error):
                small_spec(alphas=(1.0, alpha))

    def test_rejects_bad_assumption(self):
        with pytest.raises(InvalidSetting):
            small_spec(assumption="banana")

    def test_rejects_degenerate_grid(self):
        with pytest.raises(InvalidSetting):
            small_spec(grid_min=1.0, grid_max=-1.0)

    @pytest.mark.parametrize("grid", [dict(grid_min=-np.inf), dict(grid_max=np.inf),
                                      dict(grid_step=np.nan), dict(grid_min=np.nan),
                                      dict(grid_step=np.inf)])
    def test_rejects_non_finite_grid(self, grid):
        with pytest.raises(NonFiniteParameter):
            small_spec(**grid)

    @pytest.mark.parametrize("grid", [dict(grid_step=0.0), dict(grid_step=-0.5),
                                      dict(grid_min=4.0), dict(grid_step=1e-300),
                                      dict(grid_min=-1e308, grid_max=1e308),
                                      dict(grid_min=0.0, grid_max=float(MAX_GRID_POINTS),
                                           grid_step=1.0),
                                      dict(grid_min=0.0, grid_max=1.7e308, grid_step=1e308)])
    def test_rejects_empty_or_oversized_grid(self, grid):
        """The span of -1e308 to 1e308 overflows; the next grid has MAX_GRID_POINTS + 1;
        the last rounds 1.7 steps to 2, so its last point 2e308 overflows."""
        with pytest.raises(InvalidSetting):
            small_spec(**grid)

    @pytest.mark.parametrize("empty", [dict(objectives=()), dict(alphas=())])
    def test_rejects_no_curves(self, empty):
        with pytest.raises(InvalidSetting):
            small_spec(**empty)
        with pytest.raises(InvalidSetting):
            SweepSpec(theta_star=0.0, **empty)

    def test_accepts_the_largest_grid(self):
        spec = small_spec(grid_min=0.0, grid_max=MAX_GRID_POINTS - 1.0, grid_step=1.0)
        assert len(theta_grid(spec)) == MAX_GRID_POINTS


class TestThetaGrid:
    def test_count_and_endpoints(self):
        grid = theta_grid(small_spec())
        assert len(grid) == 161
        assert grid[0] == -4.0
        np.testing.assert_allclose(grid[-1], 4.0, atol=1e-12)

    def test_no_cumulative_drift(self):
        grid = theta_grid(SweepSpec(theta_star=0.0))
        assert len(grid) == 1601
        np.testing.assert_allclose(grid[800], 0.0, atol=1e-12)


class TestRunSweep:
    def test_schema_and_row_count(self, capsys):
        """The CLI's CSV of small_spec: one row per (curve, theta), all finite."""
        assert cli.dispatch(["sweep-bernoulli", "--theta-star", repr(LOG9), "--grid-min", "-4",
                             "--grid-max", "4", "--grid-step", "0.05", "--alphas", "1,2"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["objective", "assumption", "alpha", "theta", "value"]
        assert len(rows) == 2 * 2 * 161
        assert rows[0][:4] == ["likelihood", "cond-independent", "1.0", "-4.0"]
        assert np.all(np.isfinite([float(row[4]) for row in rows]))

    def test_prior_on_another_range_is_rejected_before_any_curve(self):
        """The grid's model and its checks come once per sweep, before any curve."""
        prior = make_distribution(OutcomeRange(("x", "y")), [0.5, 0.5])
        for objectives in (("likelihood",), ("intersection",)):
            with pytest.raises(RangeMismatch):
                run_sweep(small_spec(objectives=objectives, prior=prior))

    def test_likelihood_curve_ignores_alpha(self):
        report = run_sweep(small_spec())
        lik = [c for c in report.curves if c.objective == "likelihood"]
        np.testing.assert_array_equal(lik[0].values, lik[1].values)

    def test_intersection_value_rises_with_alpha(self):
        report = run_sweep(small_spec())
        inter = {c.alpha: c for c in report.curves if c.objective == "intersection"}
        assert np.all(inter[2.0].values >= inter[1.0].values - 1e-12)

    def test_likelihood_maximum_sits_on_the_boundary(self):
        report = run_sweep(small_spec(objectives=("likelihood",)))
        for curve in report.curves:
            assert curve.argmax_index == len(curve.thetas) - 1
            assert uniqueness_diagnostic(curve) == "boundary-max"

    def test_intersection_alpha2_recovers_theta_star_interior(self):
        report = run_sweep(small_spec(objectives=("intersection",), alphas=(2.0,),
                                      grid_step=0.01))
        curve = report.curves[0]
        assert uniqueness_diagnostic(curve) == "unique-interior-max"
        assert abs(curve.argmax_theta - LOG9) <= 0.005 + 1e-9

    def test_extreme_alpha_meets_the_hard_bound_pointwise(self):
        spec = small_spec(objectives=("intersection",), alphas=(50000.0,),
                          grid_step=0.5)
        curve = run_sweep(spec).curves[0]
        p = Parameterization.sigmoid_bernoulli()
        prior = uniform_distribution(p.range)
        oracle = apply_parameterization(p, LOG9)
        likelihood = ObjectiveConfig("likelihood", "cond-independent", 1.0, prior)
        for theta, value in zip(curve.thetas, curve.values):
            model = apply_parameterization(p, theta)
            expected = (evaluate(likelihood, model, oracle)
                        + max_probability(prior, model).log_max_probability)
            assert abs(value - expected) <= np.log(2.0) / 50000.0 + 1e-12

    def test_degenerate_oracle_at_zero_is_flat_at_alpha_one(self):
        report = run_sweep(small_spec(theta_star=0.0, objectives=("intersection",),
                                      alphas=(1.0,)))
        curve = report.curves[0]
        assert uniqueness_diagnostic(curve) == "plateau"
        assert curve.flatness <= 1e-12


def curve_of(values: np.ndarray) -> SweepCurve:
    return SweepCurve("likelihood", 1.0, np.arange(len(values), dtype=float), values,
                      int(np.argmax(values)), 0.0)


# Heights near one another, so that runs of near-maximal points are common.
HEIGHTS = st.sampled_from([0.0, -5e-10, -1e-9, -2e-9, -1.0, -np.inf, np.inf, np.nan])


class TestUniquenessDiagnostic:
    RUN, SHORT = [0.0] * PLATEAU_RUN, [0.0] * (PLATEAU_RUN - 1)

    @given(arrays(float, st.integers(1, 3 * PLATEAU_RUN),
                  elements=HEIGHTS | st.floats(-3.0, 3.0)))
    @example(np.array(RUN + [-1.0, 0.5]))  # a run at the start, below a later maximum
    @example(np.array([-1.0, 0.5, -1.0] + [0.4] * PLATEAU_RUN))  # the same at the end
    @example(np.array([-1.0] + RUN))
    @example(np.array(RUN + [-1.0]))
    @example(np.array(SHORT + [-1.0] + SHORT))
    @example(np.array(SHORT))
    @example(np.array([-1.0, 0.0, -1.0]))
    @example(np.array([0.0]))
    @example(np.full(3 * PLATEAU_RUN, -np.inf))
    @example(np.full(PLATEAU_RUN - 1, -np.inf))
    def test_matches_the_loop(self, values):
        curve = curve_of(values)
        assert uniqueness_diagnostic(curve) == reference.uniqueness_diagnostic(curve)

    @pytest.mark.parametrize("values, shape", [
        (RUN + [-1.0], "plateau"),
        ([-1.0] + RUN, "plateau"),
        (SHORT + [-1.0] + SHORT, "boundary-max"),
        (SHORT, "boundary-max"),
        ([-np.inf] * PLATEAU_RUN, "plateau"),
        ([-np.inf] * (PLATEAU_RUN - 1), "boundary-max"),
        ([-1.0, 0.0, -1.0], "unique-interior-max"),
    ])
    def test_shapes(self, values, shape):
        assert uniqueness_diagnostic(curve_of(np.array(values))) == shape


class TestSubsetArgmaxClosedForm:
    """Under the oracle-subset reading, the best model keeps alpha/(alpha+1)
    of the oracle's log odds: theta_hat = theta_star * alpha / (alpha + 1)."""

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0, 16.0, 256.0])
    def test_likelihood_argmax(self, alpha):
        spec = SweepSpec(theta_star=LOG9, grid_min=-8.0, grid_max=8.0,
                         grid_step=0.01, alphas=(alpha,),
                         assumption="oracle-subset", objectives=("likelihood",))
        curve = run_sweep(spec).curves[0]
        predicted = LOG9 * alpha / (alpha + 1.0)
        assert abs(curve.argmax_theta - predicted) <= 0.005 + 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_curve_is_concave_along_the_grid(self, alpha):
        spec = SweepSpec(theta_star=LOG9, grid_min=-6.0, grid_max=6.0,
                         grid_step=0.05, alphas=(alpha,),
                         assumption="oracle-subset", objectives=("likelihood",))
        values = run_sweep(spec).curves[0].values
        second_differences = np.diff(values, n=2)
        assert np.all(second_differences <= 1e-9)


class TestReportJson:
    def test_summary_carries_per_curve_diagnostics(self):
        report = run_sweep(small_spec())
        payload = report_to_jsonable(report)
        assert payload["theta_star"] == LOG9
        assert payload["grid"] == {"min": -4.0, "max": 4.0, "step": 0.05}
        assert len(payload["curves"]) == 4
        for entry in payload["curves"]:
            assert set(entry) == {"objective", "alpha", "argmax_theta",
                                  "argmax_value", "flatness", "shape"}
