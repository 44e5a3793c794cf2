"""Correctness checks for one benchmark operation.

Every check returns a list of problems; an empty list means the output is
correct.  Reference values are closed forms taken from the manifest, so a
check never trusts a number it would have to ask maxprob for.  The one
exception is the fit-wide gradient audit, which by design compares maxprob's
analytic gradient with central differences of maxprob's own objective.

Tolerances:

* fit-small: converged ascents (grad-tol 1e-10) land within 1e-6 of the
  closed-form optimum, scaled by max(1, |optimum|); the observed error is
  below 1e-9.
* fit-wide: central differences with h = 1e-4 agree with the analytic
  gradient to a worst per-coordinate relative error of 1e-3, where
  components below 1e-6 of the largest are compared at that floor; the
  observed worst over 10 seeds was 1.6e-4.
  maxprob.finite_difference_check floors at 1e-12 instead: at K = 2048 a
  correct gradient has components near 1e-11, which central differences
  cannot resolve, and it read 1.0 on one seed of 20.  A missing or wrong
  gradient term gives errors near 1.
* sweep: the grid argmax lies within one grid step of the closed-form
  optimum, or, on a curve the program itself calls a plateau, the value at
  the closed-form optimum is within PLATEAU_TOL of the curve maximum.
* train-toy: the regularizer term lies in [0, log(K) (alpha - 1) / alpha]
  within REG_TOL.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

FIT_SMALL_TOL = 1e-6
FD_H = 1e-4
FD_FLOOR = 1e-6
FD_TOL = 1e-3
PLATEAU_TOL = 1e-9
REG_TOL = 1e-12


def fit_small_optimum(ref: dict) -> float | None:
    """Closed-form optimum of a sigmoid-parameterized cell; None where it is +inf."""
    theta_star, alpha = ref["theta_star"], ref["alpha"]
    cell = (ref["kind"], ref["assumption"])
    if cell == ("intersection", "cond-independent"):
        return theta_star / (alpha - 1.0)
    if cell == ("likelihood", "oracle-subset"):
        return theta_star * alpha / (alpha + 1.0)
    if cell == ("intersection", "oracle-subset"):
        return theta_star / 2.0
    return None


def read_trace(text: str) -> tuple[list[list[float]], list[float]]:
    """Parse an optimize trace CSV into (thetas per row, values per row)."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    value_col = header.index("value")
    thetas = [[float(x) for x in row[1:value_col]] for row in body]
    values = [float(row[value_col]) for row in body]
    return thetas, values


def _non_decreasing(xs: list[float]) -> bool:
    return all(b >= a for a, b in zip(xs, xs[1:]))


def check_fit_small(ref: dict, summary: dict, trace_text: str) -> list[str]:
    thetas, values = read_trace(trace_text)
    problems = []
    if len(values) != summary["iterations"]:
        problems.append(f"trace has {len(values)} rows, summary says {summary['iterations']}")
    final = summary["final_theta"][0]
    optimum = fit_small_optimum(ref)
    if optimum is None:
        # the bare likelihood under conditional independence has no finite optimum
        if summary["status"] != "max_iters":
            problems.append(f"status {summary['status']!r}, expected 'max_iters'")
        if not _non_decreasing(values):
            problems.append("trace values decrease")
        if not _non_decreasing([t[0] for t in thetas]) or not final > ref["theta_star"]:
            problems.append(f"theta does not move toward +inf (final {final!r})")
    else:
        if summary["status"] != "converged":
            problems.append(f"status {summary['status']!r}, expected 'converged'")
        if abs(final - optimum) > FIT_SMALL_TOL * max(1.0, abs(optimum)):
            problems.append(f"final theta {final!r}, closed form {optimum!r}")
    return problems


def check_fit_wide(ref: dict, summary: dict, trace_text: str, fd_error: float) -> list[str]:
    _, values = read_trace(trace_text)
    problems = []
    if len(values) != summary["iterations"] or len(values) > ref["iters"]:
        problems.append(f"trace has {len(values)} rows for max-iters {ref['iters']}")
    if not _non_decreasing(values):
        problems.append("trace values decrease")
    if not fd_error <= FD_TOL:
        problems.append(f"finite-difference error {fd_error!r} above {FD_TOL}")
    return problems


def fit_wide_fd_error(maxprob, ref: dict, final_theta: list[float]) -> float:
    """Worst disagreement between maxprob's analytic gradient and central
    differences (maxprob.fd_gradient) of its objective at the final theta.

    Per coordinate the error is |fd - analytic| over the larger of |fd|,
    |analytic| and FD_FLOOR times the largest analytic component, so
    components far below the gradient's scale are compared at that scale.
    """
    def load(path):
        with open(path) as fh:
            return maxprob.distribution_from_jsonable(json.load(fh))
    oracle = load(ref["oracle"])
    p = maxprob.Parameterization.softmax_logits(len(final_theta))
    config = maxprob.ObjectiveConfig(ref["kind"], ref["assumption"], ref["alpha"],
                                     load(ref["prior"]))
    theta = np.asarray(final_theta)
    analytic = maxprob.gradient_at_theta(config, oracle, p, theta).d_theta
    fd = maxprob.fd_gradient(lambda t: maxprob.value_at_theta(config, oracle, p, t), theta, FD_H)
    scale = FD_FLOOR * np.max(np.abs(analytic))
    denom = np.maximum(scale, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(fd - analytic) / denom))


def sweep_optimum(ref: dict, objective: str, alpha: float) -> float:
    """Closed-form maximizer of one sweep curve, clipped to the grid."""
    theta_star = ref["theta_star"]
    lo, hi, _ = ref["grid"]
    if ref["assumption"] == "oracle-subset":
        x = theta_star / 2.0 if objective == "intersection" else theta_star * alpha / (alpha + 1.0)
    elif objective == "likelihood" or alpha == 1.0:
        x = math.inf  # at alpha = 1 the uniform-prior intersection is the likelihood
    else:
        x = theta_star / (alpha - 1.0)
    return min(max(x, lo), hi)


def check_sweep(ref: dict, summary: dict, csv_text: str) -> list[str]:
    lo, hi, step = ref["grid"]
    problems = []
    if [summary["grid"][k] for k in ("min", "max", "step")] != [lo, hi, step]:
        problems.append(f"grid {summary['grid']!r}, expected {ref['grid']!r}")
    curves: dict[tuple[str, float], list[tuple[float, float]]] = {}
    for objective, _, alpha, theta, value in list(csv.reader(io.StringIO(csv_text)))[1:]:
        curves.setdefault((objective, float(alpha)), []).append((float(theta), float(value)))
    expected = {(o, a) for o in ("likelihood", "intersection") for a in ref["alphas"]}
    if set(curves) != expected:
        problems.append(f"curves {sorted(curves)!r}, expected {sorted(expected)!r}")
    n_points = int(round((hi - lo) / step)) + 1
    for c in summary["curves"]:
        key = (c["objective"], c["alpha"])
        points = curves.get(key, [])
        if len(points) != n_points:
            problems.append(f"{key}: {len(points)} grid points, expected {n_points}")
            continue
        x = sweep_optimum(ref, *key)
        if abs(c["argmax_theta"] - x) <= step * (1.0 + 1e-9):
            pass
        elif c["shape"] == "plateau":
            nearest = min(points, key=lambda tv: abs(tv[0] - x))
            if c["argmax_value"] - nearest[1] > PLATEAU_TOL:
                problems.append(f"{key}: plateau does not reach the closed form {x!r}")
        else:
            problems.append(f"{key}: argmax {c['argmax_theta']!r}, closed form {x!r}")
        if ref["assumption"] == "cond-independent" and c["objective"] == "likelihood" \
                and c["shape"] != "boundary-max":
            problems.append(f"{key}: shape {c['shape']!r}, expected 'boundary-max'")
    if len(summary["curves"]) != len(expected):
        problems.append(f"summary has {len(summary['curves'])} curves, expected {len(expected)}")
    return problems


def regularizer_limit(classes: int, alpha: float) -> float:
    """Largest value of the intersection regularizer: log(K) (alpha - 1) / alpha."""
    return math.log(classes) * (alpha - 1.0) / alpha


def check_train_toy(ref: dict, report_bytes: bytes, rerun_bytes: bytes) -> list[str]:
    report = json.loads(report_bytes)
    records = report["records"]
    problems = []
    if report_bytes != rerun_bytes:
        problems.append("two runs with the same seeds wrote different reports")
    if len(records) != ref["epochs"] + 1:
        problems.append(f"{len(records)} epoch records, expected {ref['epochs'] + 1}")
    if not records[-1]["train_loss"] < records[0]["train_loss"]:
        problems.append(f"train loss {records[-1]['train_loss']!r} not below "
                        f"epoch 0 {records[0]['train_loss']!r}")
    reg = records[-1]["reg_term"]
    if ref["mode"] == "intersection":
        limit = regularizer_limit(ref["classes"], ref["alpha"])
        if not -REG_TOL <= reg <= limit + REG_TOL:
            problems.append(f"reg_term {reg!r} outside [0, {limit!r}]")
    elif not (math.isfinite(reg) and reg >= 0.0):
        problems.append(f"weight penalty {reg!r} is not a finite non-negative number")
    return problems
