"""Objective-landscape sweeps for the two-outcome case.

The model is the log-odds parameterization of a Bernoulli variable and the
oracle is built the same way from a target parameter theta_star, so every
curve here is a one-dimensional slice of an objective that is cheap enough
to tabulate exhaustively.  The sweep reports, per (objective, alpha) pair,
the full (theta, value) curve, its grid argmax, a flatness diagnostic, and
a shape classification.  Absolute curve heights depend on which additive
constants an objective drops, so cross-family comparisons should use argmax
positions and shapes, not raw heights.  Each curve is one batched
values_at_thetas call over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .distributions import (
    FiniteDistribution,
    Parameterization,
    apply_parameterization,
    uniform_distribution,
)
from .errors import DimensionMismatch, RangeMismatch, require_alpha
from .objectives import ASSUMPTIONS, KINDS, ObjectiveConfig, values_at_thetas

__all__ = [
    "PLATEAU_RUN",
    "PLATEAU_TOL",
    "SweepSpec",
    "SweepCurve",
    "SweepReport",
    "theta_grid",
    "run_sweep",
    "uniqueness_diagnostic",
    "sweep_rows",
    "report_to_jsonable",
]

# A curve is a plateau when this many consecutive grid points sit within
# PLATEAU_TOL of the curve maximum.
PLATEAU_RUN = 5
PLATEAU_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """What to sweep: oracle parameter, grid, sharpness values, objective family."""

    theta_star: float
    grid_min: float = -8.0
    grid_max: float = 8.0
    grid_step: float = 0.01
    alphas: tuple[float, ...] = (1.0, 2.0, 4.0, 16.0, 256.0)
    assumption: str = "cond-independent"
    objectives: tuple[str, ...] = ("likelihood", "intersection")
    prior: Optional[FiniteDistribution] = None  # None means uniform

    def __post_init__(self) -> None:
        if self.assumption not in ASSUMPTIONS:
            raise RangeMismatch(f"assumption must be one of {ASSUMPTIONS}")
        for obj in self.objectives:
            if obj not in KINDS:
                raise RangeMismatch(f"objective must be one of {KINDS}, got {obj!r}")
        for a in self.alphas:
            require_alpha(a)
        if not self.grid_step > 0 or not self.grid_max > self.grid_min:
            raise DimensionMismatch("grid needs grid_max > grid_min and grid_step > 0")


@dataclass(frozen=True, eq=False)
class SweepCurve:
    objective: str
    alpha: float
    thetas: np.ndarray
    values: np.ndarray
    argmax_index: int
    flatness: float  # value range over the middle half of the grid

    def __post_init__(self) -> None:
        self.thetas.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def argmax_theta(self) -> float:
        return float(self.thetas[self.argmax_index])

    @property
    def argmax_value(self) -> float:
        return float(self.values[self.argmax_index])


@dataclass(frozen=True, eq=False)
class SweepReport:
    spec: SweepSpec
    curves: tuple[SweepCurve, ...]


def theta_grid(spec: SweepSpec) -> np.ndarray:
    """Inclusive grid built as grid_min + i * grid_step; no cumulative drift."""
    count = int(round((spec.grid_max - spec.grid_min) / spec.grid_step)) + 1
    return spec.grid_min + np.arange(count) * spec.grid_step


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Tabulate every configured (objective, alpha) curve over the grid.

    The likelihood under conditional independence does not depend on alpha;
    its curve is still emitted once per alpha so every row of the output
    carries the same schema.  Grid argmax ties go to the lowest theta.
    """
    p = Parameterization.sigmoid_bernoulli()
    oracle = apply_parameterization(p, spec.theta_star)
    prior = spec.prior if spec.prior is not None else uniform_distribution(p.range)
    grid = theta_grid(spec)
    rows = grid[:, np.newaxis]
    quarter = len(grid) // 4
    middle = slice(quarter, max(quarter + 1, len(grid) - quarter))
    curves = []
    for objective in spec.objectives:
        for alpha in spec.alphas:
            config = ObjectiveConfig(objective, spec.assumption, alpha, prior)
            values = values_at_thetas(config, oracle, p, rows)
            top, bottom = np.max(values[middle]), np.min(values[middle])
            curves.append(SweepCurve(
                objective, alpha, grid, values,
                int(np.argmax(values)),
                0.0 if top == bottom else float(top - bottom),  # all -inf is flat, not NaN
            ))
    return SweepReport(spec, tuple(curves))


def uniqueness_diagnostic(curve: SweepCurve) -> str:
    """Classify the curve's maximum: plateau, boundary-max, or unique-interior-max.

    Plateau takes precedence: PLATEAU_RUN consecutive points within
    PLATEAU_TOL of the maximum mean the argmax position is not trustworthy
    on its own (a flat curve's tie-broken argmax is an artifact).
    """
    near = curve.values >= curve.argmax_value - PLATEAU_TOL
    run = 0
    for flag in near:
        run = run + 1 if flag else 0
        if run >= PLATEAU_RUN:
            return "plateau"
    if curve.argmax_index in (0, len(curve.values) - 1):
        return "boundary-max"
    return "unique-interior-max"


def sweep_rows(report: SweepReport) -> Iterator[tuple]:
    """Flat rows (objective, assumption, alpha, theta, value) for CSV emission."""
    for curve in report.curves:
        for t, v in zip(curve.thetas, curve.values):
            yield (curve.objective, report.spec.assumption, curve.alpha, float(t), float(v))


def report_to_jsonable(report: SweepReport) -> dict:
    """Summary sidecar: per-curve argmax, flatness, and shape classification."""
    return {
        "theta_star": report.spec.theta_star,
        "assumption": report.spec.assumption,
        "grid": {
            "min": report.spec.grid_min,
            "max": report.spec.grid_max,
            "step": report.spec.grid_step,
        },
        "curves": [
            {
                "objective": c.objective,
                "alpha": c.alpha,
                "argmax_theta": c.argmax_theta,
                "argmax_value": c.argmax_value,
                "flatness": c.flatness,
                "shape": uniqueness_diagnostic(c),
            }
            for c in report.curves
        ],
    }
