"""Objective-landscape sweeps for the two-outcome case.

The model is the log-odds parameterization of a Bernoulli variable and the
oracle is built the same way from a target parameter theta_star, so every
curve here is a one-dimensional slice of an objective that is cheap enough
to tabulate exhaustively.  The sweep reports, per (objective, alpha) pair,
the full (theta, value) curve, its grid argmax, a flatness diagnostic, and
a shape classification.  Absolute curve heights depend on which additive
constants an objective drops, so cross-family comparisons should use argmax
positions and shapes, not raw heights.  Each curve is one batched value
call over the model of the whole grid, computed once per sweep; a curve
that does not read alpha is one call for all alphas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import (
    FiniteDistribution,
    Parameterization,
    apply_parameterization,
    uniform_distribution,
    _require_ranges,
    _theta_logp,
)
from .errors import InvalidSetting, as_labels, require_real
from .objectives import ObjectiveConfig, _values_of_rows

__all__ = [
    "MAX_GRID_POINTS",
    "PLATEAU_RUN",
    "PLATEAU_TOL",
    "SweepSpec",
    "SweepCurve",
    "SweepReport",
    "theta_grid",
    "run_sweep",
    "uniqueness_diagnostic",
    "report_to_jsonable",
]

# A curve is a plateau when this many consecutive grid points sit within
# PLATEAU_TOL of the curve maximum.
PLATEAU_RUN = 5
PLATEAU_TOL = 1e-9
# Largest theta grid a sweep tabulates.
MAX_GRID_POINTS = 10**6


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
    # one checked config per (objective, alpha), objective by objective
    _configs: tuple[ObjectiveConfig, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("objectives", "alphas"):
            object.__setattr__(self, name, as_labels(name, getattr(self, name), InvalidSetting)[0])
        prior = (self.prior if self.prior is not None
                 else uniform_distribution(Parameterization.sigmoid_bernoulli().range))
        object.__setattr__(self, "_configs", tuple(
            ObjectiveConfig(kind, self.assumption, alpha, prior)
            for kind in self.objectives for alpha in self.alphas))
        if not self._configs:
            raise InvalidSetting("a sweep needs at least one objective and one alpha")
        for name in ("theta_star", "grid_min", "grid_max", "grid_step"):  # a report serializes
            object.__setattr__(self, name, require_real(
                name, getattr(self, name), "positive" if name == "grid_step" else None))
        if not self.grid_max > self.grid_min:
            raise InvalidSetting("grid needs grid_max > grid_min")
        bounds = (self.grid_min, self.grid_max, self.grid_step)
        count = _grid_count(self)
        if count > MAX_GRID_POINTS:
            raise InvalidSetting(f"grid {bounds!r} has more than {MAX_GRID_POINTS} points")
        # the rounded count can put the last point up to half a step past grid_max
        if not math.isfinite(self.grid_min + (count - 1) * self.grid_step):
            raise InvalidSetting(f"grid {bounds!r} ends beyond the float range")


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


def _grid_count(spec: SweepSpec) -> float:
    """Points in the grid: the span in steps, rounded, plus one.  A float, so a
    span that overflows counts inf points."""
    return float(np.rint((spec.grid_max - spec.grid_min) / spec.grid_step)) + 1


def theta_grid(spec: SweepSpec) -> np.ndarray:
    """Inclusive grid built as grid_min + i * grid_step; no cumulative drift."""
    return spec.grid_min + np.arange(int(_grid_count(spec))) * spec.grid_step


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Tabulate every configured (objective, alpha) curve over the grid.

    An objective that does not read alpha (ObjectiveConfig.reads_alpha), the
    likelihood under conditional independence, is computed once: its curve
    for every alpha shares that one read-only values array, so the output
    still carries one curve per (objective, alpha).  Grid argmax ties go to
    the lowest theta.
    """
    p = Parameterization.sigmoid_bernoulli()
    oracle = apply_parameterization(p, spec.theta_star)
    grid = theta_grid(spec)
    quarter = len(grid) // 4
    middle = slice(quarter, max(quarter + 1, len(grid) - quarter))
    # values_at_thetas' range check and model, once; the spec's checks leave the grid finite
    _require_ranges(p.range, oracle, spec._configs[0].prior)
    model = _theta_logp(p, grid[:, np.newaxis])
    curves = []
    for config in spec._configs:
        if not curves or config.reads_alpha or curves[-1].objective != config.kind:
            values = _values_of_rows(config, oracle, model)
        top, bottom = np.max(values[middle]), np.min(values[middle])
        curves.append(SweepCurve(
            config.kind, config.alpha, grid, values,
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
    # a window of PLATEAU_RUN points is a run when its count of near points is full
    counts = np.concatenate(([0], np.cumsum(near)))
    if (counts[PLATEAU_RUN:] - counts[:-PLATEAU_RUN] == PLATEAU_RUN).any():
        return "plateau"
    if curve.argmax_index in (0, len(curve.values) - 1):
        return "boundary-max"
    return "unique-interior-max"


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
