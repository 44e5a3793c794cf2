"""Plain fixed-step gradient ascent plus gradient diagnostics.

Nothing adaptive lives here on purpose: a fixed step keeps traces exactly
reproducible and makes convergence claims about the objectives themselves,
not about optimizer tuning.  The module also carries the two instruments
used to audit analytic gradients: central finite differences and a Monte
Carlo estimator that samples the two probability vectors whose difference
is the exact gradient.

Randomness contract: all sampling goes through numpy's default Generator
(the 64-bit permuted congruential generator) seeded explicitly by the
caller.  The test suite pins the first ten uniform draws of a reference
seed, so a silent change of generator or stream shows up as a test failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import FiniteDistribution, Parameterization, apply_parameterization, \
    parameterization_jacobian
from .errors import DimensionMismatch, NonPositiveAlpha
from .objectives import (
    GradientVector,
    ObjectiveConfig,
    gradient_at_theta,
    gradient_terms,
    value_at_theta,
)

__all__ = [
    "DIVERGENCE_THETA_BOUND",
    "AscentConfig",
    "AscentTrace",
    "ascend",
    "mc_gradient",
    "fd_gradient",
    "finite_difference_check",
    "GridArgmaxResult",
    "grid_argmax",
]

# Iterates beyond this magnitude are declared divergent rather than clipped.
DIVERGENCE_THETA_BOUND = 1e6


@dataclass(frozen=True)
class AscentConfig:
    """Fixed-step ascent settings; grad_tol is on the infinity norm of d_theta."""

    step_size: float = 0.1
    max_iters: int = 10000
    grad_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not self.step_size > 0:
            raise NonPositiveAlpha(f"step_size must be positive, got {self.step_size!r}")
        if self.max_iters < 1:
            raise DimensionMismatch("max_iters must be at least 1")
        if self.grad_tol < 0:
            raise DimensionMismatch("grad_tol must be non-negative")


@dataclass(frozen=True, eq=False)
class AscentTrace:
    """Everything the ascent evaluated, in order, plus how it stopped.

    status is one of "converged" (gradient norm reached grad_tol),
    "max_iters" (budget exhausted), or "diverged" (NaN value or an iterate
    beyond DIVERGENCE_THETA_BOUND, reported honestly rather than clipped).
    """

    thetas: np.ndarray      # (iterations, dim)
    values: np.ndarray      # (iterations,)
    grad_norms: np.ndarray  # (iterations,)
    status: str

    def __post_init__(self) -> None:
        for name in ("thetas", "values", "grad_norms"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def iterations(self) -> int:
        return len(self.values)

    @property
    def final_theta(self) -> np.ndarray:
        return self.thetas[-1]

    @property
    def final_value(self) -> float:
        return float(self.values[-1])


def ascend(config: ObjectiveConfig, oracle: FiniteDistribution, p: Parameterization,
           theta0, cfg: AscentConfig = AscentConfig()) -> AscentTrace:
    """Maximize the objective over theta by fixed-step gradient ascent.

    Each iteration evaluates value and gradient at the current theta and
    records both before deciding to stop, so the trace always contains the
    final iterate.  A point already at grad_tol converges on the first
    iteration without stepping.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    thetas, values, norms = [], [], []
    status = "max_iters"
    for _ in range(cfg.max_iters):
        value = value_at_theta(config, oracle, p, theta)
        grad = gradient_at_theta(config, oracle, p, theta)
        gnorm = float(np.max(np.abs(grad.d_theta)))
        thetas.append(theta.copy())
        values.append(value)
        norms.append(gnorm)
        if np.isnan(value) or np.isnan(gnorm):
            status = "diverged"
            break
        if np.max(np.abs(theta)) > DIVERGENCE_THETA_BOUND:
            status = "diverged"
            break
        if gnorm <= cfg.grad_tol:
            status = "converged"
            break
        theta = theta + cfg.step_size * grad.d_theta
    return AscentTrace(np.array(thetas), np.array(values), np.array(norms), status)


def mc_gradient(config: ObjectiveConfig, oracle: FiniteDistribution, p: Parameterization,
                theta, n_samples: int, seed: int) -> GradientVector:
    """Unbiased Monte Carlo estimate of the gradient.

    Draws n_samples outcomes from the attraction distribution and then
    n_samples from the repulsion distribution (that order is part of the
    contract) by inverse CDF over the range's outcome order, using one
    seeded generator.  The difference of the two empirical frequency
    vectors estimates d_logp; mapping through the parameterization Jacobian
    gives the d_theta estimate.
    """
    if n_samples < 1:
        raise DimensionMismatch("n_samples must be at least 1")
    model = apply_parameterization(p, theta)
    attract, repulse = gradient_terms(config, model, oracle)
    rng = np.random.default_rng(seed)
    counts = []
    for probs in (attract, repulse):
        cum = np.cumsum(probs)
        draws = np.searchsorted(cum, rng.random(n_samples), side="right")
        draws = np.minimum(draws, len(probs) - 1)  # guard the cum[-1] < 1 rounding case
        counts.append(np.bincount(draws, minlength=len(probs)) / n_samples)
    d_logp = counts[0] - counts[1]
    jac = parameterization_jacobian(p, theta)
    return GradientVector(d_logp, jac.T @ d_logp)


def fd_gradient(value_fn: Callable[[np.ndarray], float], theta, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (value_fn(up) - value_fn(dn)) / (2.0 * h)
    return out


def finite_difference_check(config: ObjectiveConfig, oracle: FiniteDistribution,
                            p: Parameterization, theta, h: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    Per coordinate the error is |fd - analytic| / max(1e-12, |analytic|, |fd|),
    so a uniformly zero gradient compares at absolute scale instead of blowing
    up the ratio.
    """
    analytic = gradient_at_theta(config, oracle, p, theta).d_theta
    fd = fd_gradient(lambda t: value_at_theta(config, oracle, p, t), theta, h)
    denom = np.maximum(1e-12, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(fd - analytic) / denom))


@dataclass(frozen=True)
class GridArgmaxResult:
    index: int
    theta: float
    value: float


def grid_argmax(values_fn: Callable[[np.ndarray], np.ndarray], theta_grid: Sequence[float],
                ) -> GridArgmaxResult:
    """Exhaustive argmax over an explicit grid; ties go to the first point.

    values_fn maps the whole (N,) grid to its (N,) values in one call.  A NaN
    value never wins; when no value beats -inf the first point is reported
    with value -inf.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise DimensionMismatch("theta_grid must contain at least one point")
    values = np.asarray(values_fn(grid), dtype=float)
    if values.shape != grid.shape:
        raise DimensionMismatch(f"values_fn gave shape {values.shape} for a grid of {grid.shape}")
    values = np.where(np.isnan(values), -np.inf, values)
    best = int(np.argmax(values))  # first maximum
    return GridArgmaxResult(best, float(grid[best]), float(values[best]))
