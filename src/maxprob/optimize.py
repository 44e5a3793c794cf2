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

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .distributions import (FiniteDistribution, Parameterization, apply_parameterization,
                            _check_theta, _pullback, _require_ranges)
from .errors import (DimensionMismatch, InvalidSetting, _read_only, as_array, require_integer,
                     require_real)
from .logspace import NEG_INF, _log_softmax
from .objectives import (GradientVector, ObjectiveConfig, gradient_at_theta, gradient_terms,
                         values_at_thetas, _bind)

__all__ = [
    "DIVERGENCE_THETA_BOUND",
    "MAX_MC_SAMPLES",
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
# Largest mc_gradient sample count: its draws hold two arrays of this many numbers.
MAX_MC_SAMPLES = 10**7


@dataclass(frozen=True)
class AscentConfig:
    """Fixed-step ascent settings; grad_tol is on the infinity norm of d_theta."""

    step_size: float = 0.1
    max_iters: int = 10000
    grad_tol: float = 1e-8

    def __post_init__(self) -> None:
        require_real("step_size", self.step_size, "positive")
        require_real("grad_tol", self.grad_tol, "non-negative")
        require_integer("max_iters", self.max_iters, 1)


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
            object.__setattr__(self, name, _read_only(getattr(self, name)))

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

    theta0 and the outcome ranges are checked once, with the errors
    value_at_theta raises.  Each iteration then maps theta to log-probabilities
    as _theta_logp does, in one row of logits padded with zeros once, and makes
    one kernel call on that row for the value and both gradient vectors.  Within
    DIVERGENCE_THETA_BOUND the logits spread by at most twice the bound, so
    every outcome keeps its mass: the kernel is bound to the full support
    (objectives._bind, whose terms check their supports) once.  Only an
    iterate past the bound, the last of a diverging run or a huge theta0,
    builds its support mask, which an overflowing logit gap can thin, and
    binds again if the mask differs from the last one bound.  Each iteration
    records value and gradient norm before deciding to stop, so the trace
    always contains the final iterate.  A point already at grad_tol
    converges on the first iteration without stepping.
    """
    theta = _check_theta(p, theta0)
    _require_ranges(p.range, oracle, config.prior)
    thetas, values, norms = [], [], []
    status = "max_iters"
    full, bound = np.ones(len(p.range), dtype=bool), None
    logits = np.zeros(len(p.range))
    for _ in range(cfg.max_iters):
        reach = _max_norm(theta)
        logits[:p.dim] = theta
        logp = _log_softmax(logits)
        supp = full if reach <= DIVERGENCE_THETA_BOUND else logp > NEG_INF
        if supp is not bound and (bound is None or supp.tobytes() != bound.tobytes()):
            kernel, bound = _bind(config, supp, oracle.logp), supp
        value, attract, repulse = kernel(logp)
        d_theta = _pullback(p, attract - repulse)
        gnorm = _max_norm(d_theta)
        thetas.append(theta)
        values.append(value)
        norms.append(gnorm)
        if math.isnan(value) or math.isnan(gnorm) or reach > DIVERGENCE_THETA_BOUND:
            status = "diverged"
            break
        if gnorm <= cfg.grad_tol:
            status = "converged"
            break
        theta = theta + cfg.step_size * d_theta
    return AscentTrace(np.array(thetas), np.array(values), np.array(norms), status)


def _max_norm(x: np.ndarray) -> float:
    """float(np.maximum.reduce(abs(x))), NaN and +0.0 alike; one entry takes no ufunc."""
    return abs(x.item()) if x.size == 1 else float(np.maximum.reduce(abs(x)))


def mc_gradient(config: ObjectiveConfig, oracle: FiniteDistribution, p: Parameterization,
                theta, n_samples: int, seed: int) -> GradientVector:
    """Unbiased Monte Carlo estimate of the gradient.

    Draws n_samples outcomes from the attraction distribution and then
    n_samples from the repulsion distribution (that order is part of the
    contract) by inverse CDF over the range's outcome order, using one
    seeded generator.  The difference of the two empirical frequency
    vectors estimates d_logp; it sums to zero (up to rounding) like the exact
    gradient, so it is pulled back to d_theta the same way.
    """
    n_samples = require_integer("n_samples", n_samples, 1, MAX_MC_SAMPLES)
    seed = require_integer("seed", seed, 0)
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
    return GradientVector(d_logp, _pullback(p, d_logp))


def fd_gradient(value_fn: Callable[[np.ndarray], float], theta, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of theta; h may be negative.
    value_fn is called on one stencil row at a time (see _central_differences)."""
    return _central_differences(lambda rows: [value_fn(row) for row in rows], theta, h)


def _central_differences(values_fn: Callable[[Iterator[np.ndarray]], Sequence[float]], theta,
                         h: float) -> np.ndarray:
    """Central finite differences from one call of values_fn, which gives the values of
    the 2 * dim stencil rows, theta + h e_j and then theta - h e_j for each j in turn.
    The rows come one fresh array at a time, so a caller that takes them one by one
    holds O(dim) floats, not the whole stencil."""
    require_real("h", h)
    if h == 0:
        raise InvalidSetting("h must be nonzero")
    theta = np.atleast_1d(as_array(theta))

    def rows():
        for j in range(theta.size):
            for step in (h, -h):  # x + -h is x - h bit for bit
                row = theta.copy()
                row.flat[j] += step  # each entry of theta is a coordinate, in C order
                yield row
    values = values_fn(rows())
    # one entry at a time, in the values' own type: Python floats overflow to inf, and
    # subtract inf from inf, without numpy's warnings, as the per-coordinate loop did
    return np.array([(up - dn) / (2.0 * h) for up, dn in zip(values[0::2], values[1::2])],
                    dtype=float)


def finite_difference_check(config: ObjectiveConfig, oracle: FiniteDistribution,
                            p: Parameterization, theta, h: float = 1e-5) -> float:
    """Worst relative disagreement between analytic and central-difference gradients.

    Per coordinate the error is |fd - analytic| / max(1e-12, |analytic|, |fd|),
    so a uniformly zero gradient compares at absolute scale instead of blowing
    up the ratio.  The stencil's values come from one values_at_thetas call.
    """
    analytic = gradient_at_theta(config, oracle, p, theta).d_theta
    fd = _central_differences(lambda rows: values_at_thetas(config, oracle, p, list(rows)),
                              theta, h)
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
    grid = as_array(theta_grid)
    if grid.ndim != 1 or grid.size == 0:
        raise DimensionMismatch(f"theta_grid must be a 1-D grid of at least one point, "
                                f"got shape {grid.shape}")
    values = as_array(values_fn(grid))
    if values.shape != grid.shape:
        raise DimensionMismatch(f"values_fn gave shape {values.shape} for a grid of {grid.shape}")
    values = np.where(np.isnan(values), -np.inf, values)
    best = int(np.argmax(values))  # first maximum
    return GridArgmaxResult(best, float(grid[best]), float(values[best]))
