"""Upper bounds on the probability of an event from the conditional it induces.

Setting
-------
A random variable V with finite range carries a known distribution P(v).
An event sigma is observed only through the conditional distribution
P(v | sigma) it induces on V.  Whatever sigma actually is, its probability
can not exceed

    max_probability = inf over supported v of  P(v) / P(v | sigma),

because P(sigma) * P(v | sigma) <= P(v) for every outcome v.  The infimum
runs over outcomes with positive conditional mass; outcomes the conditional
rules out impose no constraint.  The bound is tight: some event on a rich
enough sample space attains it, and a degenerate conditional (all mass on
one outcome v0) attains it at exactly P(v0).

softmax_probability replaces the hard minimum with a smooth soft-minimum
controlled by alpha > 0.  It never exceeds the hard bound, is non-decreasing
in alpha, and converges to the hard bound as alpha grows, which makes it a
differentiable surrogate suitable for gradient methods.

alpha_skeleton is the companion transform on distributions: raise mass to
the alpha power and renormalize, sharpening (alpha > 1) or flattening
(alpha < 1) while preserving the argmax and, for alpha > 0, the support.

Everything here works in log space end to end; linear probabilities appear
only at the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    FiniteDistribution,
    Label,
    Refinement,
    SUM_REJECT_TOL,
    coarsen,
    _require_same_range,
)
from .errors import (
    LabelOutOfRange,
    NegativeAlphaOnZeroMass,
    NegativeMass,
    NonFiniteParameter,
    SpaceTooLarge,
    SumOutOfTolerance,
    require_alpha,
)
from .logspace import NEG_INF, soft_min

__all__ = [
    "BoundResult",
    "max_probability",
    "softmax_probability",
    "alpha_skeleton",
    "ExtensionReport",
    "EXTENSION_LOG_SLACK",
    "check_extension_monotonicity",
    "exhaustive_bound_oracle",
    "ORACLE_MATCH_TOL",
    "MAX_ORACLE_ATOMS",
]

# Log-space slack granted to the coarse-versus-fine comparison; pure float noise.
EXTENSION_LOG_SLACK = 1e-12
# Linear-space tolerance when the enumeration oracle matches induced conditionals.
ORACLE_MATCH_TOL = 1e-9
# 2**20 subsets is the largest enumeration we are willing to run.
MAX_ORACLE_ATOMS = 20


@dataclass(frozen=True)
class BoundResult:
    """Log-space bound value plus the outcome achieving the minimum ratio."""

    log_max_probability: float
    argmin_outcome: Label

    @property
    def value(self) -> float:
        return float(np.exp(self.log_max_probability))


def max_probability(prior: FiniteDistribution, conditional: FiniteDistribution) -> BoundResult:
    """Tight upper bound on P(sigma) for any event inducing this conditional.

    Returns the minimum of log P(v) - log P(v | sigma) over outcomes with
    positive conditional mass, clamped to 0 from above: both vectors sum to
    one, so some ratio is <= 1 and only rounding can push the minimum
    positive.  If the prior gives zero mass to a supported outcome the event
    itself must be null and the bound is -inf in log space.  Ties go to the
    lowest outcome index.
    """
    _require_same_range(prior, conditional, "bound computations")
    supp = conditional.support
    idx = np.flatnonzero(supp)
    ratios = prior.logp[idx] - conditional.logp[idx]  # -inf where prior mass is zero
    k = int(np.argmin(ratios))
    return BoundResult(min(0.0, float(ratios[k])), prior.range.labels[idx[k]])


def softmax_probability(prior: FiniteDistribution, conditional: FiniteDistribution,
                        alpha: float) -> float:
    """Log of the soft bound: a smooth minimum of the per-outcome ratios.

    log P_alpha = -(1/alpha) * logsumexp(-alpha * r) with r the vector of
    log-ratios over the conditional's support.  Monotone non-decreasing in
    alpha and bounded above by max_probability; the gap to the hard bound is
    at most log(support size) / alpha.
    """
    require_alpha(alpha)
    _require_same_range(prior, conditional, "bound computations")
    return float(_log_soft_bound(conditional.logp, conditional.support, prior.logp, alpha))


def _log_soft_bound(conditional: np.ndarray, supp: np.ndarray, prior: np.ndarray,
                    alpha: float) -> np.ndarray:
    """softmax_probability of each row of conditional (..., K) against prior (K,).

    The rows share the support mask supp (K,).  compress, not
    conditional[..., supp], keeps the rows C-ordered, so each sums in the
    order of a single row (see the objectives kernels).
    """
    if (prior[supp] == NEG_INF).any():
        # event must be null: zero prior mass on a supported outcome
        return np.full(conditional.shape[:-1], NEG_INF)
    return soft_min(prior[supp] - conditional.compress(supp, axis=-1), alpha, axis=-1)


def alpha_skeleton(dist: FiniteDistribution, alpha: float) -> FiniteDistribution:
    """Renormalized power transform: mass proportional to P(v) ** alpha.

    alpha = 1 returns the input unchanged; alpha > 1 sharpens toward the
    argmax, 0 < alpha < 1 flattens, and alpha = 0 is the flat limit, uniform
    over the support.  alpha > 0 preserves the support exactly.  Negative
    alpha inverts the ordering and therefore requires full support.
    Composing skeletons multiplies their exponents.  alpha must be finite.
    """
    if not math.isfinite(alpha):
        raise NonFiniteParameter(f"alpha must be finite, got {alpha!r}")
    if alpha == 1.0:
        return dist
    logp = dist.logp
    if alpha < 0 and not np.all(dist.support):
        raise NegativeAlphaOnZeroMass(
            "negative alpha would assign infinite mass to zero-probability outcomes")
    if alpha == 0.0:
        # one-sided limit from alpha -> 0+: uniform over the support
        scaled = np.where(dist.support, 0.0, NEG_INF)
    else:
        scaled = alpha * logp
    return FiniteDistribution.from_logp(dist.range, scaled, normalize=True)


@dataclass(frozen=True)
class ExtensionReport:
    """Bound comparison across a refinement; fine can never beat coarse upward."""

    fine: BoundResult
    coarse: BoundResult
    holds: bool


def check_extension_monotonicity(prior_fine: FiniteDistribution,
                                 conditional_fine: FiniteDistribution,
                                 r: Refinement) -> ExtensionReport:
    """Verify that refining the variable only tightens the bound.

    A finer variable sees more structure of the event, so its bound is at
    most the bound computed after projecting both distributions onto the
    coarse range.  Holds up to EXTENSION_LOG_SLACK of float noise.
    """
    fine = max_probability(prior_fine, conditional_fine)
    coarse = max_probability(coarsen(prior_fine, r), coarsen(conditional_fine, r))
    holds = fine.log_max_probability <= coarse.log_max_probability + EXTENSION_LOG_SLACK
    return ExtensionReport(fine, coarse, holds)


def exhaustive_bound_oracle(atom_probs: Sequence[float], variable_map: Sequence[Label],
                            conditional: FiniteDistribution) -> Optional[float]:
    """Brute-force supremum of P(sigma) over every event on an explicit sample space.

    The sample space has one atom per entry of atom_probs; variable_map sends
    each atom to an outcome of the conditional's range.  Every non-null subset
    whose induced conditional matches the target within ORACLE_MATCH_TOL
    (linear space, per outcome) is a candidate event; the largest candidate
    probability is returned, or None when no subset matches.

    This is deliberately independent of max_probability so it can serve as a
    test oracle: enumeration only, no ratio arithmetic.
    """
    p = np.asarray(atom_probs, dtype=float)
    n = p.size
    if n > MAX_ORACLE_ATOMS:
        raise SpaceTooLarge(f"{n} atoms would need 2**{n} subsets; cap is {MAX_ORACLE_ATOMS}")
    if np.any(p < 0):
        raise NegativeMass("atom probabilities must be non-negative")
    if abs(float(p.sum()) - 1.0) > SUM_REJECT_TOL:
        raise SumOutOfTolerance(f"atom probabilities sum to {float(p.sum())!r}")
    if len(variable_map) != n:
        raise LabelOutOfRange("variable_map must assign an outcome to every atom")
    cols = np.array([conditional.range.index(lab) for lab in variable_map], dtype=int)
    target = conditional.probs
    m = len(conditional.range)
    # per-outcome atom mass, so subset sums become one matmul per chunk
    atom_by_outcome = np.zeros((n, m))
    atom_by_outcome[np.arange(n), cols] = p

    best: Optional[float] = None
    total = 1 << n
    chunk = 1 << 16
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bits = (masks[:, None] >> np.arange(n)[None, :]) & 1  # (subsets, atoms)
        outcome_mass = bits.astype(float) @ atom_by_outcome   # (subsets, outcomes)
        event_prob = outcome_mass.sum(axis=1)
        positive = event_prob > 0
        if not np.any(positive):
            continue
        induced = outcome_mass[positive] / event_prob[positive, None]
        matches = np.all(np.abs(induced - target[None, :]) <= ORACLE_MATCH_TOL, axis=1)
        if np.any(matches):
            cand = float(event_prob[positive][matches].max())
            best = cand if best is None else max(best, cand)
    return best
