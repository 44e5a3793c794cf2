"""Training objectives that score a model event against an oracle event.

Two events over the same finite variable V: a parameterized model M and a
fixed oracle M*.  Each is identified by the conditional distribution it
induces on V (see bounds).  Every objective is the sum of two terms, and
each term depends on one configuration axis only:

likelihood term, chosen by the assumption on how M* relates to M
    "cond-independent"  M and M* are conditionally independent given V, so
                        P(M, M* | v) factors and the term is
                        log P(M* | M) = log sum_v oracle(v) model(v) / prior(v)
                        up to the constant log P(M*).
    "oracle-subset"     the oracle event is contained in the model event;
                        the term becomes a soft minimum over the oracle's
                        support of log model(v) - log oracle(v).

penalty term, chosen by the kind
    "likelihood"    none: the objective is the likelihood term alone.
    "intersection"  the log soft bound on P(M), which charges the model for
                    the probability its own event could at most carry, so
                    maximizing the sum finds events that are both
                    oracle-compatible and individually probable.

Values are reported up to additive constants that do not depend on the
model parameters; anything dropped is listed by name in
dropped_constant_terms so downstream comparisons stay honest.

Gradients are taken with respect to the model's log-probabilities in the
gauge where the model stays normalized.  Each term contributes one
probability vector: the likelihood term an attraction (the posterior given
both events, or the soft-min weights) and the penalty term a repulsion
(the model itself, or the soft bound's ratio skeleton).  Every gradient is
attraction minus repulsion, so its entries sum to zero and it maps through
any parameterization Jacobian unchanged.  gradient_terms exposes the two
vectors directly; the Monte Carlo estimator in optimize samples from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    FiniteDistribution,
    Parameterization,
    apply_parameterization,
    parameterization_jacobian,
    _require_same_range,
)
from .errors import (
    EmptyIntersectionSupport,
    NonFiniteEncountered,
    OracleSupportEscapesModel,
    RangeMismatch,
    require_alpha,
)
from .logspace import NEG_INF, logsumexp, soft_min
from .bounds import softmax_probability

__all__ = [
    "KINDS",
    "ASSUMPTIONS",
    "ARGMAX_LOG_TOL",
    "ObjectiveConfig",
    "ObjectiveValue",
    "GradientVector",
    "posterior_given_both",
    "likelihood_concentration_residual",
    "evaluate",
    "gradient_terms",
    "gradient_logp",
    "value_at_theta",
    "gradient_at_theta",
]

KINDS = ("likelihood", "intersection")
ASSUMPTIONS = ("cond-independent", "oracle-subset")

# Log-space tolerance when collecting the argmax set of oracle/prior ratios.
ARGMAX_LOG_TOL = 1e-12

# Name used in dropped_constant_terms for the oracle event's own log-probability,
# which shifts the likelihood by a model-independent amount.
_DROPPED_ORACLE_MASS = "log_prob_oracle_event"


@dataclass(frozen=True)
class ObjectiveConfig:
    """Which objective to evaluate, against which prior, at which sharpness."""

    kind: str
    assumption: str
    alpha: float
    prior: FiniteDistribution

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RangeMismatch(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.assumption not in ASSUMPTIONS:
            raise RangeMismatch(f"assumption must be one of {ASSUMPTIONS}, got {self.assumption!r}")
        require_alpha(self.alpha)


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective value plus the names of any dropped additive constants."""

    value: float
    dropped_constant_terms: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class GradientVector:
    """Gradient in the normalized-model gauge; d_logp entries sum to zero."""

    d_logp: np.ndarray
    d_theta: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        d = np.asarray(self.d_logp, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d_logp", d)
        if self.d_theta is not None:
            t = np.asarray(self.d_theta, dtype=float)
            t.setflags(write=False)
            object.__setattr__(self, "d_theta", t)


def _joint_support(model: FiniteDistribution, oracle: FiniteDistribution,
                   prior: FiniteDistribution) -> np.ndarray:
    _require_same_range(model, oracle, "objectives")
    _require_same_range(model, prior, "objectives")
    return model.support & oracle.support & prior.support


def posterior_given_both(model: FiniteDistribution, oracle: FiniteDistribution,
                         prior: FiniteDistribution) -> FiniteDistribution:
    """Distribution over outcomes given that both events occurred.

    Proportional to model(v) * oracle(v) / prior(v) on the outcomes all
    three support.  Outcomes outside the prior's support are almost-surely
    absent and contribute nothing.
    """
    supp = _joint_support(model, oracle, prior)
    if not np.any(supp):
        raise EmptyIntersectionSupport(
            "model, oracle, and prior share no supported outcome; the joint event is null")
    logpost = np.where(supp, model.logp + oracle.logp - prior.logp, NEG_INF)
    return FiniteDistribution.from_logp(model.range, logpost, normalize=True)


def likelihood_concentration_residual(model: FiniteDistribution, oracle: FiniteDistribution,
                                      prior: FiniteDistribution) -> float:
    """Model mass outside the argmax set of oracle(v) / prior(v).

    Maximizing the likelihood concentrates the model on the outcomes where
    the oracle most exceeds the prior; this residual is the mass not yet
    concentrated there.  Ratio ties are collected within ARGMAX_LOG_TOL in
    log space.
    """
    _require_same_range(model, oracle, "objectives")
    _require_same_range(model, prior, "objectives")
    # oracle mass 0 never binds; positive oracle mass on a zero-prior outcome dominates all
    ratios = np.where(oracle.support,
                      np.where(prior.support, oracle.logp - prior.logp, np.inf),
                      NEG_INF)
    top = float(np.max(ratios))
    if top == np.inf:
        in_set = ratios == np.inf
    else:
        in_set = ratios >= top - ARGMAX_LOG_TOL
    return float(model.probs[~in_set].sum())


# Term tables.  Likelihood term by assumption: (value, attraction, dropped
# constants) of (model, oracle, prior, alpha).  Penalty term by kind: (value,
# repulsion) of (model, prior, alpha).  Public functions are looked up at call
# time, so a wrapper installed on them (as the span tracer does) still sees them.


def _independent_value(model: FiniteDistribution, oracle: FiniteDistribution,
                       prior: FiniteDistribution, alpha: float) -> float:
    """log P(M* | M) up to the constant log P(M*).

    Equals log sum_v oracle(v) * model(v) / prior(v); -inf when the two
    events share no prior-supported outcome.
    """
    supp = _joint_support(model, oracle, prior)
    return logsumexp((model.logp + oracle.logp - prior.logp)[supp])


def _check_subset(model: FiniteDistribution, oracle: FiniteDistribution) -> np.ndarray:
    _require_same_range(model, oracle, "objectives")
    osupp = oracle.support
    if np.any(osupp & ~model.support):
        raise OracleSupportEscapesModel(
            "subset assumption requires the model to support every oracle outcome")
    return osupp


def _subset_value(model: FiniteDistribution, oracle: FiniteDistribution,
                  prior: FiniteDistribution, alpha: float) -> float:
    """Soft minimum over the oracle's support of log model(v) - log oracle(v).

    Under the subset assumption P(M* | M) is at most the smallest such
    ratio; the soft minimum keeps the objective differentiable and tends to
    the hard minimum as alpha grows.
    """
    osupp = _check_subset(model, oracle)
    return soft_min(model.logp[osupp] - oracle.logp[osupp], alpha)


def _softmin_weights(model: FiniteDistribution, oracle: FiniteDistribution,
                     prior: FiniteDistribution, alpha: float) -> np.ndarray:
    """Probability vector proportional to (oracle/model) ** alpha on supp(oracle).

    The attraction toward the binding (smallest-ratio) outcomes.
    """
    osupp = _check_subset(model, oracle)
    scaled = -alpha * (model.logp[osupp] - oracle.logp[osupp])
    out = np.zeros(len(model.range))
    out[osupp] = np.exp(scaled - logsumexp(scaled))
    return out


def _ratio_skeleton(model: FiniteDistribution, prior: FiniteDistribution,
                    alpha: float) -> np.ndarray:
    """Probability vector proportional to (model/prior) ** alpha on supp(model).

    This is the exact repulsion term of the soft-bound penalty.  For a
    uniform prior it coincides with alpha_skeleton(model, alpha), so the
    critical points are models whose alpha-skeleton equals the attraction;
    at alpha = 1 it is the model itself, the likelihood's repulsion.
    """
    supp = model.support
    scaled = alpha * (model.logp[supp] - prior.logp[supp])
    if np.any(np.isinf(scaled) & (scaled > 0)):
        raise NonFiniteEncountered(
            "model mass on a zero-prior outcome makes the soft bound -inf; gradient undefined")
    out = np.zeros(len(model.range))
    out[supp] = np.exp(scaled - logsumexp(scaled))
    return out


_LIKELIHOOD_TERMS = {
    "cond-independent": (_independent_value,
                         lambda model, oracle, prior, alpha:
                             posterior_given_both(model, oracle, prior).probs,
                         (_DROPPED_ORACLE_MASS,)),
    "oracle-subset": (_subset_value, _softmin_weights, ()),
}

_PENALTY_TERMS = {
    # -0.0, not 0.0: x + -0.0 is x bit for bit, including x = -0.0
    "likelihood": (lambda model, prior, alpha: -0.0, lambda model, prior, alpha: model.probs),
    "intersection": (lambda model, prior, alpha: softmax_probability(prior, model, alpha),
                     _ratio_skeleton),
}


def evaluate(config: ObjectiveConfig, model: FiniteDistribution,
             oracle: FiniteDistribution) -> ObjectiveValue:
    """Likelihood term for config.assumption plus penalty term for config.kind."""
    lik_value, _, dropped = _LIKELIHOOD_TERMS[config.assumption]
    penalty_value, _ = _PENALTY_TERMS[config.kind]
    lik = lik_value(model, oracle, config.prior, config.alpha)
    return ObjectiveValue(lik + penalty_value(model, config.prior, config.alpha), dropped)


def gradient_terms(config: ObjectiveConfig, model: FiniteDistribution,
                   oracle: FiniteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The two probability vectors whose difference is the exact d_logp.

    First the attraction term (posterior or soft-min weights), then the
    repulsion term (model or ratio skeleton).  The Monte Carlo gradient
    estimator samples one empirical distribution from each.
    """
    _, attraction, _ = _LIKELIHOOD_TERMS[config.assumption]
    _, repulsion = _PENALTY_TERMS[config.kind]
    return (attraction(model, oracle, config.prior, config.alpha),
            repulsion(model, config.prior, config.alpha))


def gradient_logp(config: ObjectiveConfig, model: FiniteDistribution,
                  oracle: FiniteDistribution) -> GradientVector:
    """Attraction minus repulsion (see gradient_terms)."""
    attract, repulse = gradient_terms(config, model, oracle)
    return GradientVector(attract - repulse)


def value_at_theta(config: ObjectiveConfig, oracle: FiniteDistribution,
                   p: Parameterization, theta) -> float:
    """Objective value of the parameterized model at theta."""
    return evaluate(config, apply_parameterization(p, theta), oracle).value


def gradient_at_theta(config: ObjectiveConfig, oracle: FiniteDistribution,
                      p: Parameterization, theta) -> GradientVector:
    """d_logp pulled back through the parameterization Jacobian to d_theta."""
    model = apply_parameterization(p, theta)
    g = gradient_logp(config, model, oracle)
    jac = parameterization_jacobian(p, theta)
    return GradientVector(g.d_logp, jac.T @ g.d_logp)
