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
model parameters; anything dropped is listed by name in the config's
dropped_constant_terms so downstream comparisons stay honest.

Gradients are taken with respect to the model's log-probabilities in the
gauge where the model stays normalized.  Each term contributes one
probability vector: the likelihood term an attraction (the posterior given
both events, or the soft-min weights) and the penalty term a repulsion
(the model itself, or the soft bound's ratio skeleton).  Every gradient is
attraction minus repulsion, so its entries sum to zero and a
parameterization pulls it back to the parameters by slicing (see
distributions._pullback).  gradient_terms exposes the two vectors directly;
the Monte Carlo estimator in optimize samples from them.

Each term has two array kernels over raw log-probabilities: the model is
(..., K), one row per model, and the oracle and the prior are (K,).  Its
value kernel serves a whole grid of parameter rows (values_at_thetas) and
builds no (N, K) vector.  Its step kernel gives the value and the term's
vector from one logsumexp, bit for bit the same; one step dispatch runs
them for each step of optimize.ascend and for gradient_terms.  The
cond-independent step needs a second logsumexp when the joint support has
holes: the posterior is normalized over the whole row, -inf padded, and
numpy sums 8 or more entries in 8 partial sums, so the zeros the padding
adds can move the last bit of that sum.  Validation lives in the entry
points: outcome ranges and finite parameters are checked there, once per
call, and the support conditions of each term before its kernels run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    FiniteDistribution,
    Parameterization,
    apply_parameterization,
    _check_thetas,
    _pullback,
    _require_ranges,
    _theta_logp,
)
from .errors import (
    EmptyIntersectionSupport,
    InvalidSetting,
    NonFiniteEncountered,
    OracleSupportEscapesModel,
    require_alpha,
)
from .logspace import NEG_INF, log_softmax, logsumexp, soft_min, _log_normalize
from .bounds import _log_soft_bound

__all__ = [
    "KINDS",
    "ASSUMPTIONS",
    "ARGMAX_LOG_TOL",
    "ObjectiveConfig",
    "GradientVector",
    "posterior_given_both",
    "likelihood_concentration_residual",
    "evaluate",
    "gradient_terms",
    "gradient_logp",
    "value_at_theta",
    "values_at_thetas",
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
            raise InvalidSetting(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.assumption not in ASSUMPTIONS:
            raise InvalidSetting(f"assumption must be one of {ASSUMPTIONS}, got {self.assumption!r}")
        require_alpha(self.alpha)

    @property
    def dropped_constant_terms(self) -> tuple[str, ...]:
        """Names of the additive constants left out of every value of this objective."""
        return (_DROPPED_ORACLE_MASS,) if self.assumption == "cond-independent" else ()


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


def _require_joint_support(supp: np.ndarray, oracle: np.ndarray, prior: np.ndarray) -> None:
    if not (supp & (oracle > NEG_INF) & (prior > NEG_INF)).any():
        raise EmptyIntersectionSupport(
            "model, oracle, and prior share no supported outcome; the joint event is null")


def _require_supports(config: ObjectiveConfig, supp: np.ndarray, oracle: np.ndarray,
                      gradient: bool) -> None:
    """The support conditions under which config's value (or gradient) is defined.

    supp is the model's support mask and oracle the oracle's log-probabilities,
    both over the prior's range.
    """
    prior = config.prior.logp
    if config.assumption == "oracle-subset":
        if ((oracle > NEG_INF) & ~supp).any():
            raise OracleSupportEscapesModel(
                "subset assumption requires the model to support every oracle outcome")
    elif gradient:
        _require_joint_support(supp, oracle, prior)
    if gradient and config.kind == "intersection" and (supp & (prior == NEG_INF)).any():
        raise NonFiniteEncountered(
            "model mass on a zero-prior outcome makes the soft bound -inf; gradient undefined")


def posterior_given_both(model: FiniteDistribution, oracle: FiniteDistribution,
                         prior: FiniteDistribution) -> FiniteDistribution:
    """Distribution over outcomes given that both events occurred.

    Proportional to model(v) * oracle(v) / prior(v) on the outcomes all
    three support.  Outcomes outside the prior's support are almost-surely
    absent and contribute nothing.
    """
    _require_ranges(model.range, oracle, prior)
    _require_joint_support(model.support, oracle.logp, prior.logp)
    return FiniteDistribution(
        model.range, _log_posterior(*_joint_terms(model.logp, model.support, oracle.logp,
                                                  prior.logp)))


def likelihood_concentration_residual(model: FiniteDistribution, oracle: FiniteDistribution,
                                      prior: FiniteDistribution) -> float:
    """Model mass outside the argmax set of oracle(v) / prior(v).

    Maximizing the likelihood concentrates the model on the outcomes where
    the oracle most exceeds the prior; this residual is the mass not yet
    concentrated there.  Ratio ties are collected within ARGMAX_LOG_TOL in
    log space.
    """
    _require_ranges(model.range, oracle, prior)
    return float(model.probs[~_ratio_argmax_set(oracle, prior)].sum())


def _ratio_argmax_set(oracle: FiniteDistribution, prior: FiniteDistribution) -> np.ndarray:
    """Mask of the outcomes where oracle(v) / prior(v) is largest, within ARGMAX_LOG_TOL."""
    # oracle mass 0 never binds; positive oracle mass on a zero-prior outcome dominates all
    ratios = np.where(oracle.support,
                      np.where(prior.support, oracle.logp - prior.logp, np.inf),
                      NEG_INF)
    top = float(np.max(ratios))
    return ratios == np.inf if top == np.inf else ratios >= top - ARGMAX_LOG_TOL


# Term kernels.  Each takes the model's log-probabilities (..., K), whose rows
# share the support mask supp (K,), plus the oracle's and the prior's
# log-probabilities (K,) and alpha.  A value kernel returns (...), a step
# kernel also the attraction or repulsion (..., K).  They trust their inputs:
# the support conditions are checked by _require_supports before they run.
#
# Columns are selected with compress, which keeps the rows C-ordered: each
# row then sums in the same order as a single 1-D row, so a batch of models
# gives bit for bit the values of one model at a time.  model[..., supp] on a
# 2-D model gives a column-major copy whose row sums can differ in the last bit.


def _joint_terms(model: np.ndarray, supp: np.ndarray, oracle: np.ndarray,
                 prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The joint support mask and log model + log oracle - log prior on it."""
    joint = supp & (oracle > NEG_INF) & (prior > NEG_INF)
    return joint, model.compress(joint, axis=-1) + oracle[joint] - prior[joint]


def _on(mask: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w (..., mask.sum()) placed on the columns of mask, zero elsewhere."""
    out = np.zeros(w.shape[:-1] + mask.shape)
    out[..., mask] = w
    return out


def _independent_value(model: np.ndarray, supp: np.ndarray, oracle: np.ndarray,
                       prior: np.ndarray, alpha: float) -> np.ndarray:
    """log P(M* | M) up to the constant log P(M*).

    Equals log sum_v oracle(v) * model(v) / prior(v); -inf when the two
    events share no prior-supported outcome.
    """
    joint, terms = _joint_terms(model, supp, oracle, prior)
    if not joint.any():
        return np.full(model.shape[:-1], NEG_INF)
    return logsumexp(terms, axis=-1)


def _log_posterior(joint: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Log of the posterior given both events, from a non-empty _joint_terms."""
    logpost = np.full(terms.shape[:-1] + joint.shape, NEG_INF)
    logpost[..., joint] = terms
    return log_softmax(logpost)


def _independent_step(model: np.ndarray, supp: np.ndarray, oracle: np.ndarray,
                      prior: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """_independent_value and the posterior given both events; one logsumexp on a full joint."""
    joint, terms = _joint_terms(model, supp, oracle, prior)
    if joint.all():
        logpost, value = _log_normalize(terms)
        return value, np.exp(logpost)
    return logsumexp(terms, axis=-1), np.exp(_log_posterior(joint, terms))


def _subset_value(model: np.ndarray, supp: np.ndarray, oracle: np.ndarray,
                  prior: np.ndarray, alpha: float) -> np.ndarray:
    """Soft minimum over the oracle's support of log model(v) - log oracle(v).

    Under the subset assumption P(M* | M) is at most the smallest such
    ratio; the soft minimum keeps the objective differentiable and tends to
    the hard minimum as alpha grows.
    """
    osupp = oracle > NEG_INF
    return soft_min(model.compress(osupp, axis=-1) - oracle[osupp], alpha, axis=-1)


def _subset_step(model: np.ndarray, supp: np.ndarray, oracle: np.ndarray,
                 prior: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """_subset_value and the attraction (oracle/model) ** alpha on supp(oracle), normalized."""
    osupp = oracle > NEG_INF
    logw, lse = _log_normalize(-alpha * (model.compress(osupp, axis=-1) - oracle[osupp]))
    return -lse / alpha, _on(osupp, np.exp(logw))


def _soft_bound_step(model: np.ndarray, supp: np.ndarray, prior: np.ndarray,
                     alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """_log_soft_bound and the repulsion (model/prior) ** alpha on supp(model), normalized.

    The bound scales -alpha * (prior - model), this array up to the sign of
    an exact zero, which moves no bit of the logsumexp.  For a uniform prior
    the repulsion is alpha_skeleton(model, alpha).
    """
    logw, lse = _log_normalize(alpha * (model.compress(supp, axis=-1) - prior[supp]))
    return -lse / alpha, _on(supp, np.exp(logw))


# (value kernel, step kernel) per term
_LIKELIHOOD_TERMS = {
    "cond-independent": (_independent_value, _independent_step),
    "oracle-subset": (_subset_value, _subset_step),
}

_PENALTY_TERMS = {
    # -0.0, not 0.0: x + -0.0 is x bit for bit, including x = -0.0; a scalar broadcasts
    "likelihood": (lambda model, supp, prior, alpha: -0.0,
                   lambda model, supp, prior, alpha: (-0.0, np.exp(model))),
    "intersection": (_log_soft_bound, _soft_bound_step),
}


def _values(config: ObjectiveConfig, model: np.ndarray, supp: np.ndarray,
            oracle: np.ndarray) -> np.ndarray:
    """Objective value of each row of model (..., K), whose rows share supp."""
    _require_supports(config, supp, oracle, gradient=False)
    lik_value, _ = _LIKELIHOOD_TERMS[config.assumption]
    penalty_value, _ = _PENALTY_TERMS[config.kind]
    prior, alpha = config.prior.logp, config.alpha
    return lik_value(model, supp, oracle, prior, alpha) + penalty_value(model, supp, prior, alpha)


def _values_of_rows(config: ObjectiveConfig, oracle: FiniteDistribution,
                    model: np.ndarray) -> np.ndarray:
    """Objective value of each model row (N, K), rows of any support."""
    if (model > NEG_INF).all():
        return _values(config, model, np.ones(model.shape[-1], dtype=bool), oracle.logp)
    # a logit gap beyond the float range zeroes an outcome: rows differ in support
    return np.array([_values(config, row, row > NEG_INF, oracle.logp) for row in model])


def _step(config: ObjectiveConfig, model: np.ndarray, supp: np.ndarray,
          oracle: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_values, attraction and repulsion of each row of model (..., K), whose rows share supp."""
    _require_supports(config, supp, oracle, gradient=True)  # includes the value's conditions
    _, lik_step = _LIKELIHOOD_TERMS[config.assumption]
    _, penalty_step = _PENALTY_TERMS[config.kind]
    prior, alpha = config.prior.logp, config.alpha
    lik, attraction = lik_step(model, supp, oracle, prior, alpha)
    penalty, repulsion = penalty_step(model, supp, prior, alpha)
    return lik + penalty, attraction, repulsion


def evaluate(config: ObjectiveConfig, model: FiniteDistribution,
             oracle: FiniteDistribution) -> float:
    """Likelihood term for config.assumption plus penalty term for config.kind, up to
    config.dropped_constant_terms."""
    _require_ranges(model.range, oracle, config.prior)
    return float(_values(config, model.logp, model.support, oracle.logp))


def values_at_thetas(config: ObjectiveConfig, oracle: FiniteDistribution,
                     p: Parameterization, thetas) -> np.ndarray:
    """Objective value at each parameter row of thetas (N, p.dim), in one call.

    Row i equals value_at_theta(config, oracle, p, thetas[i]) bit for bit.
    Every row is checked first, with the errors value_at_theta raises for one.
    """
    th = _check_thetas(p, thetas)
    _require_ranges(p.range, oracle, config.prior)
    return _values_of_rows(config, oracle, _theta_logp(p, th))


def gradient_terms(config: ObjectiveConfig, model: FiniteDistribution,
                   oracle: FiniteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """The two probability vectors whose difference is the exact d_logp.

    First the attraction term (posterior or soft-min weights), then the
    repulsion term (model or ratio skeleton).  The Monte Carlo gradient
    estimator samples one empirical distribution from each.
    """
    _require_ranges(model.range, oracle, config.prior)
    _, attraction, repulsion = _step(config, model.logp, model.support, oracle.logp)
    return attraction, repulsion


def gradient_logp(config: ObjectiveConfig, model: FiniteDistribution,
                  oracle: FiniteDistribution) -> GradientVector:
    """Attraction minus repulsion (see gradient_terms)."""
    attract, repulse = gradient_terms(config, model, oracle)
    return GradientVector(attract - repulse)


def value_at_theta(config: ObjectiveConfig, oracle: FiniteDistribution,
                   p: Parameterization, theta) -> float:
    """Objective value of the parameterized model at theta."""
    return evaluate(config, apply_parameterization(p, theta), oracle)


def gradient_at_theta(config: ObjectiveConfig, oracle: FiniteDistribution,
                      p: Parameterization, theta) -> GradientVector:
    """d_logp of the parameterized model at theta, pulled back to d_theta."""
    g = gradient_logp(config, apply_parameterization(p, theta), oracle)
    return GradientVector(g.d_logp, _pullback(p, g.d_logp))
