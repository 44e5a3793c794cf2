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

Each term has one builder, which binds the term to the model's support
mask once and checks the support the term is defined on, and one kernel,
which gives the term's value and its vector from one shifted array (see
logspace); all three terms share one soft minimum (logspace._soft_min_step),
the cond-independent likelihood at sharpness -1, where it is a log-sum-exp
and its weights the posterior, and only the other two read alpha
(ObjectiveConfig.reads_alpha).  A term whose event is null has the kernel
bounds._no_mass, -inf per row and no vector.  _bind picks a config's terms
by its assumption and kind and returns one kernel that does only the
arithmetic on the model rows, and builds no vectors when bound for the
value alone: for evaluate, values_at_thetas, gradient_terms and
optimize.ascend, which binds the full support once and binds again only for
an iterate past its divergence bound whose support differs.  The entry
points validate outcome ranges and finite parameters once per call.
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
    OracleSupportEscapesModel,
    _read_only,
    require_alpha,
    require_choice,
)
from .logspace import NEG_INF, _soft_min_step
from .bounds import _no_mass, _on_columns, _soft_bound_term

__all__ = [
    "KINDS",
    "ASSUMPTIONS",
    "ARGMAX_LOG_TOL",
    "ObjectiveConfig",
    "GradientVector",
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
        require_choice("kind", self.kind, KINDS)
        require_choice("assumption", self.assumption, ASSUMPTIONS)
        object.__setattr__(self, "alpha", require_alpha(self.alpha))  # a report serializes
        if not isinstance(self.prior, FiniteDistribution):
            raise InvalidSetting(f"prior must be a FiniteDistribution, got {self.prior!r}")

    @property
    def dropped_constant_terms(self) -> tuple[str, ...]:
        """Names of the additive constants left out of every value of this objective."""
        return (_DROPPED_ORACLE_MASS,) if self.assumption == "cond-independent" else ()

    @property
    def reads_alpha(self) -> bool:
        """Whether a term is a soft minimum at sharpness alpha, the subset likelihood or the
        soft bound; if not, every alpha gives the same values bit for bit."""
        return self.assumption == "oracle-subset" or self.kind == "intersection"


@dataclass(frozen=True, eq=False)
class GradientVector:
    """Gradient in the normalized-model gauge; d_logp entries sum to zero."""

    d_logp: np.ndarray
    d_theta: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "d_logp", _read_only(self.d_logp))
        if self.d_theta is not None:
            object.__setattr__(self, "d_theta", _read_only(self.d_theta))


def _ratio_argmax_set(oracle: FiniteDistribution, prior: FiniteDistribution) -> np.ndarray:
    """Mask of the outcomes where oracle(v) / prior(v) is largest, within ARGMAX_LOG_TOL."""
    # oracle mass 0 never binds; positive oracle mass on a zero-prior outcome dominates all
    ratios = np.where(oracle.support,
                      np.where(prior.support, oracle.logp - prior.logp, np.inf),
                      NEG_INF)
    top = float(np.max(ratios))
    return ratios == np.inf if top == np.inf else ratios >= top - ARGMAX_LOG_TOL


# Term builders.  Each binds one term to the model's support mask supp (K,) and what
# the term reads of the oracle's and the prior's log-probabilities (K,) and alpha: it
# builds the term's column masks and constant columns once, and returns a kernel that
# maps the model's log-probabilities (..., K), whose rows share supp, to the term's
# value (...) and, with gradient, its attraction or repulsion (..., K) (else None).
# Each checks the support its term is defined on, once, as it binds: where the term's
# event is null, its value is -inf and it has no vector, so a builder bound for the
# gradient raises, and one bound for the value alone returns bounds._no_mass.
#
# A kernel picks its columns with compress (bounds._on_columns), which keeps the
# rows C-ordered: each row then sums in the same order as a single 1-D row, so a
# batch of models gives bit for bit the values of one model at a time.
# model[..., supp] on a 2-D model gives a column-major copy whose row sums can
# differ in the last bit.  A full mask takes no pick and no placement, decided at
# bind time: every caller's model is C-ordered already.  A kernel adds its constant
# columns one at a time, model + oracle - prior on the picked columns: folding
# them into one column at bind time would round differently.


def _independent_term(supp: np.ndarray, oracle: np.ndarray, prior: np.ndarray,
                      gradient: bool = True):
    """log P(M* | M) up to the constant log P(M*), and the posterior given both events.

    The value is log sum_v oracle(v) * model(v) / prior(v) over the joint
    support, and the posterior is those terms normalized, zero off it.  With no
    joint support the value is -inf: EmptyIntersectionSupport with gradient.
    """
    joint = supp & (oracle > NEG_INF) & (prior > NEG_INF)
    if not joint.any():
        if gradient:
            raise EmptyIntersectionSupport(
                "model, oracle, and prior share no supported outcome; the joint event is null")
        return _no_mass
    oracle_on, prior_on = oracle[joint], prior[joint]
    return _on_columns(joint, lambda model: _soft_min_step(model + oracle_on - prior_on, -1.0,
                                                           gradient))


def _subset_term(supp: np.ndarray, oracle: np.ndarray, alpha: float, gradient: bool = True):
    """Soft minimum over the oracle's support of log model(v) - log oracle(v), and the
    attraction (oracle/model) ** alpha there, normalized.

    Under the subset assumption P(M* | M) is at most the smallest such
    ratio; the soft minimum keeps the objective differentiable and tends to
    the hard minimum as alpha grows.  An oracle outcome the model rules out
    breaks the assumption: OracleSupportEscapesModel, with or without gradient.
    """
    osupp = oracle > NEG_INF
    if (osupp & ~supp).any():
        raise OracleSupportEscapesModel(
            "subset assumption requires the model to support every oracle outcome")
    oracle_on = oracle[osupp]
    return _on_columns(osupp, lambda model: _soft_min_step(model - oracle_on, alpha, gradient))


def _bind(config: ObjectiveConfig, supp: np.ndarray, oracle: np.ndarray, gradient: bool = True):
    """config's kernel for models whose rows share the support mask supp, against the
    oracle's log-probabilities: model (..., K) -> (value, attraction, repulsion), the
    vectors None without gradient.  Each term checks its support as it binds, the
    likelihood first.  A null term's -inf plus the other's value, finite or -inf, is -inf.
    The likelihood kind has no penalty: its value is the likelihood term's, its repulsion
    the model itself, exp(model)."""
    prior, alpha = config.prior.logp, config.alpha
    likelihood = (_subset_term(supp, oracle, alpha, gradient)
                  if config.assumption == "oracle-subset"
                  else _independent_term(supp, oracle, prior, gradient))
    if config.kind == "likelihood":
        return lambda model: likelihood(model) + ((np.exp(model) if gradient else None),)
    penalty = _soft_bound_term(supp, prior, alpha, gradient)

    def kernel(model: np.ndarray):
        lik, attraction = likelihood(model)
        pen, repulsion = penalty(model)
        return lik + pen, attraction, repulsion
    return kernel


def _values_of_rows(config: ObjectiveConfig, oracle: FiniteDistribution,
                    model: np.ndarray) -> np.ndarray:
    """Objective value of each model row (N, K), rows of any support."""
    if (model > NEG_INF).all():
        return _bind(config, np.ones(model.shape[-1], dtype=bool), oracle.logp,
                     gradient=False)(model)[0]
    # a logit gap beyond the float range zeroes an outcome: rows differ in support
    return np.array([_bind(config, row > NEG_INF, oracle.logp, gradient=False)(row)[0]
                     for row in model])


def evaluate(config: ObjectiveConfig, model: FiniteDistribution,
             oracle: FiniteDistribution) -> float:
    """Likelihood term for config.assumption plus penalty term for config.kind, up to
    config.dropped_constant_terms."""
    _require_ranges(model.range, oracle, config.prior)
    return float(_bind(config, model.support, oracle.logp, gradient=False)(model.logp)[0])


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
    _, attraction, repulsion = _bind(config, model.support, oracle.logp)(model.logp)
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
