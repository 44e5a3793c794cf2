"""Scalar reference for the objective kernels: one model at a time, no batching.

A copy of the per-object term bodies and the per-theta loop the package used
before its terms became array kernels.  The tests require the kernels to
agree with it bit for bit (np.array_equal), errors included.  It builds on
nothing but FiniteDistribution, OutcomeRange and the error classes, so a
change to a kernel can not change the reference with it.

The old bodies computed log model + log oracle - log prior before masking;
on an outcome none of the three supports that is -inf - -inf, so they run
under np.errstate(invalid="ignore") here.
"""

from __future__ import annotations

import numpy as np

from maxprob import (
    EmptyIntersectionSupport,
    FiniteDistribution,
    NonFiniteEncountered,
    OracleSupportEscapesModel,
    RangeMismatch,
)
from maxprob.distributions import _check_theta

NEG_INF = float("-inf")


def logsumexp(a) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return NEG_INF
    m = float(np.max(a))
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.sum(np.exp(a - m))))


def soft_min(a, alpha: float) -> float:
    return -logsumexp(-alpha * np.asarray(a, dtype=float)) / alpha


def log_sigmoid(x: float) -> float:
    if x >= 0:
        return -float(np.log1p(np.exp(-x)))
    return x - float(np.log1p(np.exp(x)))


def apply_parameterization(p, theta) -> FiniteDistribution:
    th = _check_theta(p, theta)
    if p.kind == "sigmoid-bernoulli":
        t = float(th[0])
        logp = np.array([log_sigmoid(t), log_sigmoid(-t)])
    else:
        logp = th - logsumexp(th)
    return FiniteDistribution.from_logp(p.range, logp, normalize=True)


def _same_range(a, b) -> None:
    if a.range != b.range:
        raise RangeMismatch("ranges differ")


def _joint_support(model, oracle, prior) -> np.ndarray:
    _same_range(model, oracle)
    _same_range(model, prior)
    return model.support & oracle.support & prior.support


def posterior_given_both(model, oracle, prior) -> FiniteDistribution:
    supp = _joint_support(model, oracle, prior)
    if not np.any(supp):
        raise EmptyIntersectionSupport("no joint support")
    with np.errstate(invalid="ignore"):
        logpost = np.where(supp, model.logp + oracle.logp - prior.logp, NEG_INF)
    return FiniteDistribution.from_logp(model.range, logpost, normalize=True)


def _independent_value(model, oracle, prior, alpha) -> float:
    supp = _joint_support(model, oracle, prior)
    with np.errstate(invalid="ignore"):
        return logsumexp((model.logp + oracle.logp - prior.logp)[supp])


def _check_subset(model, oracle) -> np.ndarray:
    _same_range(model, oracle)
    osupp = oracle.support
    if np.any(osupp & ~model.support):
        raise OracleSupportEscapesModel("oracle escapes model")
    return osupp


def _subset_value(model, oracle, prior, alpha) -> float:
    osupp = _check_subset(model, oracle)
    return soft_min(model.logp[osupp] - oracle.logp[osupp], alpha)


def _softmin_weights(model, oracle, prior, alpha) -> np.ndarray:
    osupp = _check_subset(model, oracle)
    scaled = -alpha * (model.logp[osupp] - oracle.logp[osupp])
    out = np.zeros(len(model.range))
    out[osupp] = np.exp(scaled - logsumexp(scaled))
    return out


def softmax_probability(prior, conditional, alpha) -> float:
    _same_range(prior, conditional)
    supp = conditional.support
    ratios = prior.logp[supp] - conditional.logp[supp]
    if np.any(ratios == NEG_INF):
        return NEG_INF
    return -logsumexp(-alpha * ratios) / alpha


def _ratio_skeleton(model, prior, alpha) -> np.ndarray:
    supp = model.support
    scaled = alpha * (model.logp[supp] - prior.logp[supp])
    if np.any(np.isinf(scaled) & (scaled > 0)):
        raise NonFiniteEncountered("zero-prior outcome")
    out = np.zeros(len(model.range))
    out[supp] = np.exp(scaled - logsumexp(scaled))
    return out


_LIKELIHOOD_TERMS = {
    "cond-independent": (_independent_value,
                         lambda model, oracle, prior, alpha:
                             posterior_given_both(model, oracle, prior).probs),
    "oracle-subset": (_subset_value, _softmin_weights),
}

_PENALTY_TERMS = {
    "likelihood": (lambda model, prior, alpha: -0.0, lambda model, prior, alpha: model.probs),
    "intersection": (lambda model, prior, alpha: softmax_probability(prior, model, alpha),
                     _ratio_skeleton),
}


def evaluate(config, model, oracle) -> float:
    lik_value, _ = _LIKELIHOOD_TERMS[config.assumption]
    penalty_value, _ = _PENALTY_TERMS[config.kind]
    lik = lik_value(model, oracle, config.prior, config.alpha)
    return lik + penalty_value(model, config.prior, config.alpha)


def gradient_terms(config, model, oracle) -> tuple[np.ndarray, np.ndarray]:
    _, attraction = _LIKELIHOOD_TERMS[config.assumption]
    _, repulsion = _PENALTY_TERMS[config.kind]
    return (attraction(model, oracle, config.prior, config.alpha),
            repulsion(model, config.prior, config.alpha))


def value_at_theta(config, oracle, p, theta) -> float:
    return evaluate(config, apply_parameterization(p, theta), oracle)


def values_at_thetas(config, oracle, p, thetas) -> np.ndarray:
    """The per-theta loop: one validated model and one evaluate per row."""
    return np.array([value_at_theta(config, oracle, p, t) for t in thetas])
