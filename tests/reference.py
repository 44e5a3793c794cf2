"""Scalar reference for the objective kernels: one model at a time, no batching.

Its logsumexp is the whole-array path logspace.logsumexp had beside its axis
kernel, before axis=None ran that kernel on the raveled input.  _logsumexp,
_shift and _log_normalize are that axis kernel and its normalization as they
were before one calm test decided every slice's float edges: only a single
slice's overflowing shift was silent, and a +inf or NaN entry gave NaN.

A copy of the per-object term bodies and the per-theta loop the package used
before its terms became array kernels, and before logspace shifted before it
scaled.  The tests require the kernels to agree with it within rounding
(helpers.rounding_bound), and to raise the same errors.  It builds on
nothing but FiniteDistribution, OutcomeRange, AscentTrace and the error
classes, so a change to a kernel can not change the reference with it.

It also keeps the explicit parameterization Jacobian and the ascent loop
that pulled each gradient back through it: the package slices instead
(distributions._pullback), and the tests require the two to agree.  The
same loop with the slice pullback, over evaluate and gradient_terms here,
is the oracle for optimize.ascend; over the package's own, it is ascend bit
for bit.  Its
apply_parameterization is a scalar softmax over theta padded with zero
logits, one family for both constructors.  sigmoid_logp keeps the map the
sigmoid family had before it became the softmax over (theta, 0): log_sigmoid
of theta and of -theta.  The tests hold the two within one ulp.

It keeps optimize.ascend as it was before the objective was bound to a
support once: ascend_stepwise calls _step on every iteration, which checks
the support conditions and rebuilds every mask and constant column from the
model's support.  Unlike the scalar reference above it runs on the
package's float arithmetic: on frozen copies of logspace's _shifted,
_log_normalize and _soft_min_step and of distributions._theta_logp, as they
were while every reduction, of a 1-D row too, kept a length-1 axis and each
step wrote theta into fresh zero-padded logits, and on the package's
_pullback.  The tests require ascend to match it bit for bit.

fd_gradient keeps the finite-difference loop that made two value calls per
coordinate, before one call of a rows function took the whole stencil; the
tests require the two to agree bit for bit.

The old bodies computed log model + log oracle - log prior before masking;
on an outcome none of the three supports that is -inf - -inf, so they run
under np.errstate(invalid="ignore") here.

It keeps the toy network's loss functions and training loop as they
were before one loss kernel and one backward pass served them: each loss
recomputed log-softmax on its own, and every minibatch evaluated the loss
and regularizer that training then discarded.  They use the package only
for ToyNet.forward and the report dataclasses, and skip its input checks.
train_per_tensor keeps nn.train as it was before it updated one flat weight
vector in place: it replaces each tensor by p - step * g and fancy-indexes
each minibatch.  It runs on the backward pass, the loss kernel and the
epoch metrics as they were before training subtracted one-hot label rows
and took the soft minimum's weights straight from the logits, and before
one forward and one loss pass over both splits gave an epoch's record:
backprop_by_label_index, split_loss and split_metrics.  The tests require
train, and loss_and_grads over the first two, to match them bit for bit.
soft_min_rows is logspace.soft_min along the last axis on the ndarray min
and sum methods, before short rows were reduced column by column.  hn_forward is
nn.hn_forward on keepdims_shifted, as it was while it masked exp past log(finfo.max)
itself, before logspace._head let exp overflow to inf.

likelihood_kind_kernel is objectives._bind for the likelihood kind as it was
while that kind had a penalty term that was none: over the package's own
likelihood term builders, it adds that term's -0.0 to the likelihood value
on every call; the tests require the kernel without the addition to match
it bit for bit.

It keeps the per-point loop with which bernoulli.uniqueness_diagnostic
looked for a run of PLATEAU_RUN near-maximal points, before it counted them
in sliding windows.

Last, it keeps the CLI's CSV emission as it was before the emitter worked on
whole arrays: csv.writer over one Python row per line, a sweep row per
(curve, theta), a trace row per ascent iteration and a training-curve row
per epoch record.  csv.writer formats a float, numpy float64 scalars
included, with float.__repr__.  optimize_summary is the stdout summary of
`maxprob optimize --out FILE` as it was before the CLI took final_theta from
the text of the CSV's last row: one json.dumps of the whole dict, with
final_theta a list of floats and every infinite float made a string.

coarsen is distributions.coarsen as it was while it scanned every target once
per coarse label: it reads r.targets, not the groups the refinement stores, and
the tests require the one-pass grouping to match its bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

from maxprob import (
    AscentTrace,
    EmptyIntersectionSupport,
    FiniteDistribution,
    NonFiniteEncountered,
    NonFiniteLogits,
    OutcomeRange,
    OracleSupportEscapesModel,
    RangeMismatch,
    SumOutOfTolerance,
    TrainReport,
)
from maxprob.bernoulli import PLATEAU_RUN, PLATEAU_TOL
from maxprob import logspace, nn, objectives
from maxprob.distributions import _check_theta, _pullback, _require_ranges
from maxprob.nn import EpochRecord
from maxprob.optimize import DIVERGENCE_THETA_BOUND

NEG_INF = float("-inf")
COIN = OutcomeRange(("1", "0"))


def logsumexp(a) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return NEG_INF
    m = float(np.max(a))
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.sum(np.exp(a - m))))


_MIN_FLOAT = -np.finfo(float).max
_SHIFT_LIMIT = 2.0 ** 968


def _shift(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    if m.size == 1 and m.item() > _SHIFT_LIMIT:
        with np.errstate(over="ignore"):
            return a - m
    return a - m


def _logsumexp(a: np.ndarray, axis: int) -> tuple[np.ndarray, bool]:
    m = a.max(axis=axis, keepdims=True, initial=_MIN_FLOAT)
    low = m.item() if m.size == 1 else m.min(initial=np.inf)
    s = np.exp(_shift(a, m)).sum(axis=axis, keepdims=True)
    if low > _MIN_FLOAT:
        return m + np.log(s), False
    with np.errstate(divide="ignore"):
        return m + np.log(s), True


def _log_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    top, floored = _logsumexp(x, -1)
    if floored and (top == NEG_INF).any():
        raise SumOutOfTolerance("all outcomes carry zero mass")
    return _shift(x, top), top.squeeze(-1)


def soft_min(a, alpha: float) -> float:
    return -logsumexp(-alpha * np.asarray(a, dtype=float)) / alpha


def soft_min_rows(a: np.ndarray, alpha: float) -> np.ndarray:
    """logspace.soft_min(a, alpha, axis=-1) on the ndarray min and sum methods, as it was
    before logspace reduced short rows column by column: capping the min at +-finfo.max
    changes no slice that logspace finds calm, and np.errstate no value."""
    m = a.min(axis=-1, keepdims=True, initial=-_MIN_FLOAT).clip(_MIN_FLOAT, -_MIN_FLOAT)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = (a - m) * -alpha
        return (m - np.log(np.exp(s).sum(axis=-1, keepdims=True)) / alpha).squeeze(-1)


def log_sigmoid(x: float) -> float:
    if x >= 0:
        return -float(np.log1p(np.exp(-x)))
    return x - float(np.log1p(np.exp(x)))


def sigmoid_logp(theta: float) -> np.ndarray:
    """The sigmoid family's own map: (log sigma(theta), log sigma(-theta)), renormalized."""
    logp = np.array([log_sigmoid(theta), log_sigmoid(-theta)])
    return FiniteDistribution.from_logp(COIN, logp).logp


def apply_parameterization(p, theta) -> FiniteDistribution:
    """A scalar softmax over theta padded with len(p.range) - p.dim zero logits."""
    th = _check_theta(p, theta)
    logits = np.zeros(len(p.range))
    logits[:p.dim] = th
    return FiniteDistribution.from_logp(p.range, logits - logsumexp(logits))


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
    return FiniteDistribution.from_logp(model.range, logpost)


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


def parameterization_jacobian(p, theta) -> np.ndarray:
    """Matrix J[i, j] = d log P(v_i) / d theta_j = delta_ij - P(v_j) at the given theta.

    Every row sums to zero.  For the sigmoid (dim 1 of 2) it is the column
    (1 - sigma, -sigma) for the (success, failure) rows.
    """
    mass = apply_parameterization(p, theta).probs
    return (np.eye(len(mass)) - mass[np.newaxis, :])[:, :p.dim]


def gradient_at_theta(config, oracle, p, theta) -> np.ndarray:
    """d_theta = J^T d_logp, with d_logp attraction minus repulsion."""
    attract, repulse = gradient_terms(config, apply_parameterization(p, theta), oracle)
    return parameterization_jacobian(p, theta).T @ (attract - repulse)


def _ascent_loop(step, theta0, cfg) -> AscentTrace:
    """Fixed-step ascent where step(theta) gives the value and d_theta at theta."""
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    thetas, values, norms = [], [], []
    status = "max_iters"
    for _ in range(cfg.max_iters):
        value, d_theta = step(theta)
        gnorm = float(np.max(np.abs(d_theta)))
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
        theta = theta + cfg.step_size * d_theta
    return AscentTrace(np.array(thetas), np.array(values), np.array(norms), status)


def ascend(config, oracle, p, theta0, cfg) -> AscentTrace:
    """The two-call loop: value_at_theta and gradient_at_theta at every step."""
    return _ascent_loop(lambda theta: (value_at_theta(config, oracle, p, theta),
                                       gradient_at_theta(config, oracle, p, theta)),
                        theta0, cfg)


def ascend_sliced(config, oracle, p, theta0, cfg) -> AscentTrace:
    """One model per step, evaluate and then gradient_terms on it, pulled back by slicing.

    Each gradient sums to zero, so J^T d_logp is d_logp[:dim] exactly; the
    steps are therefore the package's own, and ascend must match bit for bit.
    """
    def step(theta):
        model = apply_parameterization(p, theta)
        value = evaluate(config, model, oracle)
        attract, repulse = gradient_terms(config, model, oracle)
        return value, (attract - repulse)[:p.dim]
    return _ascent_loop(step, theta0, cfg)


def fd_gradient(value_fn, theta, h=1e-5) -> np.ndarray:
    """Central differences, coordinate by coordinate: value_fn(theta + h e_j), then
    value_fn(theta - h e_j)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (value_fn(up) - value_fn(dn)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# The logspace core and the theta map as ascend_stepwise runs them: every reduction
# keeps a length-1 axis, a 1-D row's too, and each row of logits is made afresh.

_MAX_FLOAT = float(np.finfo(float).max)
_CALM = 2.0 ** 968
_CALM_CONTEXT = contextlib.nullcontext()
_ROWS_PER_COLUMN = 16


def _by_columns(ufunc, a, first):
    for j in range(1, a.shape[1]):
        first = ufunc(first, a[:, j])
    return first[:, np.newaxis]


def keepdims_shifted(a, alpha, axis, normalize=False):
    columns = (a.ndim == 2 and len(a) >= _ROWS_PER_COLUMN * a.shape[1] and 1 < a.shape[1] < 8
               and axis in (1, -1))
    top, bound = (np.maximum, -_MAX_FLOAT) if alpha > 0 else (np.minimum, _MAX_FLOAT)
    m = (_by_columns(top, a, top(a[:, 0], bound)) if columns
         else top.reduce(a, axis, keepdims=True, initial=bound))
    reach = abs(m.item()) if m.size == 1 else np.maximum.reduce(abs(m), None, initial=0.0)
    if abs(alpha) > 1.0:
        far = (np.minimum if alpha > 0 else np.maximum).reduce(a, None, initial=-bound)
        calm = max(reach, abs(far)) <= min(_CALM, _MAX_FLOAT / (4.0 * abs(alpha)))
    else:
        calm = reach <= _CALM and abs(alpha) >= 2.0 ** -1000
    if calm:
        s = a - m
        if alpha != 1.0:
            s *= alpha
        e = np.exp(s)
        return s, np.log(_by_columns(np.add, e, e[:, 0]) if columns
                         else np.add.reduce(e, axis, keepdims=True)), m, _CALM_CONTEXT
    if np.isnan(m).any():
        raise NonFiniteEncountered("log-sum-exp of a NaN entry")
    m = m.clip(-_MAX_FLOAT, _MAX_FLOAT)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = (a - m) * alpha
        e = np.exp(s)
        lse = np.log(_by_columns(np.add, e, e[:, 0]) if columns
                     else np.add.reduce(e, axis, keepdims=True))
    if normalize and (lse == NEG_INF).any():
        raise SumOutOfTolerance("all outcomes carry zero mass")
    if normalize and (lse == np.inf).any():
        raise NonFiniteEncountered("an outcome carries infinite mass")
    return s, lse, m, np.errstate(over="ignore")


def keepdims_log_normalize(x, alpha=1.0):
    s, lse, m, quiet = keepdims_shifted(np.asarray(x, dtype=float), alpha, -1, normalize=True)
    with quiet:
        return s - lse, ((m if alpha == 1.0 else alpha * m) + lse).squeeze(-1)


def keepdims_soft_min_step(a, alpha, weights=True):
    s, lse, m, quiet = keepdims_shifted(a, -alpha, -1, normalize=True)
    with quiet:
        return (m - lse / alpha).squeeze(-1), (np.exp(s - lse) if weights else None)


_LOG_MAX = float(np.log(np.finfo(float).max))  # the largest x whose exp is finite


def hn_forward(logits, alpha):
    """nn.hn_forward as it was before the head moved into logspace: x - (alpha * m + lse)
    in the context the reduction handed back, and exp masked to inf past log(finfo.max);
    it skips the package's input checks."""
    x = np.asarray(logits, dtype=float)
    s, lse, m, quiet = keepdims_shifted(x, alpha, -1, normalize=True)
    with quiet:
        d = s - lse if alpha == 1.0 else x - (alpha * m + lse)
    return np.exp(d, out=np.full(d.shape, np.inf), where=d <= _LOG_MAX)


def keepdims_theta_logp(p, th):
    logits = np.zeros(th.shape[:-1] + (len(p.range),))
    logits[..., :p.dim] = th
    s, lse, _, _ = keepdims_shifted(logits, 1.0, -1, normalize=True)
    return s - lse


# ---------------------------------------------------------------------------
# The per-step objective dispatch


def _require_supports(config, supp, oracle, gradient) -> bool:
    prior = config.prior.logp
    if config.assumption == "oracle-subset":
        if ((oracle > NEG_INF) & ~supp).any():
            raise OracleSupportEscapesModel(
                "subset assumption requires the model to support every oracle outcome")
    elif not (supp & (oracle > NEG_INF) & (prior > NEG_INF)).any():
        if gradient:
            raise EmptyIntersectionSupport(
                "model, oracle, and prior share no supported outcome; the joint event is null")
        return True
    if config.kind == "intersection" and (supp & (prior == NEG_INF)).any():
        if gradient:
            raise NonFiniteEncountered(
                "model mass on a zero-prior outcome makes the soft bound -inf; gradient undefined")
        return True
    return False


def _on(mask, w) -> np.ndarray:
    out = np.zeros(w.shape[:-1] + mask.shape)
    out[..., mask] = w
    return out


def _independent_step(model, supp, oracle, prior, alpha):
    joint = supp & (oracle > NEG_INF) & (prior > NEG_INF)
    logpost, value = keepdims_log_normalize(
        model.compress(joint, axis=-1) + oracle[joint] - prior[joint])
    return value, _on(joint, np.exp(logpost))


def _subset_step(model, supp, oracle, prior, alpha):
    osupp = oracle > NEG_INF
    value, w = keepdims_soft_min_step(model.compress(osupp, axis=-1) - oracle[osupp], alpha)
    return value, _on(osupp, w)


def _soft_bound_step(conditional, supp, prior, alpha):
    value, w = keepdims_soft_min_step(prior[supp] - conditional.compress(supp, axis=-1), alpha)
    return value, _on(supp, w)


_STEP_LIKELIHOOD = {"cond-independent": _independent_step, "oracle-subset": _subset_step}

_STEP_PENALTY = {
    "likelihood": lambda model, supp, prior, alpha: (-0.0, np.exp(model)),
    "intersection": _soft_bound_step,
}


def _step(config, model, supp, oracle, gradient=True):
    if _require_supports(config, supp, oracle, gradient):
        return np.full(model.shape[:-1], NEG_INF), None, None
    prior, alpha = config.prior.logp, config.alpha
    lik, attraction = _STEP_LIKELIHOOD[config.assumption](model, supp, oracle, prior, alpha)
    penalty, repulsion = _STEP_PENALTY[config.kind](model, supp, prior, alpha)
    return lik + penalty, attraction, repulsion


def ascend_stepwise(config, oracle, p, theta0, cfg) -> AscentTrace:
    """optimize.ascend with one _step call, support checks included, per iteration."""
    theta = _check_theta(p, theta0)
    _require_ranges(p.range, oracle, config.prior)
    thetas, values, norms = [], [], []
    status = "max_iters"
    for _ in range(cfg.max_iters):
        logp = keepdims_theta_logp(p, theta[np.newaxis])[0]
        value, attract, repulse = _step(config, logp, logp > NEG_INF, oracle.logp)
        value = float(value)
        d_theta = _pullback(p, attract - repulse)
        gnorm = float(abs(d_theta).max())
        thetas.append(theta)
        values.append(value)
        norms.append(gnorm)
        if math.isnan(value) or math.isnan(gnorm) or abs(theta).max() > DIVERGENCE_THETA_BOUND:
            status = "diverged"
            break
        if gnorm <= cfg.grad_tol:
            status = "converged"
            break
        theta = theta + cfg.step_size * d_theta
    return AscentTrace(np.array(thetas), np.array(values), np.array(norms), status)


def likelihood_kind_kernel(config, supp, oracle, gradient=True):
    """objectives._bind for the likelihood kind, which added its penalty's -0.0."""
    likelihood = (objectives._subset_term(supp, oracle, config.alpha, gradient)
                  if config.assumption == "oracle-subset"
                  else objectives._independent_term(supp, oracle, config.prior.logp, gradient))

    def kernel(model):
        lik, attraction = likelihood(model)
        return lik + -0.0, attraction, (np.exp(model) if gradient else None)
    return kernel


def likelihood_kind_values(config, oracle, model) -> np.ndarray:
    """objectives._values_of_rows over likelihood_kind_kernel."""
    if (model > NEG_INF).all():
        return likelihood_kind_kernel(config, np.ones(model.shape[-1], dtype=bool),
                                      oracle.logp, gradient=False)(model)[0]
    return np.array([likelihood_kind_kernel(config, row > NEG_INF, oracle.logp,
                                            gradient=False)(row)[0] for row in model])


# ---------------------------------------------------------------------------
# toy network


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=-1, keepdims=True, initial=-np.finfo(float).max)
    return (m + np.log(np.exp(a - m).sum(axis=-1, keepdims=True))).squeeze(-1)


def intersection_loss(x, y, alpha) -> float:
    lse = _logsumexp_rows(x)
    logp = x - lse[:, np.newaxis]
    log_mass_alpha = _logsumexp_rows(alpha * logp)
    per_sample = -logp[np.arange(len(y)), y] + log_mass_alpha / alpha
    return float(per_sample.mean())


def cross_entropy_loss(x, y) -> float:
    logp = x - _logsumexp_rows(x)[:, np.newaxis]
    return float(-logp[np.arange(len(y)), y].mean())


def mean_regularizer(x, alpha) -> float:
    logp = x - _logsumexp_rows(x)[:, np.newaxis]
    return float(-(_logsumexp_rows(alpha * logp) / alpha).mean())


def loss_and_grads(net, x, y, mode, alpha=1.0, lam=0.0):
    """(loss, gradients, regularizer) from three separate loss evaluations."""
    logits, (x0, z1, a1, z2, a2) = net.forward(x, want_cache=True)
    n = len(y)
    logp = logits - _logsumexp_rows(logits)[:, np.newaxis]
    onehot = np.zeros_like(logp)
    onehot[np.arange(n), y] = 1.0
    p = net.params
    if mode == "intersection":
        loss = intersection_loss(logits, y, alpha)
        reg = mean_regularizer(logits, alpha)
        sharp = np.exp(alpha * logits - _logsumexp_rows(alpha * logits)[:, np.newaxis])
        dlogits = (sharp - onehot) / n
        penalty_grads = {name: 0.0 for name in ("W1", "W2", "W3")}
    else:
        penalty = lam * sum(float(np.sum(p[w] ** 2)) for w in ("W1", "W2", "W3"))
        loss = cross_entropy_loss(logits, y) + penalty
        reg = penalty
        dlogits = (np.exp(logp) - onehot) / n
        penalty_grads = {w: 2.0 * lam * p[w] for w in ("W1", "W2", "W3")}
    grads = {}
    grads["W3"] = a2.T @ dlogits + penalty_grads["W3"]
    grads["b3"] = dlogits.sum(axis=0)
    dz2 = (dlogits @ p["W3"].T) * (z2 > 0)
    grads["W2"] = a1.T @ dz2 + penalty_grads["W2"]
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ p["W2"].T) * (z1 > 0)
    grads["W1"] = x0.T @ dz1 + penalty_grads["W1"]
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads, reg


def _metrics(net, data, mode, alpha, lam, epoch) -> EpochRecord:
    logits_tr = net.forward(data.train_x)
    logits_te = net.forward(data.test_x)
    if mode == "intersection":
        tr = intersection_loss(logits_tr, data.train_y, alpha)
        te = intersection_loss(logits_te, data.test_y, alpha)
        reg = mean_regularizer(logits_tr, alpha)
    else:
        penalty = lam * sum(float(np.sum(net.params[w] ** 2)) for w in ("W1", "W2", "W3"))
        tr = cross_entropy_loss(logits_tr, data.train_y) + penalty
        te = cross_entropy_loss(logits_te, data.test_y) + penalty
        reg = penalty
    acc_tr = float((logits_tr.argmax(axis=1) == data.train_y).mean())
    acc_te = float((logits_te.argmax(axis=1) == data.test_y).mean())
    return EpochRecord(epoch, float(tr), float(te), acc_tr, acc_te, float(reg))


def train(net, data, mode="intersection", alpha=1.0, lam=0.0, epochs=200, step=0.05,
          seed=0, batch_size=None, net_seed=0, data_seed=0) -> TrainReport:
    """One full loss_and_grads per minibatch, loss and regularizer thrown away."""
    rng = np.random.default_rng(seed)
    records = [_metrics(net, data, mode, alpha, lam, 0)]
    n = len(data.train_y)
    for epoch in range(1, epochs + 1):
        if batch_size is None:
            slices = [(data.train_x, data.train_y)]
        else:
            order = rng.permutation(n)
            slices = [(data.train_x[order[i:i + batch_size]],
                       data.train_y[order[i:i + batch_size]])
                      for i in range(0, n, batch_size)]
        for bx, by in slices:
            _, grads, _ = loss_and_grads(net, bx, by, mode, alpha, lam)
            for name in net.PARAM_ORDER:
                net.params[name] = net.params[name] - step * grads[name]
        records.append(_metrics(net, data, mode, alpha, lam, epoch))
    return TrainReport(mode=mode, alpha=alpha, lam=lam, epochs=epochs, step=step, seed=seed,
                       net_seed=net_seed, data_seed=data_seed, k=data.k, hidden=net.hidden,
                       final_digest=net.digest(), records=tuple(records))


def split_loss(x, y, mode, alpha, penalty) -> tuple[float, float]:
    """nn._loss on one split: (mean loss, regularizer term)."""
    logp = logspace.log_softmax(x)
    label_logp = logp[np.arange(len(y)), y]
    if mode == "intersection":
        mass = -logspace.soft_min(-logp, alpha, axis=-1)
        return float((mass - label_logp).mean()), float(-mass.mean())
    return float(-label_logp.mean()) + penalty, penalty


def _penalty(net, mode, lam) -> float:
    if mode != "ce-l2":
        return 0.0
    return lam * sum(float(np.sum(net.params[w] ** 2)) for w in nn.WEIGHTS)


def _finite_logits(logits) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise NonFiniteLogits("logits must be finite")
    return logits


def backprop_by_label_index(net, x, y, mode, alpha, lam):
    """nn._backprop on fresh gradients, before it took one-hot label rows: the soft
    minimum's weights of -logits, less 1.0 at each label by fancy index."""
    logits, (x0, z1, a1, z2, a2) = net.forward(x, want_cache=True)
    _finite_logits(logits)
    dlogits = logspace._soft_min_step(-logits, alpha if mode == "intersection" else 1.0)[1]
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    p = net.params
    grads = {"W3": a2.T @ dlogits, "b3": np.add.reduce(dlogits, 0)}
    dz2 = (dlogits @ p["W3"].T) * (z2 > 0)
    grads["W2"] = a1.T @ dz2
    grads["b2"] = np.add.reduce(dz2, 0)
    dz1 = (dz2 @ p["W2"].T) * (z1 > 0)
    grads["W1"] = x0.T @ dz1
    grads["b1"] = np.add.reduce(dz1, 0)
    if mode == "ce-l2":
        for w in nn.WEIGHTS:
            grads[w] += 2.0 * lam * p[w]
    return logits, grads


def loss_and_grads_by_label_index(net, x, y, mode, alpha=1.0, lam=0.0):
    """nn.loss_and_grads over backprop_by_label_index and split_loss, inputs unchecked."""
    logits, grads = backprop_by_label_index(net, x, y, mode, alpha, lam)
    loss, reg = split_loss(logits, y, mode, alpha, _penalty(net, mode, lam))
    return loss, grads, reg


def split_metrics(net, splits, mode, alpha, lam, epoch) -> EpochRecord:
    """nn._metrics with a forward pass and a loss pass per split."""
    (x_tr, y_tr), (x_te, y_te) = splits
    logits_tr = _finite_logits(net.forward(x_tr))
    logits_te = _finite_logits(net.forward(x_te))
    penalty = _penalty(net, mode, lam)
    tr, reg = split_loss(logits_tr, y_tr, mode, alpha, penalty)
    te, _ = split_loss(logits_te, y_te, mode, alpha, penalty)
    acc_tr = float((logits_tr.argmax(axis=1) == y_tr).mean())
    acc_te = float((logits_te.argmax(axis=1) == y_te).mean())
    return EpochRecord(epoch, tr, te, acc_tr, acc_te, reg)


def train_per_tensor(net, data, mode="intersection", alpha=1.0, lam=0.0, epochs=200,
                     step=0.05, seed=0, batch_size=None) -> TrainReport:
    """nn.train over fresh gradients from backprop_by_label_index, each tensor replaced
    by p - step * g, minibatches fancy-indexed from np.split of the permutation, and
    split_metrics each epoch."""
    splits = [nn._check_batch(data.train_x, data.train_y, net.k, width=2),
              nn._check_batch(data.test_x, data.test_y, net.k, width=2)]
    train_x, train_y = splits[0]
    n = len(train_y)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        records = [split_metrics(net, splits, mode, alpha, lam, 0)]
        for epoch in range(1, epochs + 1):
            for rows in ([slice(None)] if batch_size is None else
                         np.split(rng.permutation(n), range(batch_size, n, batch_size))):
                grads = backprop_by_label_index(net, train_x[rows], train_y[rows], mode,
                                                alpha, lam)[1]
                for name in net.PARAM_ORDER:
                    net.params[name] = net.params[name] - step * grads[name]
            records.append(split_metrics(net, splits, mode, alpha, lam, epoch))
    return TrainReport(mode, alpha, lam, epochs, step, seed, net.seed, data.seed,
                       data.k, net.hidden, net.digest(), tuple(records))


def report_to_jsonable(report) -> dict:
    """The field-by-field copy, in the CLI's key order."""
    return {
        "mode": report.mode,
        "alpha": report.alpha,
        "lambda": report.lam,
        "epochs": report.epochs,
        "step": report.step,
        "seed": report.seed,
        "net_seed": report.net_seed,
        "data_seed": report.data_seed,
        "k": report.k,
        "hidden": report.hidden,
        "final_digest": report.final_digest,
        "records": [
            {
                "epoch": r.epoch,
                "train_loss": r.train_loss,
                "test_loss": r.test_loss,
                "train_acc": r.train_acc,
                "test_acc": r.test_acc,
                "reg_term": r.reg_term,
            }
            for r in report.records
        ],
    }


# ---------------------------------------------------------------------------
# Sweep shape classification


def uniqueness_diagnostic(curve) -> str:
    near = curve.values >= curve.argmax_value - PLATEAU_TOL
    run = 0
    for flag in near:
        run = run + 1 if flag else 0
        if run >= PLATEAU_RUN:
            return "plateau"
    if curve.argmax_index in (0, len(curve.values) - 1):
        return "boundary-max"
    return "unique-interior-max"


# ---------------------------------------------------------------------------
# CSV emission


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def coarsen(dist, r) -> FiniteDistribution:
    """distributions.coarsen as it was before one pass over the targets grouped the
    preimages: each coarse label, in order, scans every target for its fine indices."""
    preimages = ([i for i, t in enumerate(r.targets) if t == c] for c in r.coarse.labels)
    logp = np.array([logspace.logsumexp(dist.logp[np.array(fine, dtype=int)])
                     for fine in preimages])
    return FiniteDistribution.from_logp(r.coarse, logp)


def sweep_rows(report):
    for curve in report.curves:
        for t, v in zip(curve.thetas, curve.values):
            yield (curve.objective, report.spec.assumption, curve.alpha, float(t), float(v))


def trace_rows(trace):
    return ([i, *trace.thetas[i], trace.values[i], trace.grad_norms[i]]
            for i in range(len(trace.values)))


def training_curve_rows(reports):
    for rep in reports:
        for r in rep.records:
            yield [rep.mode, rep.alpha, r.epoch, r.train_loss, r.test_loss,
                   r.train_acc, r.test_acc, r.reg_term]


def _json_safe(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            raise NonFiniteEncountered("a NaN reached the JSON output")
        return repr(float(obj)) if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def optimize_summary(trace) -> str:
    return json.dumps(_json_safe({
        "status": trace.status,
        "iterations": trace.iterations,
        "final_theta": [float(t) for t in trace.final_theta],
        "final_value": trace.final_value,
    }), allow_nan=False) + "\n"
