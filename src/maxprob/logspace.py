"""Log-domain numeric helpers.

All probability mass in this package lives in natural-log space with an
exact -inf sentinel for zero mass.  These helpers are the only place the
package exponentiates or sums mass, all through one reduction (_logsumexp),
which alone decides a slice's float edges.  A slice with no mass (empty or
all -inf) has log-sum-exp -inf, and one with a +inf entry has +inf, both
silently; a NaN entry raises NonFiniteEncountered.  Normalizing a slice
raises SumOutOfTolerance for no mass and NonFiniteEncountered for a +inf one."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteEncountered, SumOutOfTolerance, require_alpha

__all__ = ["NEG_INF", "logsumexp", "log_softmax", "softmax", "soft_min"]

NEG_INF = float("-inf")
_MIN_FLOAT = -np.finfo(float).max
# A slice is calm when its max m lies within +-2**968, and then no float op of
# its reduction can warn: the shift a - m of a finite a >= -finfo.max overflows
# only past m = 2**969 (a result below -finfo.max rounds back to it unless past
# it by half an ulp, 2**970).  A max below -2**968 (the floor, for no mass), past
# 2**968, +inf or NaN runs under np.errstate, which costs about as much as the shift.
_CALM = 2.0 ** 968


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-shift; a slice with no mass (empty or all -inf) gives
    -inf, one with a +inf entry +inf, and a NaN entry raises NonFiniteEncountered.

    axis=None reduces the raveled input to a float; an axis reduces each slice
    along it, with its own max-shift, to an array.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        return _logsumexp(a.ravel(), 0)[0].item()
    return _logsumexp(a, axis)[0].squeeze(axis)


def _logsumexp(a: np.ndarray, axis: int) -> tuple[np.ndarray, bool]:
    """logsumexp along axis, kept as a length-1 axis, and whether every slice is calm
    (see _CALM).  A slice that is not: with no mass, the max floored at -finfo.max
    shifts it to a sum of 0, whose log is its -inf; a +inf max, capped at finfo.max,
    shifts it to a sum of +inf; a NaN max, from a NaN entry, raises."""
    # ndarray methods, not np.max / np.sum: the same reductions at half the call cost
    m = a.max(axis=axis, keepdims=True, initial=_MIN_FLOAT)
    if (abs(m.item()) if m.size == 1 else abs(m).max(initial=0.0)) <= _CALM:
        return m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)), True
    if np.isnan(m).any():
        raise NonFiniteEncountered("log-sum-exp of a NaN entry")
    m = m.clip(max=-_MIN_FLOAT)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True)), False


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log of the softmax of x along its last axis, stabilized by a max-shift per slice."""
    return _log_normalize(x)[0]


def _log_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_softmax(x) and the logsumexp along the last axis it subtracted; a slice
    with no mass raises SumOutOfTolerance, and one with a +inf entry NonFiniteEncountered."""
    x = np.asarray(x, dtype=float)
    top, calm = _logsumexp(x, -1)
    # top exceeds its row's max by at most log(K), far below an ulp at the limit
    if calm:
        return x - top, top.squeeze(-1)
    if (top == NEG_INF).any():
        raise SumOutOfTolerance("all outcomes carry zero mass")
    if (top == np.inf).any():
        raise NonFiniteEncountered("an outcome carries infinite mass")
    with np.errstate(over="ignore"):
        return x - top, top.squeeze(-1)


def softmax(x: np.ndarray) -> np.ndarray:
    """exp(log_softmax(x)); computed through the identical summation order
    as log_softmax so callers can rely on bit-for-bit agreement."""
    return np.exp(log_softmax(x))


def soft_min(a, alpha: float, axis=None):
    """Smooth lower envelope -(1/alpha) * log(sum(exp(-alpha * a))).

    Never exceeds min(a) and converges to it from below as alpha grows; the
    gap is at most log(len(a)) / alpha.  alpha must be finite and positive.
    axis reduces each slice along it, as logsumexp does.
    """
    require_alpha(alpha)
    a = np.asarray(a, dtype=float)
    return _soft_min_of(logsumexp(-alpha * a, axis=axis), alpha)


def _soft_min_step(a: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """soft_min(a, alpha, axis=-1) and its gradient softmax(-alpha * a), from one logsumexp."""
    logw, lse = _log_normalize(-alpha * a)
    return _soft_min_of(lse, alpha), np.exp(logw)


def _soft_min_of(lse, alpha: float):
    """-lse / alpha for lse = logsumexp(-alpha * a); below alpha = 1 an overflow
    is -inf, the correct limit, silently."""
    if alpha < 1.0:
        with np.errstate(over="ignore"):
            return lse / -alpha
    return lse / -alpha  # bit for bit -lse / alpha, one array operation fewer

