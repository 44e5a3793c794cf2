"""Log-domain numeric helpers.

All probability mass in this package lives in natural-log space with an
exact -inf sentinel for zero mass.  These helpers are the only place the
package exponentiates or sums mass, all through one reduction (_logsumexp),
so the max-shift and the zero-mass rule hold centrally: a slice with no mass
(empty or all -inf) has log-sum-exp -inf, silently, and normalizing it
raises SumOutOfTolerance."""

from __future__ import annotations

import numpy as np

from .errors import SumOutOfTolerance, require_alpha

__all__ = ["NEG_INF", "logsumexp", "log_softmax", "softmax", "soft_min"]

NEG_INF = float("-inf")
_MIN_FLOAT = -np.finfo(float).max
# The max-shift a - m (m = max(a), every finite a >= -finfo.max) overflows
# only when m > 2**969: a result below -finfo.max rounds back to it unless it
# is past by half an ulp, 2**970.  The -inf an overflow gives has the correct
# exp, 0, so only numpy's warning is wrong.  np.errstate costs about as much
# as the shift, but a float compare on one slice's shift costs nothing, so the
# warning is silenced where the reduction has one slice; a batch of rows would
# need one more reduction to find its largest shift, so it keeps the warning.
_SHIFT_LIMIT = 2.0 ** 968


def _shift(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a - m for a max-shift m; where m is one value, an overflow is -inf, silently."""
    if m.size == 1 and m.item() > _SHIFT_LIMIT:
        with np.errstate(over="ignore"):
            return a - m
    return a - m


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-shift; a slice with no mass (empty or all -inf) gives -inf.

    axis=None reduces the raveled input to a float; an axis reduces each slice
    along it, with its own max-shift, to an array.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        return _logsumexp(a.ravel(), 0)[0].item()
    return _logsumexp(a, axis)[0].squeeze(axis)


def _logsumexp(a: np.ndarray, axis: int) -> tuple[np.ndarray, bool]:
    """logsumexp along axis, kept as a length-1 axis, and whether a slice may carry no
    mass: the max, floored at -finfo.max, shifts such a slice to a sum of 0, whose log
    is its -inf, but a real max can sit at the floor too.  A batch reads its least max."""
    # ndarray methods, not np.max / np.sum: the same reductions at half the call cost
    m = a.max(axis=axis, keepdims=True, initial=_MIN_FLOAT)
    low = m.item() if m.size == 1 else m.min(initial=np.inf)  # +inf: no slices
    s = np.exp(_shift(a, m)).sum(axis=axis, keepdims=True)
    if low > _MIN_FLOAT:
        return m + np.log(s), False
    with np.errstate(divide="ignore"):
        return m + np.log(s), True


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log of the softmax of x along its last axis, stabilized by a max-shift per slice."""
    return _log_normalize(x)[0]


def _log_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_softmax(x) and the logsumexp along the last axis it subtracted; a slice
    with no mass raises SumOutOfTolerance."""
    x = np.asarray(x, dtype=float)
    top, floored = _logsumexp(x, -1)
    if floored and (top == NEG_INF).any():
        raise SumOutOfTolerance("all outcomes carry zero mass")
    # top exceeds its row's max by at most log(K), far below an ulp at the limit
    return _shift(x, top), top.squeeze(-1)


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

