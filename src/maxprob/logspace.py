"""Log-domain numeric helpers.

All probability mass in this package lives in natural-log space with an
exact -inf sentinel for zero mass.  These helpers are the only place the
package exponentiates or sums mass, so the max-shift convention and the
empty-sum convention (logsumexp([]) == -inf) are enforced centrally.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import require_alpha

__all__ = ["NEG_INF", "logsumexp", "log_softmax", "softmax", "soft_min"]

NEG_INF = float("-inf")
_MIN_FLOAT = -np.finfo(float).max
# The max-shift a - m (m = max(a), every finite a >= -finfo.max) overflows
# only when m > 2**969: a result below -finfo.max rounds back to it unless it
# is past by half an ulp, 2**970.  The -inf an overflow gives has the correct
# exp, 0, so only numpy's warning is wrong.  np.errstate costs about as much
# as the shift, but a float compare on a single shift costs nothing, so the
# warning is silenced on the scalar path and where an axis reduces to one
# slice (a 1-D input, one row).  A batch of rows would need one more
# reduction to find its largest shift, so it keeps numpy's warning.
_SHIFT_LIMIT = 2.0 ** 968
_NO_ERRSTATE = contextlib.nullcontext()


def _shift(a: np.ndarray, m, top: float) -> np.ndarray:
    """a - m for the max-shift m whose one value is top; an overflow is -inf, silently."""
    if top > _SHIFT_LIMIT:
        with np.errstate(over="ignore"):
            return a - m
    return a - m


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-shift; empty or all-(-inf) input gives -inf.

    axis=None reduces everything to a float; an axis reduces each slice along
    it, with its own max-shift, to an array.
    """
    a = np.asarray(a, dtype=float)
    # ndarray methods, not np.max / np.sum: the same reductions at half the call cost
    if axis is not None:
        # the finite floor shifts an empty or all-(-inf) slice to a sum of 0
        m = a.max(axis=axis, keepdims=True, initial=_MIN_FLOAT)
        shifted = _shift(a, m, m.item()) if m.size == 1 else a - m
        return (m + np.log(np.exp(shifted).sum(axis=axis, keepdims=True))).squeeze(axis)
    if a.size == 0:
        return NEG_INF
    m = float(a.max())
    if m == NEG_INF:
        return NEG_INF
    # exp(-inf - m) is exactly 0, so zero-mass entries drop out of the sum
    return m + float(np.log(np.exp(_shift(a, m, m)).sum()))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log of the softmax of x along its last axis, stabilized by a max-shift per slice."""
    return _log_normalize(x)[0]


def _log_normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log_softmax(x) and the logsumexp along the last axis it subtracted."""
    x = np.asarray(x, dtype=float)
    lse = logsumexp(x, axis=-1)
    top = lse[..., np.newaxis]
    # lse exceeds its row's max by at most log(K), far below an ulp at the limit
    return (_shift(x, top, top.item()) if top.size == 1 else x - top), lse


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
    with np.errstate(over="ignore") if alpha < 1.0 else _NO_ERRSTATE:
        return lse / -alpha  # bit for bit -lse / alpha, one array operation fewer

