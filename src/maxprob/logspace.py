"""Log-domain numeric helpers.

All probability mass in this package lives in natural-log space with an
exact -inf sentinel for zero mass.  These helpers are the only place the
package exponentiates or sums mass, so the max-shift convention and the
empty-sum convention (logsumexp([]) == -inf) are enforced centrally.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NEG_INF", "logsumexp", "log_softmax", "softmax", "log_sigmoid", "soft_min"]

NEG_INF = float("-inf")
_MIN_FLOAT = -np.finfo(float).max


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-shift; empty or all-(-inf) input gives -inf.

    axis=None reduces everything to a float; an axis reduces each slice along
    it, with its own max-shift, to an array.
    """
    a = np.asarray(a, dtype=float)
    if axis is not None:
        # the finite floor shifts an empty or all-(-inf) slice to a sum of 0
        m = np.max(a, axis=axis, keepdims=True, initial=_MIN_FLOAT)
        return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)
    if a.size == 0:
        return NEG_INF
    m = float(np.max(a))
    if m == NEG_INF:
        return NEG_INF
    # exp(-inf - m) is exactly 0, so zero-mass entries drop out of the sum
    return m + float(np.log(np.sum(np.exp(a - m))))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log of the softmax of x, stabilized by a single max-shift."""
    x = np.asarray(x, dtype=float)
    return x - logsumexp(x)


def softmax(x: np.ndarray) -> np.ndarray:
    """exp(log_softmax(x)); computed through the identical summation order
    as log_softmax so callers can rely on bit-for-bit agreement."""
    return np.exp(log_softmax(x))


def soft_min(a, alpha: float) -> float:
    """Smooth lower envelope -(1/alpha) * log(sum(exp(-alpha * a))).

    Never exceeds min(a) for alpha > 0 and converges to it from below as
    alpha grows; the gap is at most log(len(a)) / alpha.
    """
    a = np.asarray(a, dtype=float)
    return -logsumexp(-alpha * a) / alpha


def log_sigmoid(x: float) -> float:
    """log(1 / (1 + exp(-x))) without overflow for large |x|."""
    # log sigma(x) = -log1p(exp(-x)) for x >= 0, x - log1p(exp(x)) for x < 0
    if x >= 0:
        return -float(np.log1p(np.exp(-x)))
    return x - float(np.log1p(np.exp(x)))
