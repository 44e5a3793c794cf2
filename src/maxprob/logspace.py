"""Log-domain numeric helpers.

All probability mass in this package lives in natural-log space with an
exact -inf sentinel for zero mass.  These helpers are the only place the
package exponentiates or sums mass, so the max-shift convention and the
empty-sum convention (logsumexp([]) == -inf) are enforced centrally.
"""

from __future__ import annotations

import numpy as np

from .errors import require_alpha

__all__ = ["NEG_INF", "logsumexp", "log_softmax", "softmax", "log_sigmoid", "soft_min"]

NEG_INF = float("-inf")
_MIN_FLOAT = -np.finfo(float).max


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
        return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)
    if a.size == 0:
        return NEG_INF
    m = float(a.max())
    if m == NEG_INF:
        return NEG_INF
    # exp(-inf - m) is exactly 0, so zero-mass entries drop out of the sum
    return m + float(np.log(np.exp(a - m).sum()))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log of the softmax of x along its last axis, stabilized by a max-shift per slice."""
    x = np.asarray(x, dtype=float)
    return x - logsumexp(x, axis=-1)[..., np.newaxis]


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
    return -logsumexp(-alpha * a, axis=axis) / alpha


def log_sigmoid(x):
    """log(1 / (1 + exp(-x))) without overflow for large |x|, elementwise.

    A float gives a float, an array an array of its shape.
    """
    # log sigma(x) = -log1p(exp(-x)) for x >= 0, x - log1p(exp(x)) for x < 0;
    # exp(-|x|) is the exp of either branch and never overflows
    x = np.asarray(x, dtype=float)
    tail = np.log1p(np.exp(-np.abs(x)))
    out = np.where(x >= 0, -tail, x - tail)
    return float(out) if out.ndim == 0 else out
