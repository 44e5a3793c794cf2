"""Log-domain numeric helpers.

All probability mass in this package lives in natural-log space with an
exact -inf sentinel for zero mass.  These helpers are the only place the
package sums mass, scales it by a sharpness alpha or decides a reduction's float
edges, all through one reduction (_shifted), which shifts before it scales: per
slice it takes the entry m where alpha * a is largest and forms
s = alpha * (a - m) <= 0, so lse = log(sum(exp(s))) lies in [0, log K], and the
soft extreme v = m + lse / alpha, which no finite alpha overflows.  Each reading
has one kernel: the soft extreme (logsumexp at alpha 1, soft_min and _soft_min_step
at -alpha, where m + lse / -alpha is m - lse / alpha bit for bit), a normalized row
s - lse (_log_softmax) and the generalized head exp(x - (alpha * m + lse)) (_head),
whose exp alone may overflow, to its limit inf.  The reduction alone decides a
slice's float edges, so no other kernel needs a context.  A slice with no mass
(empty or all -inf) has log-sum-exp -inf, and one with a +inf entry has +inf, both
silently; a NaN entry raises NonFiniteEncountered.  Normalizing a slice raises
SumOutOfTolerance for no mass and NonFiniteEncountered for infinite mass.  The core
stays on numpy's exp and log for a single row too: math.exp and math.log differ from them in
the last bit (on an AVX-512 host, on 55 194 of 1.2 M exp and 1 849 of 1 M log inputs).
A calm 1-D row of 1 to 7 entries takes its extremes and its sum in Python floats from
tolist(), a ufunc reduction costing more than the arithmetic on so few: below 8
entries numpy's 1-D add.reduce sums left to right, one + after another, and its maximum
and minimum keep the last of equal entries (0.0 and -0.0), so the bits are numpy's.
exp, log, the shift and the scaling stay numpy's, and the sum is never the builtin
sum, which compensates from Python 3.12 on.  Longer rows and batches reduce in numpy."""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, NonFiniteEncountered, SumOutOfTolerance, as_array,
                     require_alpha, require_integer)

__all__ = ["NEG_INF", "logsumexp", "log_softmax", "softmax", "soft_min"]

NEG_INF = float("-inf")
_MAX_FLOAT = float(np.finfo(float).max)
# A reduction is calm when no float op of it or of its kernel can warn: at
# 2**-1000 <= |alpha| <= 1 (below, lse / alpha can overflow), when each slice's m
# lies within +-2**968, as a - m of a finite a overflows only past 2**969 (past
# -finfo.max by less than half an ulp, 2**970, rounds back to it); above |alpha| = 1,
# when every entry lies within finfo.max / (4 |alpha|) too, so that neither alpha *
# (a - m) nor alpha * m overflows.  Others run under np.errstate, costing a shift.
_CALM = 2.0 ** 968
# A batch reduces along short rows column by column (_by_columns) from this many rows per
# column: each column costs a ufunc call, and reducing a row costs about 1/16 of one.
_ROWS_PER_COLUMN = 16
# numpy reduces a 1-D row of fewer entries one entry after another: such a row reduces in
# Python floats (see the module docstring), and a tall batch of them column by column.
_SHORT = 8


def _by_columns(ufunc, a: np.ndarray, first: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, -1, keepdims=True) of a batch of 2 to 7 entries a row, from first,
    its first column (ufunc'd with the reduction's initial value, if any), one column at a
    time.  Numpy reduces a short last axis one row at a time, and below 8 entries each row
    one entry after another: the columns in that order are the same reduction bit for bit,
    signed zeros and NaN included, and several times faster on a few hundred rows."""
    for j in range(1, a.shape[1]):
        first = ufunc(first, a[:, j])
    return first[:, np.newaxis]


def _shifted(a: np.ndarray, alpha: float, axis: int, normalize: bool = False):
    """(s, lse, m, v) along axis: m is each slice's entry where alpha * a is largest,
    s = alpha * (a - m), lse = log(sum(exp(s))) and v = m + lse / alpha, computed in no
    context when calm (see _CALM), else under np.errstate, where an overflow is the
    correct infinite limit.  Not calm, a NaN entry raises, and an infinite m is
    capped at +-finfo.max: no mass then sums to 0, whose log is -inf, and infinite mass
    to +inf; with normalize, either raises.  m, lse and v keep the reduced axis at length 1,
    but are scalars for a 1-D row, to which numpy's exp and log give the same bits."""
    big = abs(alpha) > 1.0
    # the largest |m|, and above |alpha| = 1 the largest |entry|, of a calm reduction
    limit = (min(_CALM, _MAX_FLOAT / (4.0 * abs(alpha))) if big
             else _CALM if abs(alpha) >= 2.0 ** -1000 else -1.0)
    if a.ndim == 1 and 0 < len(a) < _SHORT:
        xs = a.tolist()
        xs.reverse()  # max and min keep the first of equal entries, numpy's reduce the last
        m, far = (max(xs), min(xs)) if alpha > 0 else (min(xs), max(xs))
        if abs(m) <= limit and (not big or abs(far) <= limit):
            m = np.float64(m)
            s = a - m
            if alpha != 1.0:
                s *= alpha
            e = np.exp(s).tolist()
            total = e[0]
            for x in e[1:]:
                total += x
            if total == total:  # else a NaN entry, for which the general path raises
                lse = np.log(total)
                return s, lse, m, m + lse / alpha
    # the ufuncs' own reduce, not the ndarray methods, which wrap it in Python; and never
    # add.reduce(..., initial=None), which sums in another order
    row = a.ndim == 1
    columns = (a.ndim == 2 and len(a) >= _ROWS_PER_COLUMN * a.shape[1] and 1 < a.shape[1] < _SHORT
               and axis in (1, -1))
    top, bound = (np.maximum, -_MAX_FLOAT) if alpha > 0 else (np.minimum, _MAX_FLOAT)
    m = (_by_columns(top, a, top(a[:, 0], bound)) if columns
         else top.reduce(a, axis, keepdims=not row, initial=bound))
    reach = abs(m) if row else np.maximum.reduce(abs(m), None, initial=0.0)
    if reach <= limit and (not big or abs((np.minimum if alpha > 0 else np.maximum)
                                          .reduce(a, None, initial=-bound)) <= limit):
        s = a - m
        if alpha != 1.0:
            s *= alpha
        e = np.exp(s)
        lse = np.log(_by_columns(np.add, e, e[:, 0]) if columns
                     else np.add.reduce(e, axis, keepdims=not row))
        return s, lse, m, m + lse / alpha
    if np.isnan(m).any():
        raise NonFiniteEncountered("log-sum-exp of a NaN entry")
    m = m.clip(-_MAX_FLOAT, _MAX_FLOAT)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = (a - m) * alpha
        e = np.exp(s)
        lse = np.log(_by_columns(np.add, e, e[:, 0]) if columns
                     else np.add.reduce(e, axis, keepdims=not row))
        v = m + lse / alpha
    if normalize and (lse == NEG_INF).any():
        raise SumOutOfTolerance("all outcomes carry zero mass")
    if normalize and (lse == np.inf).any():
        raise NonFiniteEncountered("an outcome carries infinite mass")
    return s, lse, m, v


def _soft_extreme(a, alpha: float, axis):
    """_shifted's v of a as a float array at alpha: of the raveled array, as a float, for
    axis None, else of each slice along axis, an integer in [-a.ndim, a.ndim - 1]
    (DimensionMismatch otherwise), as an array."""
    x = as_array(a)
    along = 0 if axis is None else require_integer("axis", axis, -x.ndim, x.ndim - 1,
                                                   DimensionMismatch)
    value = np.asarray(_shifted(x.ravel() if axis is None else x, alpha, along)[3].squeeze(along))
    return float(value) if axis is None else value


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-shift (see the module docstring for float edges).
    axis=None reduces the raveled input to a float; an axis reduces each slice
    along it, with its own max-shift, to an array."""
    return _soft_extreme(a, 1.0, axis)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log of the softmax of x along its last axis, stabilized by a max-shift per slice;
    raises as _log_softmax does."""
    return _log_softmax(as_array(x))


def _log_softmax(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """log_softmax(alpha * x) along the last axis, s - lse; a slice with no mass raises
    SumOutOfTolerance, and one with infinite mass NonFiniteEncountered.  It never warns:
    s <= 0 and, normalized, 0 <= lse <= log K."""
    s, lse, _, _ = _shifted(x, alpha, -1, normalize=True)
    return s - lse


def _head(x: np.ndarray, alpha: float) -> np.ndarray:
    """exp(x - logsumexp(alpha * x)) along the last axis, raising as _log_softmax does; at
    alpha = 1 it is softmax(x) bit for bit.  A value past the float range is its infinite
    limit, silently: below alpha = 1 a head value can pass finfo.max."""
    s, lse, m, _ = _shifted(x, alpha, -1, normalize=True)
    if alpha == 1.0:
        return np.exp(s - lse)
    with np.errstate(over="ignore"):
        return np.exp(x - (alpha * m + lse))


def softmax(x: np.ndarray) -> np.ndarray:
    """exp(log_softmax(x)); computed through the identical summation order
    as log_softmax so callers can rely on bit-for-bit agreement."""
    return np.exp(log_softmax(x))


def soft_min(a, alpha: float, axis=None):
    """Smooth lower envelope -(1/alpha) * log(sum(exp(-alpha * a))): never above min(a),
    it converges to it from below as alpha grows, within log(len(a)) / alpha.  alpha
    must be finite and positive; axis reduces each slice along it, as logsumexp does."""
    return _soft_extreme(a, -require_alpha(alpha), axis)


def _soft_min_step(a: np.ndarray, alpha: float, weights: bool = True):
    """soft_min(a, alpha, axis=-1) and, with weights, its gradient softmax(-alpha * a) (else
    None), from one shifted array; at alpha -1, logsumexp(a, axis=-1) and softmax(a)."""
    s, lse, _, v = _shifted(a, -alpha, -1, normalize=True)
    return (v if a.ndim == 1 else v.squeeze(-1)), (np.exp(s - lse) if weights else None)
