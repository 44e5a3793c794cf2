"""Shared strategies and builders for the property tests.

Distributions are built from small integer weights so expected values stay
exact rationals: any tolerance in an assertion then absorbs only float
division noise, never modeling slack.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from maxprob import FiniteDistribution, OutcomeRange, make_distribution

MAX_WEIGHT = 20
EPS = np.finfo(float).eps


def log_scale(*arrays) -> float:
    """The largest finite magnitude among the entries of arrays."""
    a = np.concatenate([np.ravel(np.asarray(x, dtype=float)) for x in arrays])
    return float(np.abs(a[np.isfinite(a)]).max(initial=0.0))


def rounding_bound(scale):
    """16 eps (1 + scale): the error model of a log-space kernel whose inputs have
    magnitude up to scale.

    Rounding an input of size |a| moves a log-domain value by about eps |a|, and a
    weight exp(alpha a - lse) by about eps |alpha| |a|; so a value takes the scale
    max|a|, and a weight vector max(1, |alpha|) max|a|.  The kernels in
    tests/reference.py scale before they shift, so their own error grows the same way.
    """
    return 16 * EPS * (1.0 + np.asarray(scale, dtype=float))


def assert_within_rounding(got, want, scale):
    """The same dtype, shape and non-finite entries, and finite entries within
    rounding_bound(scale) of each other; scale broadcasts against want."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape, (got, want)
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True), (got, want)
    err = np.abs(got[finite] - want[finite])
    bound = np.broadcast_to(rounding_bound(scale), want.shape)[finite]
    assert (err <= bound).all(), (got, want, err / EPS)


def labels_of(n: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(n))


def dist_from_weights(weights) -> FiniteDistribution:
    w = np.asarray(weights, dtype=float)
    return make_distribution(OutcomeRange(labels_of(len(w))), w / w.sum())


def weight_lists(n: int, allow_zeros: bool) -> st.SearchStrategy[list[int]]:
    low = 0 if allow_zeros else 1
    return st.lists(
        st.integers(low, MAX_WEIGHT), min_size=n, max_size=n,
    ).filter(lambda w: sum(w) > 0)


@st.composite
def distributions(draw, min_n: int = 2, max_n: int = 6, allow_zeros: bool = False,
                  ) -> FiniteDistribution:
    n = draw(st.integers(min_n, max_n))
    return dist_from_weights(draw(weight_lists(n, allow_zeros)))


@st.composite
def distribution_pairs(draw, min_n: int = 2, max_n: int = 6,
                       allow_zeros: tuple[bool, bool] = (False, False),
                       ) -> tuple[FiniteDistribution, FiniteDistribution]:
    """Two distributions over the same range."""
    n = draw(st.integers(min_n, max_n))
    first = dist_from_weights(draw(weight_lists(n, allow_zeros[0])))
    second = dist_from_weights(draw(weight_lists(n, allow_zeros[1])))
    return first, second


@st.composite
def distribution_triples(draw, min_n: int = 2, max_n: int = 6,
                         allow_zeros: tuple[bool, bool, bool] = (False, True, False),
                         ) -> tuple[FiniteDistribution, ...]:
    """Three distributions over the same range: (prior, conditional, extra)."""
    n = draw(st.integers(min_n, max_n))
    return tuple(
        dist_from_weights(draw(weight_lists(n, zeros)))
        for zeros in allow_zeros
    )


alphas = st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0])
