"""Finite outcome spaces, log-space distributions, and their softmax parameterization.

Representation contract
-----------------------
A distribution over a finite outcome range is stored as a vector of natural
log-probabilities with an exact -inf sentinel for zero mass.  The outcome
ordering is part of the type: two distributions are comparable only when
their ranges match label-for-label.  Every construction rejects a vector
with a NaN or +inf entry.  The constructor and make_distribution also reject
one whose sum is off by more than 1e-9 rather than silently rescaling it;
from_logp renormalizes any vector with mass, for the operations whose
definition includes renormalization.  make_distribution and from_logp
return vectors that sum to 1 within 1e-12.

All types here are immutable.  Operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateOutcome,
    EmptyRange,
    LabelOutOfRange,
    MalformedDistribution,
    MalformedRange,
    NegativeMass,
    NonFiniteEncountered,
    NonFiniteParameter,
    NonSurjectiveProjection,
    RangeMismatch,
    SumOutOfTolerance,
    _read_only,
    as_array,
    as_labels,
    require_integer,
)
from .logspace import NEG_INF, logsumexp, _log_softmax

__all__ = [
    "MAX_OUTCOMES",
    "SUM_REJECT_TOL",
    "SUM_INVARIANT_TOL",
    "Label",
    "OutcomeRange",
    "FiniteDistribution",
    "make_distribution",
    "uniform_distribution",
    "Refinement",
    "coarsen",
    "Parameterization",
    "apply_parameterization",
    "distribution_to_jsonable",
    "distribution_from_jsonable",
]

# Linear-space sum farther than this from 1 is an input error, not noise.
SUM_REJECT_TOL = 1e-9
# Post-construction invariant on the exponentiated log-probability vector.
SUM_INVARIANT_TOL = 1e-12
# The most outcomes Parameterization.softmax_logits(n) labels for a count n.
MAX_OUTCOMES = 10 ** 6

Label = Union[str, int]


@dataclass(frozen=True)
class OutcomeRange:
    """Ordered tuple of distinct outcome labels."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        labels, distinct = as_labels("outcome labels", self.labels, MalformedRange)
        object.__setattr__(self, "labels", labels)
        if len(labels) == 0:
            raise EmptyRange("outcome range must contain at least one label")
        if len(distinct) != len(labels):
            raise DuplicateOutcome(f"outcome labels must be distinct: {labels!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelOutOfRange(f"label {label!r} not in range {self.labels!r}") from None


def _as_range(rng: OutcomeRange | Sequence[Label]) -> OutcomeRange:
    """rng, or the OutcomeRange of a sequence of labels (MalformedRange for a non-collection)."""
    return rng if isinstance(rng, OutcomeRange) else OutcomeRange(rng)


def _require_ranges(rng: OutcomeRange, *dists: "FiniteDistribution") -> None:
    """RangeMismatch unless every distribution in dists is over rng, label for label."""
    for d in dists:
        if d.range != rng:
            raise RangeMismatch(f"operands require identical outcome ranges: "
                                f"{rng.labels!r} vs {d.range.labels!r}")


def _check_logp(rng: OutcomeRange, logp) -> np.ndarray:
    """logp as a float vector over rng, every entry in [-inf, finite]."""
    lp = as_array(logp)
    if lp.shape != (len(rng),):
        raise DimensionMismatch(
            f"log-probability vector has shape {lp.shape}, range has {len(rng)} outcomes")
    if not (lp < np.inf).all():  # NaN compares false too
        raise NonFiniteEncountered("log-probabilities must be in [-inf, finite]")
    return lp


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability distribution over an OutcomeRange (a sequence of labels is made one), in
    log space as given, once checked: see _check_logp; the sum is within SUM_REJECT_TOL of 1."""

    range: OutcomeRange
    _logp: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "range", _as_range(self.range))
        lp = _check_logp(self.range, self._logp).copy()
        total = logsumexp(lp)
        if not abs(np.expm1(total)) <= SUM_REJECT_TOL:
            raise SumOutOfTolerance(
                f"probabilities sum to {float(np.exp(total))!r}, beyond tolerance {SUM_REJECT_TOL}")
        object.__setattr__(self, "_logp", _read_only(lp))

    @staticmethod
    def from_logp(rng: OutcomeRange | Sequence[Label], logp: Sequence[float],
                  ) -> "FiniteDistribution":
        """Build from log-probabilities with mass, shifted by their logsumexp: the
        renormalization of operations whose definition includes it.  Zero mass is
        SumOutOfTolerance; the constructor is the strict check."""
        rng = _as_range(rng)
        return FiniteDistribution(rng, _log_softmax(_check_logp(rng, logp)))

    @property
    def logp(self) -> np.ndarray:
        """Read-only log-probability vector aligned with the range order."""
        return self._logp

    @property
    def probs(self) -> np.ndarray:
        """Linear-space probabilities; zero mass comes back as exact 0.0."""
        return np.exp(self._logp)

    @property
    def support(self) -> np.ndarray:
        """Boolean mask of outcomes with positive mass."""
        return self._logp > NEG_INF


def _check_probs(p: np.ndarray) -> float:
    """The sum of the linear probabilities p, once every entry is finite and non-negative
    and the sum lies within SUM_REJECT_TOL of 1."""
    if not np.isfinite(p).all():
        raise NonFiniteEncountered(f"non-finite probability entries: {p[~np.isfinite(p)]!r}")
    if np.any(p < 0):
        raise NegativeMass(f"negative probability entries: {p[p < 0]!r}")
    total = float(p.sum())
    if not abs(total - 1.0) <= SUM_REJECT_TOL:
        raise SumOutOfTolerance(f"probabilities sum to {total!r}, beyond tolerance {SUM_REJECT_TOL}")
    return total


def make_distribution(rng: OutcomeRange | Sequence[Label], probs: Sequence[float],
                      ) -> FiniteDistribution:
    """Construct a distribution from linear-space probabilities.

    Every entry must be finite and non-negative.  The sum may deviate from 1
    by at most SUM_REJECT_TOL; within that the vector is renormalized so the
    stored invariant holds exactly enough (SUM_INVARIANT_TOL) for downstream
    log-space arithmetic.
    """
    rng = _as_range(rng)
    p = as_array(probs)
    if p.shape != (len(rng),):
        raise DimensionMismatch(
            f"probability vector has shape {p.shape}, range has {len(rng)} outcomes")
    total = _check_probs(p)
    logp = np.log(p, out=np.full(p.shape, NEG_INF), where=p > 0)  # exact -inf for zero mass
    return FiniteDistribution(rng, logp - np.log(total))


def uniform_distribution(rng: OutcomeRange | Sequence[Label]) -> FiniteDistribution:
    rng = _as_range(rng)
    n = len(rng)
    return FiniteDistribution(rng, np.full(n, -np.log(n)))


@dataclass(frozen=True)
class Refinement:
    """Projection from a fine outcome range onto a coarse one.

    targets[i] is the coarse label that fine outcome i maps to.  The map
    must be total over the fine range and surjective onto the coarse range;
    preimages of distinct coarse outcomes are disjoint by construction, so
    the coarse variable is a well-defined function of the fine one.  The
    preimages are grouped once, in coarse-label order, each ascending.
    """

    fine: OutcomeRange
    coarse: OutcomeRange
    targets: tuple[Label, ...]
    _preimages: tuple[list[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fine", _as_range(self.fine))
        object.__setattr__(self, "coarse", _as_range(self.coarse))
        targets, _ = as_labels("projection targets", self.targets, MalformedRange)
        object.__setattr__(self, "targets", targets)
        if len(targets) != len(self.fine):
            raise DimensionMismatch(
                f"projection lists {len(targets)} targets for {len(self.fine)} fine outcomes")
        groups = {c: [] for c in self.coarse.labels}
        for i, t in enumerate(targets):
            if t not in groups:
                raise RangeMismatch(f"projection target {t!r} not in coarse range")
            groups[t].append(i)
        missing = [str(c) for c, group in groups.items() if not group]
        if missing:
            raise NonSurjectiveProjection(f"coarse outcomes with empty preimage: {sorted(missing)}")
        object.__setattr__(self, "_preimages", tuple(groups.values()))

    def preimage_indices(self, coarse_label: Label) -> np.ndarray:
        """Fine indices that map to coarse_label, ascending (LabelOutOfRange off the range)."""
        return np.array(self._preimages[self.coarse.index(coarse_label)], dtype=int)


def coarsen(dist: FiniteDistribution, r: Refinement) -> FiniteDistribution:
    """Push a distribution over the fine range forward through a refinement.

    Coarse mass is the log-sum-exp of the fine masses in each preimage, so
    total mass is preserved and a singleton preimage copies its value exactly.
    """
    if dist.range != r.fine:
        raise RangeMismatch("distribution range does not match the refinement's fine range")
    logp = np.array([logsumexp(dist.logp[fine]) for fine in r._preimages])
    return FiniteDistribution.from_logp(r.coarse, logp)


# Sigmoid convention: the range lists the success outcome first, so
# apply(theta) puts sigma(theta) at index 0.  theta = log-odds of success.
_DEFAULT_BERNOULLI_RANGE = OutcomeRange(("1", "0"))


@dataclass(frozen=True)
class Parameterization:
    """Softmax over one logit per outcome of range; the first dim logits are the
    parameters and the rest are pinned at 0.

    softmax-logits frees every logit.  sigmoid-bernoulli frees the first of
    two: (log sigma(theta), log sigma(-theta)) is log_softmax((theta, 0)).
    """

    dim: int
    range: OutcomeRange

    def __post_init__(self) -> None:
        object.__setattr__(self, "range", _as_range(self.range))
        require_integer("dim", self.dim, 1, len(self.range), DimensionMismatch)

    @staticmethod
    def sigmoid_bernoulli(rng: OutcomeRange | Sequence[Label] | None = None,
                          ) -> "Parameterization":
        rng = _DEFAULT_BERNOULLI_RANGE if rng is None else _as_range(rng)
        if len(rng) != 2:
            raise DimensionMismatch("sigmoid-bernoulli requires a 2-outcome range")
        return Parameterization(1, rng)

    @staticmethod
    def softmax_logits(rng: OutcomeRange | Sequence[Label] | int) -> "Parameterization":
        """Every logit free, over a range, a collection of labels (no 0-d array) or a count."""
        if not isinstance(rng, (OutcomeRange, Collection)) or getattr(rng, "ndim", 1) == 0:
            n = require_integer("outcome count", rng, most=MAX_OUTCOMES, error=DimensionMismatch)
            rng = tuple(f"v{i}" for i in range(n))
        rng = _as_range(rng)
        return Parameterization(len(rng), rng)


def _check_theta(p: Parameterization, theta) -> np.ndarray:
    th = np.atleast_1d(as_array(theta))
    if th.shape != (p.dim,):
        raise DimensionMismatch(f"parameter vector has shape {th.shape}, expected ({p.dim},)")
    return _check_thetas(p, th[np.newaxis])[0]


def _check_thetas(p: Parameterization, thetas) -> np.ndarray:
    """Parameter rows (N, dim) as a C-ordered float array, every entry finite."""
    th = np.ascontiguousarray(as_array(thetas))
    if th.ndim != 2 or th.shape[1] != p.dim:
        raise DimensionMismatch(f"parameter rows have shape {th.shape}, expected (N, {p.dim})")
    if not np.isfinite(th).all():
        raise NonFiniteParameter(f"parameter vector must be finite, got {th!r}")
    return th


def _theta_logp(p: Parameterization, th: np.ndarray) -> np.ndarray:
    """Log-probabilities (K,) of one checked parameter row (dim,), or (N, K) of rows
    (N, dim); a row gives the same bits alone as in a batch.

    The logits are the rows padded with K - dim zeros.  One log-softmax, (x - m) -
    log sum exp(x - m), meets SUM_INVARIANT_TOL at any finite theta; x - (m + log sum
    exp(x - m)) would lose eps |m|.  A row whose spread passes finfo.max shifts its smaller
    logits to -inf, their correct zero mass, silently in a batch as in one row.
    """
    logits = np.zeros(th.shape[:-1] + (len(p.range),))
    logits[..., :p.dim] = th
    return _log_softmax(logits)


def apply_parameterization(p: Parameterization, theta) -> FiniteDistribution:
    """Map a parameter vector to its distribution (see _theta_logp)."""
    return FiniteDistribution(p.range, _theta_logp(p, _check_theta(p, theta)))


def _pullback(p: Parameterization, d_logp: np.ndarray) -> np.ndarray:
    """d_theta = J^T d_logp for a d_logp whose entries sum to zero.

    J[i, j] = d log P(v_i) / d theta_j = delta_ij - P(v_j) for j < p.dim, so
    J^T d = d[:dim] - P[:dim] * sum(d) = d[:dim].  Every objective gradient
    (attraction minus repulsion) sums to zero, so no Jacobian is ever built.
    """
    return d_logp[:p.dim]


def distribution_to_jsonable(d: FiniteDistribution) -> dict:
    """Schema: {"range": [...], "probs": [...]}, linear space, zero as literal 0."""
    probs = [0 if lp == NEG_INF else float(np.exp(lp)) for lp in d.logp]
    return {"range": list(d.range.labels), "probs": probs}


_NUMBER_CODES = np.typecodes["AllInteger"] + np.typecodes["Float"]


def distribution_from_jsonable(obj: Mapping) -> FiniteDistribution:
    """Inverse of distribution_to_jsonable; any other payload is MalformedDistribution."""
    if not isinstance(obj, Mapping) or "range" not in obj or "probs" not in obj:
        raise MalformedDistribution('distribution JSON must be an object with "range" '
                                    'and "probs" keys')
    labels = obj["range"]
    try:
        rng = OutcomeRange(labels) if isinstance(labels, (list, tuple)) else None
    except MalformedRange:  # a label that is itself a list or an object is unhashable
        rng = None
    if rng is None:
        raise MalformedDistribution('"range" must be a list of strings or numbers')
    try:
        probs = np.asarray(obj["probs"])
    except ValueError:  # ragged nesting
        probs = None
    if probs is None or probs.ndim != 1 or probs.dtype.char not in _NUMBER_CODES:
        raise MalformedDistribution('"probs" must be a flat list of numbers')
    return make_distribution(rng, probs)
