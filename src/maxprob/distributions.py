"""Finite outcome spaces, log-space distributions, and parameterized families.

Representation contract
-----------------------
A distribution over a finite outcome range is stored as a vector of natural
log-probabilities with an exact -inf sentinel for zero mass.  The outcome
ordering is part of the type: two distributions are comparable only when
their ranges match label-for-label.  After construction the exponentiated
vector sums to 1 within 1e-12; inputs whose linear-space sum is off by more
than 1e-9 are rejected rather than silently rescaled.

All types here are immutable.  Operations return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateOutcome,
    EmptyRange,
    LabelOutOfRange,
    NegativeMass,
    NonFiniteEncountered,
    NonFiniteParameter,
    NonSurjectiveProjection,
    RangeMismatch,
    SumOutOfTolerance,
)
from .logspace import NEG_INF, log_sigmoid, log_softmax, logsumexp

__all__ = [
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
    "parameterization_jacobian",
    "EventModel",
    "distribution_to_jsonable",
    "distribution_from_jsonable",
]

# Linear-space sum farther than this from 1 is an input error, not noise.
SUM_REJECT_TOL = 1e-9
# Post-construction invariant on the exponentiated log-probability vector.
SUM_INVARIANT_TOL = 1e-12

Label = Union[str, int]


@dataclass(frozen=True)
class OutcomeRange:
    """Ordered tuple of distinct outcome labels."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise EmptyRange("outcome range must contain at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateOutcome(f"outcome labels must be distinct: {self.labels!r}")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelOutOfRange(f"label {label!r} not in range {self.labels!r}") from None


def _require_same_range(a: "FiniteDistribution", b: "FiniteDistribution", what: str) -> None:
    if a.range != b.range:
        raise RangeMismatch(f"{what} require identical outcome ranges: "
                            f"{a.range.labels!r} vs {b.range.labels!r}")


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """Probability distribution over an OutcomeRange, held in log space."""

    range: OutcomeRange
    _logp: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        lp = np.asarray(self._logp, dtype=float)
        if lp.shape != (len(self.range),):
            raise DimensionMismatch(
                f"log-probability vector has shape {lp.shape}, range has {len(self.range)} outcomes")
        lp = lp.copy()
        lp.setflags(write=False)
        object.__setattr__(self, "_logp", lp)

    @staticmethod
    def from_logp(rng: OutcomeRange, logp: Sequence[float], *, normalize: bool = False,
                  ) -> "FiniteDistribution":
        """Build from log-probabilities.

        With normalize=False the exponentiated input must already sum to 1
        within SUM_REJECT_TOL and is renormalized to the invariant tolerance.
        With normalize=True the vector is shifted by its logsumexp regardless
        (used by operations whose definition includes renormalization).
        """
        lp = np.asarray(logp, dtype=float)
        if lp.shape != (len(rng),):
            raise DimensionMismatch(
                f"log-probability vector has shape {lp.shape}, range has {len(rng)} outcomes")
        if np.any(np.isnan(lp)) or np.any(lp == np.inf):
            raise NonFiniteEncountered("log-probabilities must be in [-inf, finite]")
        total = logsumexp(lp)
        if total == NEG_INF:
            raise SumOutOfTolerance("all outcomes carry zero mass")
        if not normalize and abs(np.expm1(total)) > SUM_REJECT_TOL:
            raise SumOutOfTolerance(
                f"probabilities sum to {float(np.exp(total))!r}, beyond tolerance {SUM_REJECT_TOL}")
        return FiniteDistribution(rng, lp - total)

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

    def logprob(self, label: Label) -> float:
        return float(self._logp[self.range.index(label)])

    def prob(self, label: Label) -> float:
        return float(np.exp(self.logprob(label)))

    @property
    def argmax_index(self) -> int:
        """Index of the most probable outcome, ties broken by lowest index."""
        return int(np.argmax(self._logp))


def make_distribution(rng: OutcomeRange | Sequence[Label], probs: Sequence[float],
                      ) -> FiniteDistribution:
    """Construct a distribution from linear-space probabilities.

    The sum may deviate from 1 by at most SUM_REJECT_TOL; within that the
    vector is renormalized so the stored invariant holds exactly enough
    (SUM_INVARIANT_TOL) for downstream log-space arithmetic.
    """
    if not isinstance(rng, OutcomeRange):
        rng = OutcomeRange(tuple(rng))
    p = np.asarray(probs, dtype=float)
    if p.shape != (len(rng),):
        raise DimensionMismatch(
            f"probability vector has shape {p.shape}, range has {len(rng)} outcomes")
    if np.any(p < 0):
        raise NegativeMass(f"negative probability entries: {p[p < 0]!r}")
    total = float(p.sum())
    if not abs(total - 1.0) <= SUM_REJECT_TOL:
        raise SumOutOfTolerance(f"probabilities sum to {total!r}, beyond tolerance {SUM_REJECT_TOL}")
    with np.errstate(divide="ignore"):
        logp = np.log(p)  # exact -inf sentinel for zero entries
    return FiniteDistribution(rng, logp - np.log(total))


def uniform_distribution(rng: OutcomeRange | Sequence[Label]) -> FiniteDistribution:
    if not isinstance(rng, OutcomeRange):
        rng = OutcomeRange(tuple(rng))
    n = len(rng)
    return FiniteDistribution(rng, np.full(n, -np.log(n)))


@dataclass(frozen=True)
class Refinement:
    """Projection from a fine outcome range onto a coarse one.

    targets[i] is the coarse label that fine outcome i maps to.  The map
    must be total over the fine range and surjective onto the coarse range;
    preimages of distinct coarse outcomes are disjoint by construction, so
    the coarse variable is a well-defined function of the fine one.
    """

    fine: OutcomeRange
    coarse: OutcomeRange
    targets: tuple[Label, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.targets) != len(self.fine):
            raise DimensionMismatch(
                f"projection lists {len(self.targets)} targets for {len(self.fine)} fine outcomes")
        coarse_set = set(self.coarse.labels)
        for t in self.targets:
            if t not in coarse_set:
                raise RangeMismatch(f"projection target {t!r} not in coarse range")
        if set(self.targets) != coarse_set:
            missing = coarse_set - set(self.targets)
            raise NonSurjectiveProjection(f"coarse outcomes with empty preimage: {sorted(map(str, missing))}")

    @staticmethod
    def from_mapping(fine: OutcomeRange, coarse: OutcomeRange,
                     mapping: Mapping[Label, Label]) -> "Refinement":
        try:
            targets = tuple(mapping[lab] for lab in fine.labels)
        except KeyError as k:
            raise DimensionMismatch(f"projection missing fine label {k.args[0]!r}") from None
        return Refinement(fine, coarse, targets)

    @staticmethod
    def identity(rng: OutcomeRange) -> "Refinement":
        return Refinement(rng, rng, rng.labels)

    def preimage_indices(self, coarse_label: Label) -> np.ndarray:
        return np.array([i for i, t in enumerate(self.targets) if t == coarse_label], dtype=int)


def coarsen(dist: FiniteDistribution, r: Refinement) -> FiniteDistribution:
    """Push a distribution over the fine range forward through a refinement.

    Coarse mass is the log-sum-exp of the fine masses in each preimage, so
    total mass is preserved and a singleton preimage copies its value exactly.
    """
    if dist.range != r.fine:
        raise RangeMismatch("distribution range does not match the refinement's fine range")
    logp = np.array([logsumexp(dist.logp[r.preimage_indices(c)]) for c in r.coarse.labels])
    return FiniteDistribution.from_logp(r.coarse, logp, normalize=True)


_SIGMOID = "sigmoid-bernoulli"
_SOFTMAX = "softmax-logits"

# Sigmoid convention: the range lists the success outcome first, so
# apply(theta) puts sigma(theta) at index 0.  theta = log-odds of success.
_DEFAULT_BERNOULLI_RANGE = OutcomeRange(("1", "0"))
_SIGMOID_SIGNS = np.array([1.0, -1.0])


@dataclass(frozen=True)
class Parameterization:
    """Smooth map from a real parameter vector to a FiniteDistribution."""

    kind: str
    dim: int
    range: OutcomeRange

    def __post_init__(self) -> None:
        if self.kind == _SIGMOID:
            if len(self.range) != 2:
                raise DimensionMismatch("sigmoid-bernoulli requires a 2-outcome range")
            if self.dim != 1:
                raise DimensionMismatch("sigmoid-bernoulli has a single parameter")
        elif self.kind == _SOFTMAX:
            if self.dim != len(self.range):
                raise DimensionMismatch("softmax-logits takes one logit per outcome")
        else:
            raise RangeMismatch(f"unknown parameterization kind {self.kind!r}; "
                                f"expected {_SIGMOID!r} or {_SOFTMAX!r}")

    @staticmethod
    def sigmoid_bernoulli(rng: OutcomeRange | None = None) -> "Parameterization":
        return Parameterization(_SIGMOID, 1, rng or _DEFAULT_BERNOULLI_RANGE)

    @staticmethod
    def softmax_logits(rng: OutcomeRange | int) -> "Parameterization":
        if isinstance(rng, int):
            rng = OutcomeRange(tuple(f"v{i}" for i in range(rng)))
        return Parameterization(_SOFTMAX, len(rng), rng)


def _check_theta(p: Parameterization, theta) -> np.ndarray:
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (p.dim,):
        raise DimensionMismatch(f"parameter vector has shape {th.shape}, expected ({p.dim},)")
    return _check_thetas(p, th[np.newaxis])[0]


def _check_thetas(p: Parameterization, thetas) -> np.ndarray:
    """Parameter rows (N, dim) as a C-ordered float array, every entry finite."""
    th = np.ascontiguousarray(thetas, dtype=float)
    if th.ndim != 2 or th.shape[1] != p.dim:
        raise DimensionMismatch(f"parameter rows have shape {th.shape}, expected (N, {p.dim})")
    if not np.isfinite(th).all():
        raise NonFiniteParameter(f"parameter vector must be finite, got {th!r}")
    return th


def _theta_logp(p: Parameterization, th: np.ndarray) -> np.ndarray:
    """Log-probabilities (N, K) of checked parameter rows (N, dim).

    Both kinds are computed in log space (softplus / max-shifted log-sum-exp)
    and then renormalized, so any finite theta yields a valid distribution,
    however extreme.
    """
    if p.kind == _SIGMOID:
        raw = log_sigmoid(th * _SIGMOID_SIGNS)  # log sigma(theta), log sigma(-theta)
    else:
        raw = log_softmax(th)
    return log_softmax(raw)


def apply_parameterization(p: Parameterization, theta) -> FiniteDistribution:
    """Map a parameter vector to its distribution (see _theta_logp)."""
    th = _check_theta(p, theta)
    return FiniteDistribution(p.range, _theta_logp(p, th[np.newaxis])[0])


def parameterization_jacobian(p: Parameterization, theta) -> np.ndarray:
    """Matrix J[i, j] = d log P(v_i) / d theta_j at the given theta.

    sigmoid-bernoulli: column (1 - sigma, -sigma) for the (success, failure)
    rows.  softmax-logits: delta_ij - P(v_j); every row sums to zero.
    """
    th = _check_theta(p, theta)
    mass = np.exp(_theta_logp(p, th[np.newaxis])[0])
    if p.kind == _SIGMOID:
        s = mass[0]
        return np.array([[1.0 - s], [-s]])
    return np.eye(p.dim) - mass[np.newaxis, :]


@dataclass(frozen=True, eq=False)
class EventModel:
    """An event identified by the conditional distribution it induces.

    When built from a parameterization the conditional is recomputed from
    the parameters, never patched in place, so the two can not drift apart.
    """

    conditional: FiniteDistribution
    parameterization: Optional[Parameterization] = None
    params: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.params is not None:
            if self.parameterization is None:
                raise DimensionMismatch("params given without a parameterization")
            th = _check_theta(self.parameterization, self.params)
            th.setflags(write=False)
            object.__setattr__(self, "params", th)

    @staticmethod
    def from_params(p: Parameterization, theta) -> "EventModel":
        th = _check_theta(p, theta)
        return EventModel(apply_parameterization(p, th), p, th)

    def with_params(self, theta) -> "EventModel":
        if self.parameterization is None:
            raise DimensionMismatch("this event model has no parameterization")
        return EventModel.from_params(self.parameterization, theta)


def distribution_to_jsonable(d: FiniteDistribution) -> dict:
    """Schema: {"range": [...], "probs": [...]}, linear space, zero as literal 0."""
    probs = [0 if lp == NEG_INF else float(np.exp(lp)) for lp in d.logp]
    return {"range": list(d.range.labels), "probs": probs}


def distribution_from_jsonable(obj: Mapping) -> FiniteDistribution:
    if not isinstance(obj, Mapping) or "range" not in obj or "probs" not in obj:
        raise RangeMismatch('distribution JSON must carry "range" and "probs" keys')
    return make_distribution(OutcomeRange(tuple(obj["range"])), obj["probs"])
