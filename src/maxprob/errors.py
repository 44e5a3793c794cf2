"""Domain error hierarchy, and the helpers that check each kind of input once.

Every failure mode that a caller can trigger with bad inputs raises a
subclass of DomainError carrying a stable machine-readable ``code``.
The CLI maps these to exit status 1 with a JSON payload on stderr;
library callers can catch either the base class or a specific subclass.

Each helper checks one kind of input and returns the checked value: require_real a finite
real number as a float, require_alpha a finite alpha > 0 as one, require_integer an int or
numpy integer in [least, most] (a bound of None is none) as an int, require_choice a str
among a setting's names as itself, as_labels a collection of hashable items as (tuple, set),
and as_array real entries as a float array.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "DomainError",
    "NegativeMass",
    "SumOutOfTolerance",
    "EmptyRange",
    "DuplicateOutcome",
    "DimensionMismatch",
    "NonFiniteParameter",
    "RangeMismatch",
    "NonSurjectiveProjection",
    "NonPositiveAlpha",
    "NegativeAlphaOnZeroMass",
    "SpaceTooLarge",
    "EmptyIntersectionSupport",
    "OracleSupportEscapesModel",
    "NonFiniteEncountered",
    "NonFiniteLogits",
    "LabelOutOfRange",
    "InvalidSetting",
    "MalformedDistribution",
    "MalformedRange",
    "NonNumericEntry",
    "require_alpha",
    "require_choice",
    "require_integer",
    "require_real",
    "as_labels",
    "as_array",
]


class DomainError(ValueError):
    """Base class for all input-domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NegativeMass(DomainError):
    """A probability entry is negative."""


class SumOutOfTolerance(DomainError):
    """Probabilities do not sum to 1 within the construction tolerance."""


class EmptyRange(DomainError):
    """An outcome range must contain at least one outcome."""


class DuplicateOutcome(DomainError):
    """Outcome labels within a range must be pairwise distinct."""


class DimensionMismatch(DomainError):
    """Vector length does not match the expected dimension."""


class NonFiniteParameter(DomainError):
    """A parameter vector or a sharpness alpha contains NaN or infinity."""


class RangeMismatch(DomainError):
    """Two objects that must share an outcome range do not."""


class NonSurjectiveProjection(DomainError):
    """A refinement projection must cover every coarse outcome."""


class NonPositiveAlpha(DomainError):
    """This operation requires alpha > 0."""


class NegativeAlphaOnZeroMass(DomainError):
    """Negative alpha requires a fully supported distribution."""


class SpaceTooLarge(DomainError):
    """Exhaustive enumeration is capped to keep runtime bounded."""


class EmptyIntersectionSupport(DomainError):
    """Model, oracle, and prior share no supported outcome."""


class OracleSupportEscapesModel(DomainError):
    """The subset assumption requires supp(oracle) within supp(model)."""


class NonFiniteEncountered(DomainError):
    """A value or gradient became NaN or infinite where the contract requires a finite result."""


class NonFiniteLogits(DomainError):
    """Logit array contains NaN or infinity."""


class LabelOutOfRange(DomainError):
    """A class label falls outside [0, num_classes)."""


class InvalidSetting(DomainError):
    """A count, step size or seed lies outside its valid range, or a name is unknown."""


class MalformedDistribution(DomainError):
    """A serialized distribution is not a {"range": [labels], "probs": [numbers]} object."""


class MalformedRange(DomainError):
    """An outcome range is not a collection of hashable labels."""


class NonNumericEntry(DomainError):
    """An array entry is not a real number (a string, a complex number or another object),
    or is an int past the float range."""


def require_real(name: str, value, sign: Optional[str] = None,
                 error: type = InvalidSetting) -> float:
    """value as a float: InvalidSetting unless it is an int, a float or a numpy integer or
    float scalar (a bool, a str, None, a complex number or an array is none);
    NonFiniteParameter unless it is finite as a float (an int past the float range is
    not); and error unless it has the sign asked for, "positive" or "non-negative"."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidSetting(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise NonFiniteParameter(f"{name} must be finite, got {value!r}")
    if sign is not None and not (value > 0 if sign == "positive" else value >= 0):
        raise error(f"{name} must be {sign}, got {value!r}")
    return float(value)


def require_alpha(alpha) -> float:
    """alpha as a float, once it is a finite positive sharpness: the package's one alpha
    check, which public entry points make and the code behind them trusts."""
    return require_real("alpha", alpha, "positive", NonPositiveAlpha)


def require_integer(name: str, value, least=None, most=None, error: type = InvalidSetting) -> int:
    """value as an int, so that a numpy integer neither wraps nor reaches a report: error
    unless it is an int or a numpy integer (a bool is neither) in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be at least {least}, got {value!r}")
    if most is not None and value > most:
        raise error(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def require_choice(name: str, value, choices: tuple) -> str:
    """value, once it is a str among choices: InvalidSetting otherwise (an array is none)."""
    if not isinstance(value, str) or value not in choices:
        raise InvalidSetting(f"{name} must be one of {choices}, got {value!r}")
    return value


def as_labels(name: str, values, error: type) -> tuple[tuple, set]:
    """(tuple(values), set(values)); error unless values is a collection (None and a number
    are not) of hashable items."""
    try:
        items = tuple(values)
        return items, set(items)
    except TypeError:
        raise error(f"{name} must be a collection of hashable items, got {values!r}") from None


def as_array(values, dtype=float) -> np.ndarray:
    """np.asarray(values, dtype), with DimensionMismatch for ragged nesting and
    NonNumericEntry for an entry that does not convert to dtype, which numpy rejects
    with a bare ValueError (a string), TypeError (a complex number, a dict) or
    OverflowError (an int past the float range), or turns into NaN (None).  An array of
    dtype comes back as it is, unlooked at."""
    try:
        x = np.asarray(values, dtype=dtype)
    except OverflowError as exc:
        raise NonNumericEntry(f"array entries must be real numbers within the float range: "
                              f"{exc}") from None
    except ValueError as exc:
        if "inhomogeneous" in str(exc):
            raise DimensionMismatch("nested sequences have unequal lengths") from None
        if "could not convert" not in str(exc):
            raise
        raise NonNumericEntry(f"array entries must be real numbers: {exc}") from None
    except TypeError as exc:
        raise NonNumericEntry(f"array entries must be real numbers: {exc}") from None
    if (x is not values and x.dtype.kind == "f" and np.isnan(x).any()
            and np.equal(np.asarray(values, dtype=object), None).any()):
        raise NonNumericEntry("array entries must be real numbers, got None")
    return x
