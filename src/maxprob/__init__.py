"""Probability upper bounds for events known only through the conditional
distributions they induce, smooth soft-bound surrogates, training objectives
built from them, and small reproducible experiment harnesses."""

from .errors import (
    DomainError,
    DimensionMismatch,
    DuplicateOutcome,
    EmptyIntersectionSupport,
    EmptyRange,
    InvalidSetting,
    LabelOutOfRange,
    MalformedDistribution,
    MalformedRange,
    NegativeAlphaOnZeroMass,
    NegativeMass,
    NonFiniteEncountered,
    NonFiniteLogits,
    NonFiniteParameter,
    NonNumericEntry,
    NonPositiveAlpha,
    NonSurjectiveProjection,
    OracleSupportEscapesModel,
    RangeMismatch,
    SpaceTooLarge,
    SumOutOfTolerance,
)
from .logspace import NEG_INF, log_softmax, logsumexp, soft_min, softmax
from .distributions import (
    FiniteDistribution,
    OutcomeRange,
    Parameterization,
    Refinement,
    apply_parameterization,
    coarsen,
    distribution_from_jsonable,
    distribution_to_jsonable,
    make_distribution,
    uniform_distribution,
)
from .bounds import (
    BoundResult,
    ExtensionReport,
    alpha_skeleton,
    check_extension_monotonicity,
    exhaustive_bound_oracle,
    max_probability,
    softmax_probability,
)
from .objectives import (
    GradientVector,
    ObjectiveConfig,
    evaluate,
    gradient_at_theta,
    gradient_logp,
    gradient_terms,
    value_at_theta,
    values_at_thetas,
)
from .optimize import (
    AscentConfig,
    AscentTrace,
    GridArgmaxResult,
    ascend,
    fd_gradient,
    finite_difference_check,
    grid_argmax,
    mc_gradient,
)
from .bernoulli import (
    SweepCurve,
    SweepReport,
    SweepSpec,
    run_sweep,
    theta_grid,
    uniqueness_diagnostic,
)
from .nn import (
    ToyDataset,
    ToyNet,
    TrainReport,
    canonical_report_bytes,
    cross_entropy_loss,
    hn_forward,
    intersection_loss,
    loss_and_grads,
    make_toy_dataset,
    regularizer_bound,
    train,
)

__version__ = "0.1.0"
