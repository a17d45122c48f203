"""Exception types shared across the filtering modules."""

import numpy as np


class DimensionError(ValueError):
    """Matrix or vector dimensions do not conform."""


class RankConditionError(RuntimeError):
    """rank(C @ E_d) fell below the number of unknown-input channels.

    Unknown-input extraction is structurally infeasible at this step.
    """


class IllConditionedError(RuntimeError):
    """Innovation covariance (or another solve target) is numerically singular."""


class ConfigError(ValueError):
    """A scenario/model config document violates the schema.

    The message names the offending field.
    """


# what a filter run can raise; the CLI maps each to exit 2
ESTIMATOR_FAILURES = (RankConditionError, IllConditionedError, FloatingPointError, np.linalg.LinAlgError)
