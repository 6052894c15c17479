"""Exception classes shared across the toolkit.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies.
"""


class OodkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(OodkitError):
    """Invalid configuration or parameters."""


class DataFormatError(OodkitError):
    """Malformed input file or serialization payload."""


class DimensionError(OodkitError):
    """Shapes of inputs do not agree."""


class NumericalError(OodkitError):
    """Numerical failure (non-finite input, singular model, divergence)."""


class DegenerateWeightError(NumericalError):
    """A softmax weight column has zero norm."""


class ArgmaxTieError(NumericalError):
    """Gradient requested exactly on a decision boundary (tied argmax)."""


class SingularModelError(NumericalError):
    """Mixture covariance is not positive definite after regularization."""

