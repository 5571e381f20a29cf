"""Error types shared across the toolkit.

The CLI maps these onto process exit codes: configuration / usage problems
exit 1, data problems exit 2, numerical failures exit 3.
"""


class ConfigError(Exception):
    """Invalid configuration: bad value, unknown key, or violated invariant."""


class DataError(Exception):
    """Malformed dataset or model file (parse failures carry line numbers)."""


class NumericalError(Exception):
    """Numerical failure: degenerate schedule, NaN loss, undefined score."""


class TrainingDivergenceError(NumericalError):
    """Raised when training produces non-finite values.

    Carries the last finite parameter state so callers can recover it.
    """

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint


class InfeasibleHullError(ValueError):
    """Hull parameters that hull.constraint_violation rejects, or an LOA
    outside hull.LOA_RANGE."""
