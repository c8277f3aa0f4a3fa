"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityError(DomainError):
    """The requested evaluation point sits on a pole or singular surface."""


class ValidationError(ValueError):
    """Structurally invalid input (wrong shape, broken invariant, bad config)."""


class UsageError(ValueError):
    """The operation was called for a mechanism or regime it does not cover,
    or a command line does not parse."""


class BracketingError(ValueError):
    """A root finder was given a bracket with no sign change."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance within its budget."""


class NormalizabilityError(ValueError):
    """The energy-dependent norm is not positive definite on the given field."""


class GridError(ValueError):
    """A numerical grid is too small or too coarse for the requested accuracy."""
