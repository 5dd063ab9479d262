"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(ToolkitError, ValueError):
    """An argument violates a documented precondition."""


class SolvabilityError(ToolkitError):
    """Forcing rejected: it is not orthogonal to the cosine mode."""


class InvalidState(ToolkitError):
    """Operation applied to an object in the wrong state (e.g. a
    non-converged branch where a converged one is required)."""


class ExtensionError(ToolkitError):
    """Periodic extension blocked: the envelope has a nonzero jump
    across the half-period, so no periodic continuation exists."""
