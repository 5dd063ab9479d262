"""Exception types shared across the toolkit, and the checkers of public
arguments."""
import cmath
from collections.abc import Sequence
from numbers import Complex, Integral, Real


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


# The checkers of public arguments.  Each returns its argument unchanged,
# never cast to complex or int: numpy's complex multiply can use FMA, so a
# cast could move the bits of a product such as kappa = rho |eps|^2.  Each
# raises InvalidArgument naming the parameter.  A bool is an Integral, but
# neither a number nor a count here; numpy's scalars are numbers.

def _number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite(value, name: str, real: bool = False, nan_ok: bool = False):
    """A finite number (a real one when ``real``); NaN also passes when
    ``nan_ok``, an infinite part never."""
    try:
        ok = (_number(value, Real if real else Complex) and not cmath.isinf(value)
              and (nan_ok or not cmath.isnan(value)))
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        kind = "real number" if real else "number"
        raise InvalidArgument(f"{name} must be a finite {kind}, got {value!r}")
    return value


def _positive(value, name: str):
    """A finite real number > 0."""
    if not _finite(value, name, real=True) > 0:
        raise InvalidArgument(f"{name} must be positive, got {value!r}")
    return value


def _count(value, name: str, least: int, most: int | None = None):
    """An integer from least up to most (default no bound): a float such as
    7.0 is no count."""
    if not (_number(value, Integral) and least <= value and (most is None or value <= most)):
        bound = f">= {least}" if most is None else f"from {least} to {most}"
        raise InvalidArgument(f"{name} must be an integer {bound}, got {value!r}")
    return value


def _instance(value, cls: type, name: str):
    """An instance of cls."""
    if not isinstance(value, cls):
        raise InvalidArgument(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _instances(values, cls: type, name: str):
    """A sequence (a list or a tuple, say) of instances of cls."""
    for k, value in enumerate(_instance(values, Sequence, name)):
        _instance(value, cls, f"{name}[{k}]")
    return values
