"""Shared exception types and the one set of argument coercers.

The code that owns an argument (``dynamics.run_arguments``, ``StepperState``,
``PrecondPolicy``, each target) states its rule once, through these
coercers, in an error that starts with the argument's name; the harness
checks only JSON types and maps that name to its config key path.
"""

import math
import numbers

import numpy as np


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class ConfigError(ValueError):
    """A run configuration is invalid or internally inconsistent."""


class NumericalAbort(RuntimeError):
    """A run produced non-finite values and cannot continue.

    ``phase`` names the part of the iteration that produced them: ``refresh``,
    ``score``, ``direction`` or ``step``.  ``particle`` is the first particle
    whose row is non-finite, or None when the value belongs to no particle.
    """

    def __init__(self, message: str, iteration: int | None = None,
                 phase: str | None = None, particle: int | None = None):
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)
        self.iteration = iteration
        self.phase = phase
        self.particle = particle


def as_count(value, name: str, minimum: int, error=InvalidInputError) -> int:
    """``value`` as an int >= ``minimum``; a non-integral number is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise error(f"{name}: must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name}: must be >= {minimum}, got {value}")
    return int(value)


def as_real(value, name: str, error=InvalidInputError, positive: bool = False,
            finite: bool = False) -> float:
    """``value`` as a float, > 0 when ``positive`` and finite when ``finite``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name}: must be a number, got {value!r}")
    if (positive and not value > 0) or (finite and not math.isfinite(value)):
        rule = " and ".join(word for word, on in (("positive", positive), ("finite", finite)) if on)
        raise error(f"{name}: must be {rule}, got {value}")
    return float(value)


def as_floats(value, name: str, error=InvalidInputError) -> np.ndarray:
    """``value`` as a float array, numpy's conversion error named ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name}: {exc}") from exc


def as_points(points, dim: int | None = None) -> np.ndarray:
    """``points`` as a finite (n, d) float array, n >= 1 and d = ``dim`` if given."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1 or (dim is not None and points.shape[1] != dim):
        raise InvalidInputError(f"expected points of shape (n >= 1, {dim or 'd'}), got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points have non-finite coordinates")
    return points
